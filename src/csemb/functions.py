"""Spectral weighting functions f(lambda) and their transforms.

A :class:`SpectralFunction` is a declarative description of the weight
applied to each eigenvalue: indicator steps, the commute-time weight
1/sqrt(1-x), identity, constants, or a tabulated curve. The transforms the
embedding pipeline needs, a b-th root (for cascading) and an odd extension
(for dilations of rectangular matrices), are wrappers that share one
protocol: a callable with ``breakpoints()`` and ``describe()``.

A root is always taken inside an odd extension, whatever order the two are
requested in. Taking the root before extending keeps the root's
nonnegativity precondition on the base function; for f >= 0 this equals the
signed root of the extension.

Any plain callable mapping arrays in [-1, 1] to arrays is accepted wherever
a SpectralFunction is, so ad-hoc weights (e.g. polynomials) need no wrapper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_KINDS = ("indicator", "commute", "identity", "constant", "tabulated")
_CHECK_GRID = np.linspace(-1.0, 1.0, 2001)

DEFAULT_COMMUTE_CLIP = 1e-3


@dataclass(frozen=True)
class SpectralFunction:
    kind: str
    threshold: float | None = None
    clip: float | None = None
    value: float | None = None
    table_x: np.ndarray | None = None
    table_y: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown function kind {self.kind!r}; valid: {_KINDS}")
        if self.kind == "indicator":
            if self.threshold is None or not -1.0 <= self.threshold <= 1.0:
                raise ValueError("indicator threshold must lie in [-1, 1]")
        elif self.kind == "commute":
            if self.clip is None or not 0.0 < self.clip < 1.0:
                raise ValueError("commute-time clip must lie in (0, 1)")
        elif self.kind == "constant":
            if self.value is None or not np.isfinite(self.value):
                raise ValueError("constant value must be finite")
        elif self.kind == "tabulated":
            if self.table_x is None or self.table_y is None:
                raise ValueError("tabulated function needs xs and ys")
            xs = np.asarray(self.table_x, dtype=np.float64)
            ys = np.asarray(self.table_y, dtype=np.float64)
            if xs.ndim != 1 or xs.shape != ys.shape or len(xs) < 2:
                raise ValueError("tabulated xs/ys must be 1-d arrays of equal length >= 2")
            if np.any(np.diff(xs) <= 0) or xs[0] < -1.0 or xs[-1] > 1.0:
                raise ValueError("tabulated xs must be strictly increasing within [-1, 1]")
            if not np.all(np.isfinite(ys)):
                raise ValueError("tabulated ys must be finite")
            xs.setflags(write=False)
            ys.setflags(write=False)
            object.__setattr__(self, "table_x", xs)
            object.__setattr__(self, "table_y", ys)

    # -- evaluation ---------------------------------------------------------

    def _raw(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "indicator":
            return (x >= self.threshold).astype(np.float64)
        if self.kind == "commute":
            return 1.0 / np.sqrt(1.0 - np.minimum(x, 1.0 - self.clip))
        if self.kind == "identity":
            return np.asarray(x, dtype=np.float64).copy()
        if self.kind == "constant":
            return np.full_like(x, self.value, dtype=np.float64)
        return np.interp(x, self.table_x, self.table_y)

    def __call__(self, x) -> np.ndarray | float:
        arr = np.asarray(x, dtype=np.float64)
        scalar = arr.ndim == 0
        out = self._raw(np.atleast_1d(arr))
        return float(out[0]) if scalar else out

    # -- structure ----------------------------------------------------------

    def breakpoints(self) -> tuple[float, ...]:
        """Points in (-1, 1) where the function jumps or kinks; quadrature
        panels and report grids split here."""
        base: list[float] = []
        if self.kind == "indicator":
            base.append(float(self.threshold))
        elif self.kind == "commute":
            base.append(1.0 - float(self.clip))
        elif self.kind == "tabulated":
            base.extend(float(t) for t in self.table_x)
        return tuple(sorted(b for b in base if -1.0 < b < 1.0))

    def support(self) -> tuple[float, float]:
        """An interval (lo, hi) outside which the function is exactly zero:
        [threshold, +inf) for an indicator, the whole line for every other
        kind. The dense oracle computes only the eigenpairs inside it."""
        if self.kind == "indicator":
            return float(self.threshold), np.inf
        return -np.inf, np.inf

    def describe(self) -> str:
        if self.kind == "indicator":
            return f"indicator:{self.threshold:g}"
        if self.kind == "commute":
            return f"commute:{self.clip:g}"
        if self.kind == "identity":
            return "identity"
        if self.kind == "constant":
            return f"const:{self.value:g}"
        return f"table:{len(self.table_x)}pts"


# -- constructors -----------------------------------------------------------


def indicator_above(threshold: float) -> SpectralFunction:
    """f(x) = 1 if x >= threshold else 0."""
    return SpectralFunction("indicator", threshold=float(threshold))


def commute_time(clip: float = DEFAULT_COMMUTE_CLIP) -> SpectralFunction:
    """f(x) = 1/sqrt(1 - x), evaluated with x clipped at 1 - clip."""
    return SpectralFunction("commute", clip=float(clip))


def identity() -> SpectralFunction:
    return SpectralFunction("identity")


def constant(value: float) -> SpectralFunction:
    return SpectralFunction("constant", value=float(value))


def tabulated(xs, ys) -> SpectralFunction:
    return SpectralFunction(
        "tabulated",
        table_x=np.array(xs, dtype=np.float64),
        table_y=np.array(ys, dtype=np.float64),
    )


# -- transforms -------------------------------------------------------------


class _OddExtension:
    """Odd extension of a callable: f(x) for x >= 0, -f(-x) below."""

    def __init__(self, f):
        self._f = f

    def __call__(self, x):
        arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
        out = np.where(arr >= 0.0, self._f(arr), -np.asarray(self._f(-arr)))
        return float(out[0]) if np.ndim(x) == 0 else out

    def breakpoints(self):
        pts = {0.0}
        for b in getattr(self._f, "breakpoints", tuple)():
            if 0.0 < b < 1.0:
                pts.update((b, -b))
        return tuple(sorted(pts))

    def describe(self):
        return f"{describe(self._f)}|odd"


class _Root:
    """Pointwise b-th root of a callable (b odd: signed root)."""

    def __init__(self, f, b: int):
        self._f = f
        self._b = b
        if b % 2 == 0:
            probe = np.asarray(f(_CHECK_GRID))
            if np.min(probe) < -1e-12:
                raise ValueError("even root of a function taking negative values")

    def __call__(self, x):
        y = np.atleast_1d(np.asarray(self._f(x), dtype=np.float64))
        if self._b % 2 == 0:
            out = np.maximum(y, 0.0) ** (1.0 / self._b)
        else:
            out = np.sign(y) * np.abs(y) ** (1.0 / self._b)
        return float(out[0]) if np.ndim(x) == 0 else out

    def breakpoints(self):
        return tuple(getattr(self._f, "breakpoints", tuple)())

    def describe(self):
        return f"{describe(self._f)}|root:{self._b}"


def odd_extension(f):
    """f'(x) = f(x) for x >= 0 and -f(-x) for x < 0."""
    return _OddExtension(f)


def root_function(f, b: int):
    """Pointwise b-th root; even roots require a nonnegative function.

    The root of an odd extension is the odd extension of the root, so the
    nonnegativity check sees the base function.
    """
    if b < 1:
        raise ValueError("root power must be >= 1")
    if b == 1:
        return f
    if isinstance(f, _OddExtension):
        return _OddExtension(root_function(f._f, b))
    return _Root(f, b)


def describe(f) -> str:
    """A short text form of a weighting function, for provenance."""
    d = getattr(f, "describe", None)
    if callable(d):
        return d()
    return getattr(f, "__name__", "callable")


# -- CLI grammar ------------------------------------------------------------

_GRAMMAR = "indicator:<c>, commute:<eta>, identity, const:<c>, table:<path>"


def parse_function(text: str) -> SpectralFunction:
    """Parse a CLI function string; see ``_GRAMMAR`` for the accepted forms."""
    name, _, arg = text.partition(":")
    try:
        if name == "indicator":
            return indicator_above(float(arg))
        if name == "commute":
            return commute_time(float(arg) if arg else DEFAULT_COMMUTE_CLIP)
        if name == "identity" and not arg:
            return identity()
        if name == "const":
            return constant(float(arg))
        if name == "table":
            data = np.loadtxt(arg, delimiter=",", ndmin=2)
            return tabulated(data[:, 0], data[:, 1])
    except (ValueError, OSError) as exc:
        raise ValueError(f"bad function string {text!r}: {exc}") from exc
    raise ValueError(f"unknown function {text!r}; valid kinds: {_GRAMMAR}")
