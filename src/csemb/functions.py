"""Spectral weighting functions f(lambda) and their transforms.

Every weighting function is a :class:`SpectralFunction`: its values on an
array, its text form, the points where it jumps or kinks, and an interval
outside which it is zero. Each constructor checks its own argument and
builds one: indicator steps, the commute-time weight 1/sqrt(1-x), identity,
constants, a tabulated curve, and the two transforms the embedding pipeline
needs, a signed b-th root (for cascading) and an odd extension (for
dilations of rectangular matrices).

Any plain callable mapping arrays in [-1, 1] to arrays is accepted wherever
a SpectralFunction is, so ad-hoc weights (e.g. polynomials) need no wrapper;
:func:`breakpoints_of`, :func:`support_of` and :func:`describe` read it as
having no breakpoints, the whole line as support, and its name.
"""

from __future__ import annotations

import numpy as np

from .io import loadtxt

_WHOLE_LINE = (-np.inf, np.inf)

DEFAULT_COMMUTE_CLIP = 1e-3


class SpectralFunction:
    """A weighting function f and the structure the pipeline reads from it.

    ``values`` maps a float64 array to f's values there. ``breaks`` are the
    points where f jumps or kinks; quadrature panels and report grids split
    at those inside (-1, 1). ``support`` is an interval (lo, hi) outside which
    f is exactly zero; the dense oracle computes only the eigenpairs inside
    it. ``text`` is the short form recorded in provenance.
    """

    def __init__(self, values, text: str, breaks=(), support=_WHOLE_LINE):
        self._values = values
        self._text = text
        self._breaks = tuple(sorted({float(b) for b in breaks if -1.0 < b < 1.0}))
        self._support = (float(support[0]), float(support[1]))

    def __call__(self, x) -> np.ndarray | float:
        arr = np.asarray(x, dtype=np.float64)
        out = self._values(np.atleast_1d(arr))
        return float(out[0]) if arr.ndim == 0 else out

    def breakpoints(self) -> tuple[float, ...]:
        return self._breaks

    def support(self) -> tuple[float, float]:
        return self._support

    def describe(self) -> str:
        return self._text


def breakpoints_of(f) -> tuple[float, ...]:
    get = getattr(f, "breakpoints", None)
    return tuple(get()) if callable(get) else ()


def support_of(f) -> tuple[float, float]:
    get = getattr(f, "support", None)
    return tuple(get()) if callable(get) else _WHOLE_LINE


def describe(f) -> str:
    """A short text form of a weighting function, for provenance."""
    d = getattr(f, "describe", None)
    if callable(d):
        return d()
    return getattr(f, "__name__", "callable")


# -- constructors -----------------------------------------------------------


def indicator_above(threshold: float) -> SpectralFunction:
    """f(x) = 1 if x >= threshold else 0; zero below the threshold."""
    t = float(threshold)
    if not -1.0 <= t <= 1.0:
        raise ValueError("indicator threshold must lie in [-1, 1]")
    return SpectralFunction(
        lambda x: (x >= t).astype(np.float64), f"indicator:{t:g}", (t,), (t, np.inf)
    )


def commute_time(clip: float = DEFAULT_COMMUTE_CLIP) -> SpectralFunction:
    """f(x) = 1/sqrt(1 - x), evaluated with x clipped at 1 - clip."""
    eta = float(clip)
    if not 0.0 < eta < 1.0:
        raise ValueError("commute-time clip must lie in (0, 1)")
    return SpectralFunction(
        lambda x: 1.0 / np.sqrt(1.0 - np.minimum(x, 1.0 - eta)), f"commute:{eta:g}", (1.0 - eta,)
    )


def identity() -> SpectralFunction:
    return SpectralFunction(lambda x: np.array(x, dtype=np.float64), "identity")


def constant(value: float) -> SpectralFunction:
    c = float(value)
    if not np.isfinite(c):
        raise ValueError("constant value must be finite")
    return SpectralFunction(lambda x: np.full_like(x, c, dtype=np.float64), f"const:{c:g}")


def tabulated(xs, ys) -> SpectralFunction:
    """Linear interpolation of the points (xs, ys); its breakpoints are xs."""
    xs = np.array(xs, dtype=np.float64)
    ys = np.array(ys, dtype=np.float64)
    if xs.ndim != 1 or xs.shape != ys.shape or len(xs) < 2:
        raise ValueError("tabulated xs/ys must be 1-d arrays of equal length >= 2")
    if not (np.all(np.diff(xs) > 0) and -1.0 <= xs[0] and xs[-1] <= 1.0):  # NaN fails each
        raise ValueError("tabulated xs must be strictly increasing within [-1, 1]")
    if not np.all(np.isfinite(ys)):
        raise ValueError("tabulated ys must be finite")
    return SpectralFunction(lambda x: np.interp(x, xs, ys), f"table:{len(xs)}pts", xs)


# -- transforms -------------------------------------------------------------


def odd_extension(f) -> SpectralFunction:
    """f'(x) = f(x) for x >= 0 and -f(-x) for x < 0. It breaks at 0 and at
    +-b for each breakpoint b of f in (0, 1); its support is the whole line."""
    pos = [b for b in breakpoints_of(f) if 0.0 < b < 1.0]
    return SpectralFunction(
        lambda x: np.where(x >= 0.0, f(x), -np.asarray(f(-x))),
        f"{describe(f)}|odd",
        (0.0, *pos, *(-b for b in pos)),
    )


def root_function(f, b: int):
    """The signed b-th root sign(f) |f|^(1/b), which b cascade stages turn
    into f for odd b and, for even b, into |f|, with f's row Gram f(S)^2. It
    is zero exactly where f is, so it keeps f's breakpoints and support."""
    if b < 1:
        raise ValueError("root power must be >= 1")
    if b == 1:
        return f

    def values(x):
        y = np.atleast_1d(np.asarray(f(x), dtype=np.float64))
        return np.copysign(np.abs(y) ** (1.0 / b), y)

    return SpectralFunction(values, f"{describe(f)}|root:{b}", breakpoints_of(f), support_of(f))


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
            data = loadtxt(arg, delimiter=",", ndmin=2)
            if data.shape[1] < 2:
                raise ValueError("a table needs rows of two columns, x,y")
            return tabulated(data[:, 0], data[:, 1])
    except (ValueError, OSError) as exc:
        raise ValueError(f"bad function string {text!r}: {exc}") from exc
    raise ValueError(f"unknown function {text!r}; valid kinds: {_GRAMMAR}")
