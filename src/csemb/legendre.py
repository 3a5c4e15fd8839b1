"""Legendre expansions of spectral weighting functions.

The expansion f_L(x) = sum_r a(r) p(r, x) minimizes the integrated squared
error over [-1, 1]; coefficients are a(r) = (r + 1/2) * integral of
p(r, x) f(x). All evaluation goes through the same three-term recursion

    p(r, x) = (2 - 1/r) x p(r-1, x) - (1 - 1/r) p(r-2, x),
    p(0, x) = 1,  p(1, x) = x,

that the matrix-level iteration uses, so scalar and matrix results agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

QUAD_NODES = 64  # Gauss-Legendre nodes per quadrature panel
QUAD_REFINE_DEGREE = 48  # polynomial degrees resolved by one sub-panel
REPORT_GRID_SIZE = 10001
_EDGE_OFFSET = 1e-9  # report grid samples this close to each breakpoint


def _check_domain(x: np.ndarray) -> None:
    if x.size and (np.min(x) < -1.0 or np.max(x) > 1.0):
        raise ValueError("argument outside [-1, 1]")


def legendre_terms(step, q0, order: int):
    """Yield Q(0..order) of the three-term recursion started at ``q0``.

    ``step(c, q, out)`` writes c times the operator applied to q into
    ``out``: ``np.multiply(x, c, out); out *= q`` for scalars (the bits of
    ``c * x * q``), a product into ``out`` scaled by c for a matrix. Every
    evaluation of the expansion, scalar or matrix, runs through this one loop.

    ``q0`` is yielded first and never written. The later terms rotate
    through three buffers allocated once, plus one scratch buffer for
    (1 - 1/r) Q(r-2), so a yielded term is valid only until the next one is
    requested; copy it to keep it.
    """
    yield q0
    bufs = [np.empty_like(q0) for _ in range(min(order, 3))]
    scratch = np.empty_like(q0) if order > 1 else None
    q_prev, q = None, q0
    for r in range(1, order + 1):
        q_new = bufs[(r - 1) % 3]
        step(2.0 - 1.0 / r, q, q_new)
        if r > 1:
            np.multiply(q_prev, 1.0 - 1.0 / r, out=scratch)
            q_new -= scratch
        yield q_new
        q_prev, q = q, q_new


def _scalar_terms(x: np.ndarray, order: int):
    def step(c, q, out):
        np.multiply(x, c, out=out)
        out *= q

    return legendre_terms(step, np.ones_like(x), order)


def legendre_table(order: int, x) -> np.ndarray:
    """Values p(0..order, x) as an (order+1, len(x)) table."""
    if order < 0:
        raise ValueError("order must be >= 0")
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    _check_domain(x)
    P = np.empty((order + 1, x.shape[0]))
    for r, p in enumerate(_scalar_terms(x, order)):
        P[r] = p
    return P


@dataclass(frozen=True)
class LegendreExpansion:
    """Coefficients a(0..L) of an order-L expansion."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.ascontiguousarray(self.coeffs, dtype=np.float64)
        if c.ndim != 1 or c.size < 1:
            raise ValueError("coefficients must form a non-empty 1-d array")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        c = c.copy() if c is self.coeffs else c
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def digest(self) -> str:
        import hashlib

        return hashlib.sha256(self.coeffs.tobytes()).hexdigest()


def _panel_nodes(breaks: tuple[float, ...], degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights on [-1, 1]: panels split at
    ``breaks``, and every smooth piece subdivided into one sub-panel of
    ``QUAD_NODES`` nodes per ``QUAD_REFINE_DEGREE`` degrees of the integrand."""
    xs, ws = np.polynomial.legendre.leggauss(QUAD_NODES)
    edges = np.unique(
        np.concatenate([[-1.0, 1.0], np.clip(np.asarray(breaks, dtype=np.float64), -1.0, 1.0)])
    )
    refine = max(1, -(-(degree + 1) // QUAD_REFINE_DEGREE))
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        if b <= a:
            continue
        sub = np.linspace(a, b, refine + 1)
        for lo, hi in zip(sub[:-1], sub[1:]):
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            nodes.append(mid + half * xs)
            weights.append(half * ws)
    return np.concatenate(nodes), np.concatenate(weights)


def _breakpoints_of(f) -> tuple[float, ...]:
    get = getattr(f, "breakpoints", None)
    return tuple(get()) if callable(get) else ()


def legendre_coefficients(f, order: int) -> LegendreExpansion:
    """Project ``f`` onto p(0..order) by composite Gauss-Legendre quadrature.

    ``f`` may be a SpectralFunction or any callable on arrays in [-1, 1];
    declared breakpoints become panel boundaries so discontinuous integrands
    converge.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    x, w = _panel_nodes(_breakpoints_of(f), order)
    fx = np.asarray(f(x), dtype=np.float64)
    if not np.all(np.isfinite(fx)):
        raise ValueError("function produced non-finite values on quadrature nodes")
    P = legendre_table(order, x)
    r = np.arange(order + 1)
    return LegendreExpansion((r + 0.5) * (P @ (w * fx)))


def expansion_eval(expansion: LegendreExpansion, x):
    """Evaluate sum_r a(r) p(r, x) with the shared recursion."""
    scalar = np.ndim(x) == 0
    xv = np.atleast_1d(np.asarray(x, dtype=np.float64))
    _check_domain(xv)
    a = expansion.coeffs
    terms = _scalar_terms(xv, expansion.order)
    acc = a[0] * next(terms)
    for r, q in enumerate(terms, start=1):
        acc += a[r] * q
    return float(acc[0]) if scalar else acc


@dataclass(frozen=True)
class ApproximationReport:
    """Grid sup-norm and integrated squared error of an expansion."""

    delta_sup: float
    delta_l2: float


def approximation_report(f, expansion: LegendreExpansion) -> ApproximationReport:
    """Measure sup |f - f_L| on a uniform grid of ``REPORT_GRID_SIZE`` points
    (plus breakpoint neighbors) and the half-integral of (f - f_L)^2 by panel
    quadrature."""
    breaks = _breakpoints_of(f)
    grid = [np.linspace(-1.0, 1.0, REPORT_GRID_SIZE), np.array([-1.0, 1.0])]
    for b in breaks:
        grid.append(np.clip([b - _EDGE_OFFSET, b, b + _EDGE_OFFSET], -1.0, 1.0))
    x = np.unique(np.concatenate(grid))
    resid = np.asarray(f(x), dtype=np.float64) - expansion_eval(expansion, x)
    delta_sup = float(np.max(np.abs(resid)))

    qx, qw = _panel_nodes(breaks, 2 * expansion.order)
    qresid = np.asarray(f(qx), dtype=np.float64) - expansion_eval(expansion, qx)
    delta_l2 = float(0.5 * np.sum(qw * qresid * qresid))
    return ApproximationReport(delta_sup, max(delta_l2, 0.0))
