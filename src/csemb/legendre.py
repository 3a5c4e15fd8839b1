"""Legendre expansions of spectral weighting functions.

The expansion f_L(x) = sum_r a(r) p(r, x) minimizes the integrated squared
error over [-1, 1]; coefficients are a(r) = (r + 1/2) * integral of
p(r, x) f(x). All evaluation goes through the same recursion,
:func:`legendre_terms`, that the matrix-level iteration uses, and an
expansion is summed by :func:`legendre_sum` for scalars and matrices alike.
The caller supplies the step; every weighted term is added by
:func:`~csemb.sparse.weighted_add`, scipy's CSR kernel on the 1 x 1 matrix
[weight], which rounds the product and then the sum, so scalar and matrix
results round the same way. It runs the three-term recursion

    p(r, x) = (2 - 1/r) x p(r-1, x) - (1 - 1/r) p(r-2, x),
    p(0, x) = 1,  p(1, x) = x,

in its monic form (Gautschi, Orthogonal Polynomials, 2004): p(r) =
gamma(r) R(r) with R(r) = x R(r-1) - mu(r) R(r-2), so the product with x
adds into the buffer that held R(r-2) and each order needs only two live
terms. gamma(r) is kept as a scalar and renormalised by an exact power of
two before it can overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .functions import breakpoints_of
from .sparse import weighted_add

# CPython's own SHA-256 (``_sha2`` from 3.12, ``_sha256`` before): hashlib's
# import loads OpenSSL's libcrypto, 3.4 MB resident, for this one digest
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

QUAD_NODES = 64  # Gauss-Legendre nodes per quadrature panel
QUAD_REFINE_DEGREE = 48  # polynomial degrees resolved by one sub-panel
REPORT_GRID_SIZE = 10001
_EDGE_OFFSET = 1e-9  # report grid samples this close to each breakpoint
_RESCALE_EXP = 512  # legendre_terms moves 2**512 from gamma into the terms
_RESCALE_AT = 2.0**_RESCALE_EXP

# numpy's leggauss(QUAD_NODES) rule, pinned so that no run imports
# numpy.polynomial (nine modules, 0.6 MB resident) for these constants: its
# positive nodes, ascending, and their weights, as float.hex. numpy
# symmetrises the rule, so _panel_nodes' negated mirror is exact.
_HALF_RULE = np.array([float.fromhex(h) for h in """
0x1.8ef487a8cbc32p-6 0x1.8ee0567ee2e5dp-5
0x1.2afad5ee95ad0p-4 0x1.8dee238192cdcp-5
0x1.f182ff48e8a26p-4 0x1.8c0a5097676c0p-5
0x1.5b6e88ad5c00fp-3 0x1.89360387fe3b9p-5
0x1.bd489b79ec83bp-3 0x1.8572f41fbb53dp-5
0x1.0f0a26c56e49cp-2 0x1.80c36b24bdd21p-5
0x1.3ecb6c46c76cbp-2 0x1.7b2a40f3ccde2p-5
0x1.6dcb1f0620fffp-2 0x1.74aadbc614fb9p-5
0x1.9becb55272c9dp-2 0x1.6d492da0c2510p-5
0x1.c9142c5898fc5p-2 0x1.6509b1efb8dfcp-5
0x1.f52619257c3a1p-2 0x1.5bf16accdf431p-5
0x1.1003dca600f34p-1 0x1.5205ddf5a36e2p-5
0x1.24cf81925487fp-1 0x1.474d117092830p-5
0x1.38e95ace7b3c3p-1 0x1.3bcd87e50de1ep-5
0x1.4c4533c68b412p-1 0x1.2f8e3ca7574e3p-5
0x1.5ed74b4532f83p-1 0x1.22969f7b5c8bdp-5
0x1.70945a96f12c4p-1 0x1.14ee9010d92e3p-5
0x1.81719c62ec68ep-1 0x1.069e593b92368p-5
0x1.9164d335425e2p-1 0x1.ef5d57d53b4b8p-6
0x1.a0644fb6d8db8p-1 0x1.d05133c3af946p-6
0x1.ae66f68eedbc6p-1 0x1.b02b2071c0c76p-6
0x1.bb6445eadae2cp-1 0x1.8efea34684612p-6
0x1.c7545aa8c0dadp-1 0x1.6cdfe10bba36ep-6
0x1.d22ff5221288ap-1 0x1.49e391bd2143cp-6
0x1.dbf07d935a5afp-1 0x1.261ef40a7a2d6p-6
0x1.e490081f2891bp-1 0x1.01a7c0a5c98d9p-6
0x1.ec09586b58faap-1 0x1.b9283b35df8d9p-7
0x1.f257e4db5aabcp-1 0x1.6df524de84deap-7
0x1.f777d976cfadap-1 0x1.21e400109d33cp-7
0x1.fb661ac8c85a9p-1 0x1.aa46b24145aa3p-8
0x1.fe204ab274eccp-1 0x1.0fc7ac3ac3b55p-8
0x1.ffa4e911f7533p-1 0x1.d379f1845dadfp-10
""".split()]).reshape(-1, 2).T


def _check_domain(x: np.ndarray) -> None:
    if x.size and (np.min(x) < -1.0 or np.max(x) > 1.0):
        raise ValueError("argument outside [-1, 1]")


def legendre_terms(step, q, spare, order: int):
    """Yield (gamma(r), R(r)) for r = 0..order, the terms Q(r) = gamma(r) R(r)
    of the three-term recursion started at Q(0) = ``q``.

    R is the monic form of the recursion, R(0) = Q(0) and

        R(r) = x R(r-1) - mu(r) R(r-2),  mu(r) = (1 - 1/r) / (c(r) c(r-1)),

    with c(r) = 2 - 1/r and gamma(r) = c(1) ... c(r). ``step(t, out)`` adds
    the operator applied to t into ``out``: ``out += x * t`` for scalars, one
    accumulating product for a matrix. Each order scales the buffer holding
    R(r-2) by -mu(r) in place and lets ``step`` add x R(r-1) into it. Every
    evaluation of the expansion, scalar or matrix, runs through this loop.

    The terms rotate through ``q``, overwritten from R(2) on, and ``spare``,
    a buffer of q's shape, so a yielded term is valid only until the next
    one is requested. gamma about doubles per order; once it passes 2**512,
    gamma and both live terms are rescaled by that exact power of two, which
    leaves gamma(r) R(r) unchanged. Without it gamma overflows and R
    underflows near order 1024.
    """
    yield 1.0, q
    gamma, c, bufs = 1.0, 1.0, (q, spare)
    for r in range(1, order + 1):
        c_prev, c = c, 2.0 - 1.0 / r
        new, old = bufs[r % 2], bufs[(r - 1) % 2]
        if r == 1:
            new.fill(0.0)
        else:
            new *= -(1.0 - 1.0 / r) / (c * c_prev)
        step(old, new)
        gamma *= c
        if gamma > _RESCALE_AT:
            gamma = math.ldexp(gamma, -_RESCALE_EXP)
            np.ldexp(new, _RESCALE_EXP, out=new)
            np.ldexp(old, _RESCALE_EXP, out=old)
        yield gamma, new


def legendre_sum(step, coeffs, q, spare, acc) -> None:
    """Leave sum_r coeffs[r] Q(r) in ``acc``: the expansion applied to
    Q(0) = ``q`` by :func:`legendre_terms`, which overwrites ``q`` and
    ``spare``. Term 0 is multiplied into ``acc``; every later term times
    coeffs[r] gamma(r) is added into ``acc`` in place by
    :func:`~csemb.sparse.weighted_add`. The engine and
    :func:`expansion_eval` both sum through here, so they round alike."""
    terms = legendre_terms(step, q, spare, len(coeffs) - 1)
    np.multiply(next(terms)[1], coeffs[0], out=acc)
    for r, (gamma, term) in enumerate(terms, start=1):
        weighted_add(term, coeffs[r] * gamma, acc)


def _scalar_step(x: np.ndarray):
    """The recursion's step on the values ``x``: ``out += x * t``."""

    def step(t, out):
        out += x * t

    return step


def legendre_table(order: int, x) -> np.ndarray:
    """Values p(0..order, x) as an (order+1, len(x)) table."""
    if order < 0:
        raise ValueError("order must be >= 0")
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    _check_domain(x)
    P = np.empty((order + 1, x.shape[0]))
    terms = legendre_terms(_scalar_step(x), np.ones_like(x), np.empty_like(x), order)
    for r, (gamma, p) in enumerate(terms):
        np.multiply(p, gamma, out=P[r])
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
        return sha256(self.coeffs.tobytes()).hexdigest()


def _panel_nodes(breaks: tuple[float, ...], degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights on [-1, 1]: panels split at
    ``breaks``, and every smooth piece subdivided into one sub-panel of
    ``QUAD_NODES`` nodes per ``QUAD_REFINE_DEGREE`` degrees of the integrand."""
    half_x, half_w = _HALF_RULE
    xs = np.concatenate([-half_x[::-1], half_x])
    ws = np.concatenate([half_w[::-1], half_w])
    # sorted, not np.unique: the loop skips equal edges, and np.unique imports numpy.ma
    edges = np.sort(
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


def legendre_coefficients(f, order: int) -> LegendreExpansion:
    """Project ``f`` onto p(0..order) by composite Gauss-Legendre quadrature.

    ``f`` may be a SpectralFunction or any callable on arrays in [-1, 1];
    declared breakpoints become panel boundaries so discontinuous integrands
    converge.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    x, w = _panel_nodes(breakpoints_of(f), order)
    fx = np.asarray(f(x), dtype=np.float64)
    if not np.all(np.isfinite(fx)):
        raise ValueError("function produced non-finite values on quadrature nodes")
    P = legendre_table(order, x)
    r = np.arange(order + 1)
    return LegendreExpansion((r + 0.5) * (P @ (w * fx)))


def expansion_eval(expansion: LegendreExpansion, x):
    """Evaluate sum_r a(r) p(r, x) with the engine's sum, :func:`legendre_sum`."""
    scalar = np.ndim(x) == 0
    xv = np.atleast_1d(np.asarray(x, dtype=np.float64))
    _check_domain(xv)
    acc, spare = np.empty_like(xv), np.empty_like(xv)
    legendre_sum(_scalar_step(xv), expansion.coeffs, np.ones_like(xv), spare, acc)
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
    breaks = breakpoints_of(f)
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
