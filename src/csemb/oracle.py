"""Desk-scale ground truth: exact spectral embeddings and distortion reports.

Everything here goes through a dense eigendecomposition and is capped at a
few thousand rows; it exists to validate the compressive engine, not to
scale. It takes the engine's input, an exactly symmetric ``SparseMatrix``.
Every eigensolve reads S from the row tails a[j, j:] of one n x n array: the
lower triangle of a.T, which LAPACK reads with lower=1 and numpy by default.
Where f is zero outside an interval (``support()``), only the eigenpairs
inside it are computed: by the LAPACK stages of ``dsyevr`` over a value range
(DSYTRD, DSTEBZ, DSTEIN, DORMTR) from scipy's ``linalg/_flapack`` extension,
bit for bit as ``dsyevr`` gives them but without its n x n eigenvector array.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .cluster import sq_distances
from .engine import EmbedConfig, fast_embed_cascaded, fold_seed, uniform_draws
from .errors import OracleCapError, OracleError
from .functions import support_of
from .io import write_json
from .legendre import expansion_eval, legendre_coefficients
from .sparse import Dilation, SparseMatrix, load_scipy_extension, spmv_multi

ORACLE_CAP = 3000
EIG_RESIDUAL_TOL = 1e-8
PERCENTILE_LEVELS = (1, 5, 25, 50, 75, 95, 99)
DEFAULT_MAX_PAIRS = 100_000
PAIR_CHUNK = 1024  # pairs whose rows are gathered at once
CALIBRATION_BIN_WIDTH = 0.1  # bins centered on -1.0, -0.9, ..., 1.0
_PAIR_KEY_TAG = 0x70616972  # "pair": the stream that orders the distinct pairs drawn
# the range dsyevr keeps max|a_ij| in, from DLAMCH's safe minimum and precision
_RMIN = math.sqrt(np.finfo(np.float64).tiny / np.finfo(np.float64).eps)  # 2^-485
_RMAX = 1.0 / math.sqrt(math.sqrt(np.finfo(np.float64).tiny))  # 2^255.5


@functools.cache
def _flapack():
    """scipy's LAPACK extension, loaded from its file by the first oracle run,
    so that other commands do not pay for it."""
    return load_scipy_extension("linalg._flapack")


def exact_embedding(S: SparseMatrix, f) -> np.ndarray:
    """Rows of f(S) in compact form: the eigenvector columns of S that f
    keeps, scaled by f(eigenvalue), so pairwise distances and correlations
    match the full f(S) rows.

    S must have at most ``ORACLE_CAP`` rows and be exactly symmetric, as
    :func:`fast_embed_cascaded` requires; both are checked before the dense
    matrix is formed. Where ``f.support()`` is narrower than the whole line,
    only the eigenpairs inside it are computed (:func:`_eigenpairs_within`).
    A function without ``support``, or whose support is the whole line, gets
    the full ``np.linalg.eigh``. Every eigenpair computed must pass the
    residual check; those with f(eigenvalue) = 0 are dropped, a non-finite one refused.
    """
    if S.n_rows > ORACLE_CAP:
        raise OracleCapError(f"matrix of size {S.n_rows} exceeds the dense-oracle cap {ORACLE_CAP}")
    if not S.is_symmetric():
        raise ValueError("oracle requires a square symmetric matrix")
    lo, hi = support_of(f)
    a = _dense_row_tails(S)
    if (lo, hi) == (-np.inf, np.inf):
        lam, vec = np.linalg.eigh(a.T)  # it copies a.T whole, reads its lower triangle
    else:
        lam, vec = _eigenpairs_within(a, lo, hi)
    del a  # not held through the residual check
    residual = float(np.max(np.abs(spmv_multi(S, vec) - vec * lam), initial=0.0))
    if residual > EIG_RESIDUAL_TOL:
        raise OracleError(f"eigensolver residual {residual:.3e} above {EIG_RESIDUAL_TOL}")
    weights = np.atleast_1d(np.asarray(f(lam), dtype=np.float64))
    if not np.all(np.isfinite(weights)):
        raise ValueError("function produced non-finite values on the eigenvalues")
    keep = weights != 0.0
    return vec[:, keep] * weights[keep]


def _dense_row_tails(S: SparseMatrix | Dilation) -> np.ndarray:
    """An n x n array whose row tails a[j, j:] hold those of S; nothing else
    is written. The tails are the lower triangle of the Fortran view a.T,
    the triangle every eigensolve here reads.

    The array lies in an anonymous mapping of its own, released with it.
    Its 4 KB pages are zero-filled on first write and get none of the
    huge-page advice numpy gives a large array, so the pages that hold only
    row heads are never backed. S's entries are put a block of rows at a
    time, about n entries on average, so the fill holds O(n) more."""
    import mmap  # here, so that commands without an oracle run do not load it

    n = S.n_rows
    a = np.frombuffer(mmap.mmap(-1, max(8 * n * n, 8)), count=n * n).reshape(n, n)
    offs, cols, vals = S.row_offsets, S.col_indices, S.values
    rows = len(offs) - 1  # A's, for a dilation
    step = max(1, rows * n // max(len(vals), 1))
    for r0 in range(0, rows, step):
        r1 = min(r0 + step, rows)
        k0, k1 = offs[r0], offs[r1]
        i = np.repeat(np.arange(r0, r1), np.diff(offs[r0 : r1 + 1]))
        j = cols[k0:k1]
        if isinstance(S, Dilation):  # A's entry (i, j) is the dilation's (j, n - rows + i)
            i, j = j, i + (n - rows)
        tail = j >= i
        np.put(a, (i * n + j)[tail], vals[k0:k1][tail])
    return a


def _row_tails(a: np.ndarray):
    return (a[j, j:] for j in range(a.shape[0]))


def _eigenpairs_within(a: np.ndarray, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """The eigenpairs of the symmetric matrix held in the row tails of ``a``
    with eigenvalues in [lo, hi], and perhaps a few within rounding of it, as
    LAPACK ``dsyevr`` computes them over (vl, vu] (:func:`_dsyevr_range`).
    The tails are overwritten; the row heads are never read.

    vl sits a rounding margin below lo, so that an eigenvalue exactly at lo
    is kept; f then drops any pair below it. vu sits the margin above hi or
    the Frobenius norm, whichever is smaller: that norm bounds every
    eigenvalue, and a matrix scaled by a norm estimate may exceed 1.
    """
    n = a.shape[0]
    # the Frobenius norm: each tail counts twice, less its diagonal entry once
    diag = a.diagonal()
    bound = math.sqrt(2.0 * sum(float(t @ t) for t in _row_tails(a)) - float(diag @ diag))
    margin = 4 * n * np.finfo(np.float64).eps * max(bound, 1.0)
    vl, vu = lo - margin, min(hi, bound) + margin
    if vl >= vu:
        return np.empty(0), np.empty((n, 0))
    return _dsyevr_range(a, vl, vu)


def _dsyevr_range(a: np.ndarray, vl: float, vu: float) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalues in (vl, vu], in ascending order, of the symmetric
    matrix whose row tails a[j, j:] ``a`` holds, and their eigenvectors as
    the columns of a C-ordered n x m array, bit for bit as
    ``dsyevr(a.T, range="V", lower=1, vl=vl, vu=vu)`` returns them. The
    tails are overwritten, the row heads never read, and vl < vu.

    On this path ``dsyevr`` runs DSYTRD, DSTEBZ, DSTEIN and DORMTR, but
    scipy's wrapper of it allocates n x n eigenvectors. So each stage is
    called here with the arguments ``dsyevr`` gives it, and only the n x m
    result is allocated: ``a``, reduced in place, is the one n x n array.
    ``dsyevr``'s quick return for n <= 1, its scaling of a matrix whose largest
    entry lies outside [_RMIN, _RMAX] and its final sort are repeated too.
    """
    n = a.shape[0]
    if n <= 1:
        diag = a.diagonal()
        lam = diag[(vl < diag) & (diag <= vu)]
        return lam, np.ones((n, len(lam)))
    anrm = max(float(np.abs(t).max()) for t in _row_tails(a))
    sigma = _RMIN / anrm if 0.0 < anrm < _RMIN else _RMAX / anrm if anrm > _RMAX else 1.0
    if sigma != 1.0:
        for t in _row_tails(a):  # the triangle dsyevr scales
            t *= sigma
    lapack = _flapack()
    # a.T is a in Fortran order, so the wrapper works in place instead of
    # copying; dsyevr's 26n workspace less the 5n it keeps for itself sets
    # DSYTRD's block size
    refl, d, e, tau, info = lapack.dsytrd(a.T, lower=1, lwork=21 * n, overwrite_a=1)
    _check_info("dsytrd", info)
    # range 1 is 'V', with the wrapper's default abstol 0; order 'B' lists
    # the eigenvalues of each diagonal block of T in turn
    m, w, iblock, isplit, info = lapack.dstebz(d, e, 1, vl * sigma, vu * sigma, 0, 0, 0.0, b"B")
    _check_info("dstebz", info)
    if m == 0:
        return np.empty(0), np.empty((n, 0))
    z, info = lapack.dstein(d, e, w[:m], iblock, isplit)
    _check_info("dstein", info)
    # DORMTR('L', 'L', 'N') is DORMQR on rows 2..n, with the reflectors
    # stored from A(2, 1) on with leading dimension n (a Fortran view of the
    # reduced matrix, so nothing is copied) and the 24n of dsyevr's workspace
    # that follow its first 2n; the strided rows 2..n of z go in as a copy
    below = refl.ravel(order="F")[1 : 1 + n * (n - 1)].reshape((n, n - 1), order="F")
    z[1:], _, info = lapack.dormqr("L", "N", below, tau, z[1:], 24 * n)
    _check_info("dormqr", info)
    lam = w[:m] * (1.0 / sigma)
    # dsyevr's selection sort: the first smallest later value swaps in, so
    # tied eigenvalues keep the order this gives, which no stable sort does
    for j in range(m - 1):
        i = j + int(np.argmin(lam[j:]))
        if lam[i] < lam[j]:
            lam[[i, j]] = lam[[j, i]]
            z[:, [i, j]] = z[:, [j, i]]
    return lam, np.ascontiguousarray(z)


def _check_info(routine: str, info: int) -> None:
    if info != 0:
        raise OracleError(f"LAPACK {routine} failed with info {info}")


def _pair_correlations(rows: np.ndarray, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cosine similarity of each pair's rows, in float64, and a mask of the
    pairs that touch a zero row, whose correlation is 0."""
    rows = np.asarray(rows, dtype=np.float64)
    norms = np.linalg.norm(rows, axis=1)
    a, b = pairs[:, 0], pairs[:, 1]
    denom = norms[a] * norms[b]
    zero = denom == 0.0
    # the rows are gathered a chunk of pairs at a time into two buffers; each
    # dot is its own sum. For every index that norms[a] and norms[b] accept,
    # mode "wrap" gathers what rows[a] would; the default mode gathers into a
    # copy first
    dots = np.empty(len(pairs))
    ra, rb = (np.empty((min(PAIR_CHUNK, len(pairs)), rows.shape[1])) for _ in range(2))
    for i in range(0, len(pairs), PAIR_CHUNK):
        at = slice(i, i + PAIR_CHUNK)
        k = len(dots[at])
        np.take(rows, a[at], axis=0, out=ra[:k], mode="wrap")
        np.take(rows, b[at], axis=0, out=rb[:k], mode="wrap")
        np.einsum("ij,ij->i", ra[:k], rb[:k], out=dots[at])
    out = np.zeros(len(pairs))
    np.divide(dots, denom, out=out, where=~zero)
    return out, zero


def _vertex_draws(seed: int, start: int, size: int, n: int) -> np.ndarray:
    """Vertex ids floor(u n) by draws start..start+size-1 of ``seed``."""
    u = uniform_draws(seed, np.arange(start, start + size, dtype=np.uint64))
    u *= n
    return u.astype(np.uint64)


def _pair_codes(seed: int, start: int, size: int, n: int) -> np.ndarray:
    """Codes i n + j (i < j) of the pairs of distinct vertices whose ends are
    ``size`` draws of ``seed`` from ``start`` and ``size`` more after them."""
    i = _vertex_draws(seed, start, size, n)
    hi = _vertex_draws(seed, start + size, size, n)
    lo = np.minimum(i, hi)
    np.maximum(i, hi, out=hi)
    del i
    keep = lo != hi
    lo *= np.uint64(n)
    lo += hi
    return lo[keep]


def sample_pairs(n: int, n_pairs: int | None, seed: int) -> np.ndarray:
    """Uniform vertex pairs (i < j) without replacement, deterministic per seed.

    Each round draws twice the missing count plus 16 candidates, i then j,
    from the next draws of ``seed``. Of the distinct pairs drawn, those whose
    codes i n + j have the smallest hash keys are kept: a uniform subset,
    where the smallest codes would favour low ids."""
    total = n * (n - 1) // 2
    asked = DEFAULT_MAX_PAIRS if n_pairs is None else n_pairs
    n_pairs = min(asked, total)
    if n_pairs < 1:
        raise ValueError(
            "a pair sample needs at least one vertex pair; "
            f"asked for {asked} of the {total} pairs among {n} rows"
        )
    if n_pairs == total:
        iu = np.triu_indices(n, k=1)
        return np.stack(iu, axis=1).astype(np.int64)
    codes = np.empty(0, dtype=np.uint64)
    drawn = 0
    while len(codes) < n_pairs:
        size = 2 * (n_pairs - len(codes)) + 16
        codes = np.concatenate([codes, _pair_codes(seed, drawn, size, n)])
        drawn += 2 * size
        codes.sort()
        codes = codes[np.concatenate(([True], codes[1:] != codes[:-1]))]
    keys = uniform_draws(fold_seed(seed, _PAIR_KEY_TAG), codes)
    codes = np.sort(codes[np.argpartition(keys, n_pairs - 1)[:n_pairs]])
    return np.stack([codes // np.uint64(n), codes % np.uint64(n)], axis=1).astype(np.int64)


@dataclass
class CalibrationBin:
    center: float
    count: int
    percentiles: dict[int, float]


@dataclass
class DistortionReport:
    """Correlation deviations over one pair sample, read two ways.

    ``percentiles`` are percentiles of (approx - exact) correlation; ``bins``
    group the pairs by exact correlation and hold percentiles of the
    approximate correlation per bin.
    """

    pair_sample_size: int
    zero_row_pairs: int
    percentiles: dict[int, float]
    bins: list[CalibrationBin]


def _percentiles(values: np.ndarray) -> dict[int, float]:
    return dict(zip(PERCENTILE_LEVELS, map(float, np.percentile(values, PERCENTILE_LEVELS))))


def distortion_percentiles(
    exact: np.ndarray, approx: np.ndarray, n_pairs: int | None = None, seed: int = 0
) -> DistortionReport:
    """Compare normalized correlations of two embeddings over sampled pairs."""
    if exact.shape[0] != approx.shape[0]:
        raise ValueError("embeddings must have the same number of rows")
    pairs = sample_pairs(exact.shape[0], n_pairs, seed)
    ex, ez = _pair_correlations(exact, pairs)
    ap, az = _pair_correlations(approx, pairs)
    centers = np.round(np.arange(-1.0, 1.0 + CALIBRATION_BIN_WIDTH / 2, CALIBRATION_BIN_WIDTH), 10)
    idx = np.clip(np.round((ex + 1.0) / CALIBRATION_BIN_WIDTH).astype(int), 0, len(centers) - 1)
    bins = []
    for k, c in enumerate(centers):
        sel = idx == k
        cnt = int(np.sum(sel))
        if cnt:
            bins.append(CalibrationBin(float(c), cnt, _percentiles(ap[sel])))
    return DistortionReport(
        pair_sample_size=len(pairs),
        zero_row_pairs=int(np.sum(ez | az)),
        percentiles=_percentiles(ap - ex),
        bins=bins,
    )


def distance_bound_audit(
    S: SparseMatrix, f, cfg: EmbedConfig, trials: int, epsilon: float = 0.5
) -> float:
    """Fraction of (trial, pair) events violating the two-sided distance bound.

    For each of ``trials`` fresh projections the audit checks, for every
    vertex pair, that the compressive distance lies within
    sqrt(1 -+ epsilon) * (exact distance -+ delta sqrt(2)), where delta is the
    expansion's worst error at the true eigenvalues and ``epsilon`` is the
    projection's distortion target.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    exact = exact_embedding(S, f)
    delta = _spectral_delta(_dense_row_tails(S).T, f, cfg.L)

    d_exact = _pairwise_distances(exact)
    slack = delta * math.sqrt(2.0)
    lower = math.sqrt(1.0 - epsilon) * (d_exact - slack)
    upper = math.sqrt(1.0 + epsilon) * (d_exact + slack)

    violations = 0
    for t in range(trials):
        trial = replace(cfg, b=1, seed=fold_seed(cfg.seed, t))
        emb = fast_embed_cascaded(S, f, trial).values
        d_approx = _pairwise_distances(emb)
        violations += int(np.sum((d_approx < lower) | (d_approx > upper)))
    return violations / (trials * len(d_exact))


def _spectral_delta(a: np.ndarray, f, L: int) -> float:
    """The worst error of f's order-L expansion at every eigenvalue of the
    symmetric matrix in a's lower triangle, where f is zero too. An eigenvalue
    within rounding of +-1 (a bipartite graph's normalized adjacency has one) counts as +-1."""
    lam = np.linalg.eigvalsh(a)
    if np.max(np.abs(lam), initial=0.0) <= 1.0 + 4 * len(lam) * np.finfo(np.float64).eps:
        lam = np.clip(lam, -1.0, 1.0)
    weights = np.atleast_1d(np.asarray(f(lam), dtype=np.float64))
    expansion = legendre_coefficients(f, L)
    return float(np.max(np.abs(weights - expansion_eval(expansion, lam)), initial=0.0))


def _pairwise_distances(rows: np.ndarray) -> np.ndarray:
    return np.sqrt(sq_distances(rows, rows)[np.triu_indices(rows.shape[0], k=1)])


# -- report serialization ----------------------------------------------------


def write_report(report: DistortionReport, prefix) -> None:
    """Write ``<prefix>_percentiles.csv``, the deviation percentiles,
    ``<prefix>_calibration.csv``, the percentiles of each bin, and
    ``<prefix>_report.json``, the deviation summary without the bins; its
    ``mode`` key names the summary and is always ``"deviation"``."""
    import csv  # here, so that only eval's report loads it

    levels = PERCENTILE_LEVELS
    tables = {
        "percentiles": [["percentile", "value"]]
        + [[p, repr(report.percentiles[p])] for p in levels],
        "calibration": [["bin_center"] + [f"p{p}" for p in levels]]
        + [[b.center] + [repr(b.percentiles[p]) for p in levels] for b in report.bins],
    }
    for name, rows in tables.items():
        with open(f"{prefix}_{name}.csv", "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
    summary = {
        "mode": "deviation",
        "pair_sample_size": report.pair_sample_size,
        "zero_row_pairs": report.zero_row_pairs,
        "percentiles": {str(k): v for k, v in report.percentiles.items()},
    }
    write_json(summary, f"{prefix}_report.json")
