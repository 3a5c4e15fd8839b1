"""The compressive embedding engine.

Given a symmetric sparse S with spectral norm at most 1, the embedding of
its rows is E = f_L(S) Omega: an order-L Legendre matrix polynomial applied
to a random sign projection block. The iteration mirrors the scalar
recursion exactly,

    Q(0) = Omega,  Q(r) = (2 - 1/r) S Q(r-1) - (1 - 1/r) Q(r-2),
    E = sum_r a(r) Q(r),

costing one multi-vector product per order and nothing else superlinear.
Cascading applies a shorter expansion of the b-th root of f, b times, which
deepens the nulls the plain expansion leaves shallow.

The work unit is a block of columns sized from n so that one n x w operand
fits in ``BLOCK_BYTES``, about half a core's L2 cache (:func:`block_width`).
Each block runs every cascade stage in a fixed set of preallocated buffers,
and blocks are spread over the worker threads. Columns never mix, and every
random entry is a pure function of (seed, position), so results are
bit-identical for any block width, any worker count and any column subset.
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError
from .functions import describe, odd_extension, root_function
from .legendre import LegendreExpansion, legendre_coefficients, legendre_terms
from .sparse import SparseMatrix, dilate, spmv_multi

logger = logging.getLogger("csemb.engine")

BLOCK_BYTES = 1 << 20  # operand bytes per column block; see block_width
NORM_ITERS = 20
NORM_VECTORS_FACTOR = 6.0
NORM_SAFETY = 1.01
_NORM_SEED_TAG = 0x6E6F726D  # "norm"

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)
_U64 = (1 << 64) - 1


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, vectorized over uint64 arrays (wrapping)."""
    with np.errstate(over="ignore"):
        z = z + _GOLDEN
        z = (z ^ (z >> np.uint64(30))) * _MIX_A
        z = (z ^ (z >> np.uint64(27))) * _MIX_B
        return z ^ (z >> np.uint64(31))


def fold_seed(seed: int, index: int) -> int:
    """Derive a decorrelated sub-seed from (seed, index)."""
    h = _mix64(np.uint64((seed & _U64)) + np.uint64(index & _U64))
    return int(h)


def jl_dimension(n: int, epsilon: float, beta: float) -> int:
    """Smallest d strictly above (4 + 2 beta) ln(n) / (eps^2/2 - eps^3/3)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if not beta > 0.0:
        raise ValueError("beta must be positive")
    bound = (4.0 + 2.0 * beta) * math.log(n) / (epsilon**2 / 2.0 - epsilon**3 / 3.0)
    return math.floor(bound) + 1


def default_dimension(n: int) -> int:
    """The practical operating point ceil(6 ln n), well below the worst-case
    bound of :func:`jl_dimension`.

    Per-pair correlation noise is about 1/sqrt(d) whatever n is, so the
    paper's figure of 90% of correlation deviations within +-0.2 needs
    d ~ 70-80 on any graph. ceil(6 ln n) matches the paper's d ~ 80 only
    near n ~ 3e5 (it is 77 at n = 317,080); at a smaller d the same mass
    needs a band wider by sqrt(80 / d)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return max(1, math.ceil(6.0 * math.log(n)))


def sample_projection(n: int, d: int, seed: int) -> np.ndarray:
    """An n x d block with i.i.d. entries +-1/sqrt(d).

    Entry (i, j) is a pure function of (seed, i, j): the sign comes from a
    64-bit hash of the flat position, so regeneration, column subsets, and
    parallel schedules all agree bit-for-bit.
    """
    if n < 1 or d < 1:
        raise ValueError("projection shape must be positive")
    key = _mix64(np.uint64(seed & _U64))
    scale = 1.0 / math.sqrt(d)
    out = np.empty((n, d))
    cols = np.arange(d, dtype=np.uint64)
    step = max(1, (1 << 22) // max(d, 1))
    with np.errstate(over="ignore"):
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            idx = np.arange(lo, hi, dtype=np.uint64)[:, None] * np.uint64(d) + cols
            h = _mix64(idx ^ key)
            out[lo:hi] = np.where(h >> np.uint64(63) & np.uint64(1), scale, -scale)
    return out


@dataclass(frozen=True)
class EmbedConfig:
    """Parameters of one embedding run.

    ``L`` is the total polynomial order, split into ``b`` cascade stages of
    order L/b each; ``d`` is the embedding dimension; ``epsilon`` is the
    projection's distortion target, which :func:`csemb.distance_bound_audit`
    checks.
    """

    L: int
    d: int
    b: int = 1
    seed: int = 0
    epsilon: float = 0.5

    def __post_init__(self):
        if self.L < 1:
            raise ValueError("L must be >= 1")
        if self.b < 1 or self.L % self.b != 0:
            raise ValueError("b must be >= 1 and divide L")
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")

    @property
    def stage_order(self) -> int:
        return self.L // self.b


@dataclass
class SpmvCounter:
    """Counts logical multi-vector products (one per recursion step)."""

    products: int = 0


@dataclass
class EmbeddingMatrix:
    """Dense embedding rows plus the provenance needed to reproduce them."""

    values: np.ndarray
    row_labels: np.ndarray | None = None
    provenance: dict = field(default_factory=dict)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


def estimate_spectral_norm(S: SparseMatrix, cfg: EmbedConfig) -> float:
    """Power-iteration estimate of ||S|| for symmetric S.

    Runs ``NORM_ITERS`` iterations on ceil(NORM_VECTORS_FACTOR * ln n) random
    unit vectors, takes the largest Rayleigh-quotient magnitude seen, and
    scales it by ``NORM_SAFETY``. The Rayleigh quotient never exceeds ||S||,
    so the estimate never exceeds NORM_SAFETY * ||S||.
    """
    if S.n_rows != S.n_cols:
        raise ValueError("spectral norm estimation requires a square matrix")
    if S.nnz == 0:
        return 0.0
    n = S.n_rows
    k = max(1, math.ceil(NORM_VECTORS_FACTOR * math.log(max(n, 2))))
    rng = np.random.default_rng(fold_seed(cfg.seed, _NORM_SEED_TAG))
    V = rng.standard_normal((n, k))
    V /= np.linalg.norm(V, axis=0)
    best = 0.0
    for _ in range(NORM_ITERS):
        W = spmv_multi(S, V)
        rayleigh = np.einsum("ij,ij->j", V, W)
        best = max(best, float(np.max(np.abs(rayleigh))))
        norms = np.linalg.norm(W, axis=0)
        alive = norms > 0.0
        if not np.any(alive):
            break
        V = W[:, alive] / norms[alive]
    return best * NORM_SAFETY


def _resolve_expansion(f, order: int) -> LegendreExpansion:
    if isinstance(f, LegendreExpansion):
        if f.order != order:
            raise ValueError(
                f"expansion order {f.order} does not match requested order {order}"
            )
        return f
    return legendre_coefficients(f, order)


def block_width(n: int, d: int) -> int:
    """Columns per work unit: as many as keep an n-row float64 block within
    ``BLOCK_BYTES``, at least 8 and at most d. It depends on the shape only,
    never on the worker count."""
    fit = BLOCK_BYTES // (8 * max(n, 1))
    return max(1, min(d, max(8, fit)))


def _run_stage(
    S: SparseMatrix, coeffs: np.ndarray, block: np.ndarray, stage: int, col0: int
) -> np.ndarray:
    """Apply one expansion to one contiguous column block.

    A term that overflows makes the sum non-finite from then on, so one
    finite check at the end catches every divergent run; the recursion runs
    to the end without floating-point warnings.
    """

    def step(c, q, out):
        spmv_multi(S, q, out=out)
        out *= c

    debug = logger.isEnabledFor(logging.DEBUG)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = legendre_terms(step, block, len(coeffs) - 1)
        acc = coeffs[0] * next(terms)
        tmp = np.empty_like(acc)
        for r, q in enumerate(terms, start=1):
            if debug:
                logger.debug(
                    "stage=%d cols=%d+%d r=%d max_abs=%.6e",
                    stage, col0, block.shape[1], r, np.max(np.abs(q), initial=0.0),
                )
            np.multiply(q, coeffs[r], out=tmp)
            acc += tmp
    if not np.isfinite(acc).all():
        raise DivergenceError(
            f"cascade stage {stage} produced non-finite values in columns "
            f"{col0}..{col0 + block.shape[1] - 1}; the matrix likely has spectral "
            "norm > 1 - rescale it (estimate_spectral_norm) and retry"
        )
    return acc


def _apply_cascade(
    S: SparseMatrix,
    expansion: LegendreExpansion,
    omega: np.ndarray,
    *,
    stages: int,
    width: int,
    n_workers: int,
    counter: SpmvCounter,
) -> np.ndarray:
    """Apply ``expansion`` ``stages`` times to ``omega``, one column block at
    a time: stage i+1 of a column needs only stage i of the same column."""
    d = omega.shape[1]
    out = np.empty_like(omega)
    spans = [(lo, min(lo + width, d)) for lo in range(0, d, width)]
    coeffs = expansion.coeffs

    def run(span):
        lo, hi = span
        piece = np.ascontiguousarray(omega[:, lo:hi])
        for stage in range(1, stages + 1):
            piece = _run_stage(S, coeffs, piece, stage, lo)
        out[:, lo:hi] = piece

    if n_workers <= 1 or len(spans) == 1:
        for span in spans:
            run(span)
    else:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            list(pool.map(run, spans))
    counter.products += stages * expansion.order
    return out


def fast_embed_cascaded(
    S: SparseMatrix,
    f,
    cfg: EmbedConfig,
    omega: np.ndarray | None = None,
    *,
    n_workers: int = 1,
    counter: SpmvCounter | None = None,
) -> EmbeddingMatrix:
    """Embed the rows of a symmetric S (||S|| <= 1) as f_L(S) @ omega, by b
    cascade stages of order L/b applied to the b-th root of f.

    ``f`` may be a SpectralFunction, a plain callable on [-1, 1], or (with
    b = 1) a precomputed :class:`LegendreExpansion` of order L. ``omega``
    defaults to :func:`sample_projection` of ``cfg.d`` columns. Stage i's
    output block is stage i+1's input block; exactly L/b multi-vector
    products are performed per stage, L in total.
    """
    if S.n_rows != S.n_cols:
        raise ValueError("fast_embed_cascaded requires a square (symmetric) matrix")
    if omega is None:
        omega = sample_projection(S.n_rows, cfg.d, cfg.seed)
    omega = np.asarray(omega, dtype=np.float64)
    if omega.ndim != 2 or omega.shape[0] != S.n_rows:
        raise ValueError("projection block must be 2-d with one row per vertex")
    if cfg.b == 1:
        g = f
    else:
        if isinstance(f, LegendreExpansion):
            raise ValueError("cascading needs the function itself, not an expansion")
        g = root_function(f, cfg.b)
    expansion = _resolve_expansion(g, cfg.stage_order)
    own_counter = counter if counter is not None else SpmvCounter()
    width = block_width(S.n_rows, omega.shape[1])
    values = _apply_cascade(
        S, expansion, omega, stages=cfg.b, width=width, n_workers=n_workers,
        counter=own_counter,
    )
    return EmbeddingMatrix(
        values=values,
        provenance={
            "function": describe(f),
            "L": cfg.L,
            "b": cfg.b,
            "stage_order": cfg.stage_order,
            "d": omega.shape[1],
            "block_width": width,
            "seed": cfg.seed,
            "spmv_products": own_counter.products,
            "coeffs_sha256": expansion.digest(),
        },
    )


def fast_embed_general(
    A: SparseMatrix,
    f,
    cfg: EmbedConfig,
    *,
    n_workers: int = 1,
    counter: SpmvCounter | None = None,
) -> tuple[EmbeddingMatrix, EmbeddingMatrix]:
    """Row and column embeddings of a general m x n matrix with ||A|| <= 1.

    Runs the cascaded engine on the symmetric dilation [0 A^T; A 0] with the
    odd extension of ``f``, then splits the output with
    :func:`split_dilation`. Returns ``(row_embedding, column_embedding)``.
    """
    emb = fast_embed_cascaded(
        dilate(A), odd_extension(f), cfg, n_workers=n_workers, counter=counter
    )
    return split_dilation(emb, A.n_cols)


def split_dilation(
    emb: EmbeddingMatrix, n_cols: int
) -> tuple[EmbeddingMatrix, EmbeddingMatrix]:
    """Split an embedding of the dilation of an m x n matrix into
    ``(row_embedding, column_embedding)``: the first n rows embed the
    columns of the matrix, the last m rows embed its rows."""

    def side(values, name):
        return EmbeddingMatrix(
            values=values,
            row_labels=np.arange(values.shape[0], dtype=np.int64),
            provenance={**emb.provenance, "side": name},
        )

    return side(emb.values[n_cols:], "rows"), side(emb.values[:n_cols], "columns")
