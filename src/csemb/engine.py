"""The compressive embedding engine.

Given a symmetric sparse S with spectral norm at most 1, the embedding of
its rows is E = f_L(S) Omega: an order-L Legendre matrix polynomial applied
to a random sign projection block. The iteration is the scalar recursion of
:func:`~csemb.legendre.legendre_terms`, summed by
:func:`~csemb.legendre.legendre_sum` on column blocks. It keeps the monic
terms R(r) = Q(r) / gamma(r) of

    Q(0) = Omega,  Q(r) = (2 - 1/r) S Q(r-1) - (1 - 1/r) Q(r-2),

so each order scales the buffer holding R(r-2) by -mu(r), lets the
multi-vector product add S R(r-1) into it, and adds a(r) gamma(r) R(r) to
the result in place with scipy's CSR kernel on the identity pattern
(:func:`~csemb.sparse.weighted_adders`): one product and two dense passes
per order, and nothing else superlinear. gamma(r) is a scalar, renormalised
by an exact power of two before it overflows near order 1024. Cascading
applies a shorter expansion of the signed b-th root of f, b times, which
deepens the nulls the plain expansion leaves shallow (for even b and a
signed f the product is |f|_L(S) Omega, which has f's row Gram f(S)^2).

Callers divide S by :func:`estimate_spectral_norm`, NORM_SAFETY times the
largest |Ritz value| of a short Lanczos run. A Ritz value is a Rayleigh
quotient of S on an orthonormal basis, so it never exceeds ||S||. An S that
is not exactly symmetric is refused; a norm above 1 trips the growth guard.

The work unit is a block of columns sized from n so that one n x w operand
fits in ``BLOCK_BYTES``, about half a core's L2 cache (:func:`block_width`).
Blocks are spread over the worker threads. Each worker owns one workspace
of three n x w buffers, allocated once per run by the calling thread: the
stage input, which doubles as one of the recursion's two terms, the other
term, and the stage output, into which the weighted terms are added. Every
block and stage of that worker reuses them, so a run allocates no n x w
array in its workers. Omega is the sign block of the run's seed
(:func:`sample_projection`), and every random entry (the norm's start vector
too) is a pure function of (seed, position). So a block draws its own
columns of Omega into its stage input, hashing in place there and in the
stage output, which is idle until stage 1: the n x d Omega is never formed.
Columns never mix, so results are bit-identical for any block width and
worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DivergenceError
from .functions import describe, root_function
from .legendre import LegendreExpansion, legendre_coefficients, legendre_sum
from .sparse import SparseMatrix, spmv_multi, weighted_adders

BLOCK_BYTES = 1 << 20  # operand bytes per column block; see block_width
NORM_STEPS = 40  # Lanczos steps of estimate_spectral_norm
NORM_SAFETY = 1.01
GROWTH_SLACK = 1e-9  # relative rounding allowance of the per-stage growth guard
_NORM_SEED_TAG = 0x6E6F726D  # "norm"

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)
_U64 = (1 << 64) - 1
_SIGN_BIT = np.uint64(1 << 63)


def _mix64(z: np.ndarray, t: np.ndarray | None = None) -> np.ndarray:
    """SplitMix64 finalizer, in place over the uint64 array ``z`` (wrapping);
    ``t`` is uint64 scratch of z's shape. Returns ``z``."""
    t = np.empty_like(z) if t is None else t
    with np.errstate(over="ignore"):
        z += _GOLDEN
        for shift, mult in ((30, _MIX_A), (27, _MIX_B)):
            np.right_shift(z, np.uint64(shift), out=t)
            z ^= t
            z *= mult
        np.right_shift(z, np.uint64(31), out=t)
        z ^= t
    return z


def fold_seed(seed: int, index: int) -> int:
    """Derive a decorrelated sub-seed from (seed, index)."""
    return int(_mix64(np.array(((seed & _U64) + (index & _U64)) & _U64, dtype=np.uint64)))


def default_dimension(n: int) -> int:
    """The practical operating point ceil(6 ln n), well below the worst-case
    Johnson-Lindenstrauss bound, the smallest d strictly above
    (4 + 2 beta) ln(n) / (eps^2/2 - eps^3/3) (913 at n = 317,080, eps = 0.5,
    beta = 1).

    Per-pair correlation noise is about 1/sqrt(d) whatever n is, so the
    paper's figure of 90% of correlation deviations within +-0.2 needs
    d ~ 70-80 on any graph. ceil(6 ln n) matches the paper's d ~ 80 only
    near n ~ 3e5 (it is 77 at n = 317,080); at a smaller d the same mass
    needs a band wider by sqrt(80 / d)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return max(1, math.ceil(6.0 * math.log(n)))


def _draw_signs(out: np.ndarray, seed: int, d: int, row_codes: np.ndarray, col: int,
                t: np.ndarray) -> None:
    """Fill ``out`` with columns col.. of the n x d sign block of ``seed``;
    row i of ``out`` is row k of the block, where ``row_codes[i]`` = k * d.
    Entry (k, j) is +-1/sqrt(d), signed by the top bit of the SplitMix64 hash
    of k * d + j xor the hashed seed. The hash and the float bits are written
    in out's own bytes, with ``t`` (uint64, out's shape) as the only scratch;
    the codes are added a column at a time, which needs no ufunc buffer.
    """
    z = out.view(np.uint64)
    for j in range(out.shape[1]):
        np.add(row_codes, np.uint64(col + j), out=z[:, j])
    z ^= _mix64(np.array(seed & _U64, dtype=np.uint64))
    _mix64(z, t)
    np.invert(z, out=z)  # a set top bit means +1/sqrt(d), a clear sign bit
    z &= _SIGN_BIT
    z |= np.float64(1.0 / math.sqrt(d)).view(np.uint64)


def sample_projection(n: int, d: int, seed: int) -> np.ndarray:
    """An n x d block with i.i.d. entries +-1/sqrt(d).

    Entry (i, j) is a pure function of (seed, i, j): the sign comes from a
    64-bit hash of the flat position, so regeneration, column subsets, and
    parallel schedules all agree bit-for-bit. :func:`fast_embed_cascaded`
    draws the same entries a column block at a time without this array.
    """
    if n < 1 or d < 1:
        raise ValueError("projection shape must be positive")
    out = np.empty((n, d))
    step = max(1, BLOCK_BYTES // (8 * d))  # rows per chunk of hash scratch
    t = np.empty(min(step, n) * d, dtype=np.uint64)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        row_codes = np.arange(lo, hi, dtype=np.uint64) * np.uint64(d)
        _draw_signs(out[lo:hi], seed, d, row_codes, 0, t[: (hi - lo) * d].reshape(hi - lo, d))
    return out


@dataclass(frozen=True)
class EmbedConfig:
    """Parameters of one embedding run.

    ``L`` is the total polynomial order, split into ``b`` cascade stages of
    order L/b each; ``d`` is the embedding dimension.
    """

    L: int
    d: int
    b: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.L < 1:
            raise ValueError("L must be >= 1")
        if self.b < 1 or self.L % self.b != 0:
            raise ValueError("b must be >= 1 and divide L")
        if self.d < 1:
            raise ValueError("d must be >= 1")

    @property
    def stage_order(self) -> int:
        return self.L // self.b


@dataclass
class EmbeddingMatrix:
    """Dense embedding rows plus the provenance needed to reproduce them."""

    values: np.ndarray
    provenance: dict = field(default_factory=dict)


def estimate_spectral_norm(S: SparseMatrix) -> float:
    """Lanczos estimate of ||S|| for symmetric S: ``NORM_SAFETY`` times the
    largest |theta| over the Ritz values of k = min(NORM_STEPS, n) steps. An
    S that is not exactly symmetric is refused, as the engine refuses it.

    The fixed start vector is uniform on [-1, 1) by position hash, so unlike
    balanced +-1 signs it is not orthogonal to a constant top eigenvector.
    Each new vector is orthogonalised twice against the whole basis; at
    rounding level (n * eps ||S v_j||) the Krylov space is invariant and the
    steps stop. Fixed-order ``np.einsum`` reductions ignore the BLAS threads.
    """
    if not S.is_symmetric():
        raise ValueError("estimate_spectral_norm requires a square symmetric matrix; estimate a "
                         "rectangular or asymmetric one's largest singular value on its dilation "
                         "(dilate)")
    if S.nnz == 0:
        return 0.0
    n = S.n_rows
    k = min(NORM_STEPS, n)
    V = np.empty((k + 1, n))  # the Krylov basis; row j + 1 is built in place
    h = _mix64(np.arange(n, dtype=np.uint64) ^ np.uint64(fold_seed(0, _NORM_SEED_TAG)))
    v = (h >> np.uint64(11)) * 2.0**-52 - 1.0  # 53 high bits, uniform on [-1, 1)
    V[0] = v / math.sqrt(np.einsum("i,i->", v, v))
    alpha, beta = [], []
    for j in range(k):
        basis = V[: j + 1]
        w = spmv_multi(S, V[j], out=V[j + 1])
        sv_norm = math.sqrt(np.einsum("i,i->", w, w))
        c = np.einsum("ij,j->i", basis, w)
        alpha.append(float(c[j]))  # v_j . S v_j
        w -= np.einsum("ij,i->j", basis, c)
        c = np.einsum("ij,j->i", basis, w)  # the second Gram-Schmidt pass
        w -= np.einsum("ij,i->j", basis, c)
        b = math.sqrt(np.einsum("i,i->", w, w))
        if j + 1 == k or b <= n * np.finfo(np.float64).eps * sv_norm:
            break
        beta.append(b)
        w /= b
    T = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
    return NORM_SAFETY * float(np.max(np.abs(np.linalg.eigvalsh(T))))


def block_width(n: int, d: int) -> int:
    """Columns per work unit: as many as keep an n-row float64 block within
    ``BLOCK_BYTES``, at least 8 and at most d. It depends on the shape only,
    never on the worker count."""
    fit = BLOCK_BYTES // (8 * max(n, 1))
    return max(1, min(d, max(8, fit)))


def _check_growth(sq: np.ndarray, bound: float) -> None:
    """Raise DivergenceError where a cascade stage grew a column beyond
    ``bound``. Row 0 of ``sq`` holds the squared column norms of the input
    and row i those of stage i's output.

    With ||S|| <= 1, |p_r(x)| <= 1 on the spectrum, so no stage can grow a
    column by more than sum_r |a_r|. A column norm sums over all n rows, so a
    norm above 1 whose excess grows only a few rows can pass. NaN or inf fails.
    """
    limit = (bound * (1.0 + GROWTH_SLACK)) ** 2
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for stage in range(1, len(sq)):
            in_sq, out_sq = sq[stage - 1], sq[stage]
            bad = ~(out_sq <= limit * in_sq) | ~np.isfinite(out_sq)
            if bad.any():
                growth = math.sqrt(np.max(out_sq[bad] / in_sq[bad]))
                raise DivergenceError(
                    f"cascade stage {stage} grew columns {np.flatnonzero(bad).tolist()} "
                    f"by up to {growth:.3g}x, above the bound sum|a_r| = {bound:.3g}; the "
                    "matrix likely has spectral norm > 1 - rescale it "
                    "(estimate_spectral_norm) and retry"
                )


def _apply_cascade(
    S: SparseMatrix,
    expansion: LegendreExpansion,
    d: int,
    seed: int,
    *,
    stages: int,
    width: int,
    n_workers: int,
) -> tuple[np.ndarray, int]:
    """Apply ``expansion`` ``stages`` times to the n x d projection, one
    column block at a time: stage i+1 of a column needs only stage i of the
    same column.

    Returns the result and the products each block made. Each stage is one
    :func:`~csemb.legendre.legendre_sum` whose step counts the block's
    products and whose weighted add is the worker's
    :func:`~csemb.sparse.weighted_adders` function. Every block must make
    exactly ``stages * expansion.order`` products (the paper's L), or
    ``RuntimeError`` is raised; then every stage must pass
    :func:`_check_growth`. The recursion runs to the end without
    floating-point warnings; a term that overflows is left to the guard.
    Each block draws its columns of the projection of ``seed`` into its
    worker's stage input, with the idle acc buffer as hash scratch. Each
    stage's output becomes the next stage's input by swapping the two
    buffers.
    """
    n = S.n_rows
    out = np.empty((n, d))
    spans = [(lo, min(lo + width, d)) for lo in range(0, d, width)]
    workers = max(1, min(n_workers, len(spans)))
    coeffs = expansion.coeffs
    sq = np.empty((stages + 1, d))  # squared column norms of Omega and each stage
    # One workspace per worker, allocated here and reused by all its blocks
    # and stages: the stage input, the recursion's spare term and acc.
    # A narrower last block takes a contiguous prefix of each buffer.
    spaces = np.empty((workers, 3, n * width))
    adders = weighted_adders(n, workers)
    row_codes = np.arange(n, dtype=np.uint64) * np.uint64(d)  # so draws allocate nothing

    def run(span, space, add):
        lo, hi = span
        piece, spare, acc = (buf[: n * (hi - lo)].reshape(n, hi - lo) for buf in space)
        _draw_signs(piece, seed, d, row_codes, lo, acc.view(np.uint64))
        products = 0

        def step(x, into):
            nonlocal products
            products += 1
            spmv_multi(S, x, out=into, accumulate=True)

        with np.errstate(over="ignore", invalid="ignore"):
            np.einsum("ij,ij->j", piece, piece, out=sq[0, lo:hi])
            for stage in range(1, stages + 1):
                legendre_sum(step, add, coeffs, piece, spare, acc)
                np.einsum("ij,ij->j", acc, acc, out=sq[stage, lo:hi])
                piece, acc = acc, piece
        out[:, lo:hi] = piece
        return products

    def work(k):
        return [run(span, spaces[k], adders[k]) for span in spans[k::workers]]

    with ThreadPoolExecutor(max_workers=workers) as pool:
        counts = [c for part in pool.map(work, range(workers)) for c in part]
    expected = stages * expansion.order
    if any(c != expected for c in counts):
        raise RuntimeError(
            f"column blocks made {counts} products; each must make exactly {expected}"
        )
    _check_growth(sq, float(np.sum(np.abs(coeffs))))
    return out, max(counts, default=0)


def fast_embed_cascaded(
    S: SparseMatrix,
    f,
    cfg: EmbedConfig,
    *,
    n_workers: int = 1,
) -> EmbeddingMatrix:
    """Embed the rows of a symmetric S (||S|| <= 1) as f_L(S) @ Omega, by b
    cascade stages of order L/b applied to the signed b-th root of f (the
    product is |f|_L(S) @ Omega when b is even and f takes negative values).

    ``f`` may be a SpectralFunction or a plain callable on [-1, 1]. Omega is
    ``sample_projection(n, cfg.d, cfg.seed)``, drawn block by block in the
    workers and never formed whole. Stage i's output block is stage i+1's
    input block; exactly L/b multi-vector products are performed per stage, L
    in total. Each column block counts its own products and the run fails
    unless every block made L; ``provenance["spmv_products"]`` is that count.
    """
    if not S.is_symmetric():
        raise ValueError("fast_embed_cascaded requires a square symmetric matrix; embed a "
                         "rectangular or asymmetric one as its dilation (dilate)")
    expansion = legendre_coefficients(root_function(f, cfg.b), cfg.stage_order)
    width = block_width(S.n_rows, cfg.d)
    values, products = _apply_cascade(
        S, expansion, cfg.d, cfg.seed, stages=cfg.b, width=width, n_workers=n_workers
    )
    return EmbeddingMatrix(
        values=values,
        provenance={
            "function": describe(f),
            **asdict(cfg),
            "stage_order": cfg.stage_order,
            "block_width": width,
            "spmv_products": products,
            "coeffs_sha256": expansion.digest(),
        },
    )

