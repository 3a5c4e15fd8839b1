"""CSR sparse matrices and the derived constructions used by the embedding pipeline.

The matrix type is a thin immutable CSR container with 64-bit indices; the
multi-vector product delegates to scipy's compiled kernel, which accumulates
each row in stored column order and therefore gives deterministic,
column-subset-consistent output.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as _sp
from scipy.sparse import _sparsetools

GAUSSIAN_DROP_TOL = 1e-12  # kernel entries below this are not stored


def _frozen(a: np.ndarray, dtype) -> np.ndarray:
    """A read-only contiguous array of ``dtype`` holding ``a``'s values. An
    array that is already read-only and owns its data is kept as it is."""
    out = np.ascontiguousarray(a, dtype=dtype)
    if out is a and (out.flags.writeable or not out.flags.owndata):
        out = out.copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class KernelSpec:
    """Pairwise kernel description: ``"gaussian"`` or ``"indicator"`` plus bandwidth."""

    kind: str
    bandwidth: float

    def __post_init__(self):
        if self.kind not in ("gaussian", "indicator"):
            raise ValueError(
                f"unknown kernel kind {self.kind!r}; expected 'gaussian' or 'indicator'"
            )
        if not self.bandwidth > 0:
            raise ValueError("kernel bandwidth must be positive")


@dataclass(frozen=True)
class AffineMap:
    """The map t(x) = x*scale + center returned by :func:`rescale_spectrum`."""

    scale: float
    center: float

    def __call__(self, x):
        return np.asarray(x, dtype=float) * self.scale + self.center


@dataclass(frozen=True)
class SparseMatrix:
    """Immutable CSR matrix.

    Invariants enforced at construction: ``row_offsets`` is non-decreasing
    with ``row_offsets[0] == 0`` and ``row_offsets[-1] == nnz``; column
    indices are strictly increasing within each row and less than ``n_cols``;
    no explicit zeros are stored. Indices are int64 throughout.
    """

    n_rows: int
    n_cols: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.n_rows < 0 or self.n_cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        object.__setattr__(self, "row_offsets", _frozen(self.row_offsets, np.int64))
        object.__setattr__(self, "col_indices", _frozen(self.col_indices, np.int64))
        object.__setattr__(self, "values", _frozen(self.values, np.float64))
        offs, cols, vals = self.row_offsets, self.col_indices, self.values
        nnz = len(vals)
        if offs.shape != (self.n_rows + 1,):
            raise ValueError("row_offsets must have length n_rows + 1")
        if cols.shape != (nnz,):
            raise ValueError("col_indices and values must have equal length")
        if nnz and (offs[0] != 0 or offs[-1] != nnz or np.any(np.diff(offs) < 0)):
            raise ValueError("row_offsets must be non-decreasing from 0 to nnz")
        if not nnz and (offs[0] != 0 or offs[-1] != 0):
            raise ValueError("row_offsets of an empty matrix must be all zero")
        if nnz:
            if cols.min() < 0 or cols.max() >= self.n_cols:
                raise ValueError("column index out of range")
            # strictly increasing within rows: every adjacent pair not split
            # by a row boundary must increase
            interior = np.ones(nnz - 1, dtype=bool)
            bounds = offs[1:-1]
            bounds = bounds[(bounds > 0) & (bounds < nnz)]
            interior[bounds - 1] = False
            if np.any(cols[1:][interior] <= cols[:-1][interior]):
                raise ValueError("column indices must be strictly increasing per row")
            if np.any(vals == 0.0) or not np.all(np.isfinite(vals)):
                raise ValueError("stored values must be finite and nonzero")

    # -- construction -------------------------------------------------------

    @classmethod
    def from_scipy(cls, m) -> "SparseMatrix":
        """Canonicalize any scipy sparse matrix (duplicates summed, zeros dropped)."""
        csr = _sp.csr_array(m)
        csr.sum_duplicates()
        csr.sort_indices()
        csr.eliminate_zeros()
        return cls(csr.shape[0], csr.shape[1], csr.indptr, csr.indices, csr.data)

    @classmethod
    def from_coo(cls, rows, cols, vals, n_rows: int, n_cols: int) -> "SparseMatrix":
        coo = _sp.coo_array(
            (np.asarray(vals, dtype=np.float64), (np.asarray(rows), np.asarray(cols))),
            shape=(n_rows, n_cols),
        )
        return cls.from_scipy(coo)

    @classmethod
    def from_dense(cls, a, tol: float = 0.0) -> "SparseMatrix":
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2:
            raise ValueError("expected a 2-d array")
        mask = np.abs(a) > tol
        rows, cols = np.nonzero(mask)
        return cls.from_coo(rows, cols, a[rows, cols], a.shape[0], a.shape[1])

    @classmethod
    def identity(cls, n: int) -> "SparseMatrix":
        idx = np.arange(n, dtype=np.int64)
        return cls(n, n, np.arange(n + 1, dtype=np.int64), idx, np.ones(n))

    @classmethod
    def zeros(cls, n_rows: int, n_cols: int) -> "SparseMatrix":
        return cls(
            n_rows,
            n_cols,
            np.zeros(n_rows + 1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0),
        )

    # -- views --------------------------------------------------------------

    @property
    def nnz(self) -> int:
        return len(self.values)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    @cached_property
    def _csr(self) -> _sp.csr_array:
        return _sp.csr_array(
            (self.values, self.col_indices, self.row_offsets),
            shape=(self.n_rows, self.n_cols),
        )

    def to_dense(self) -> np.ndarray:
        return self._csr.toarray()


def spmv_multi(S: SparseMatrix, X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Multiply ``S`` with a dense block of column vectors.

    Each output entry is accumulated over the row's stored entries in column
    order, so results are deterministic and each output column depends only
    on the matching input column. With ``out`` (a C-contiguous float64 array
    of the result's shape, not overlapping ``X``) the product is written
    there and ``out`` is returned, so a caller can reuse one buffer.
    """
    X = np.asarray(X, dtype=np.float64)
    squeeze = X.ndim == 1
    if squeeze:
        X = X[:, None]
    if X.ndim != 2 or X.shape[0] != S.n_cols:
        raise ValueError(
            f"dimension mismatch: matrix is {S.n_rows}x{S.n_cols}, block has "
            f"{X.shape[0] if X.ndim == 2 else X.shape} rows"
        )
    shape = (S.n_rows,) if squeeze else (S.n_rows, X.shape[1])
    if out is None:
        out = np.zeros(shape)
    elif not (
        isinstance(out, np.ndarray)
        and out.shape == shape
        and out.dtype == np.float64
        and out.flags.c_contiguous
        and out.flags.writeable
    ):
        raise ValueError(f"out must be a writable C-contiguous float64 array of shape {shape}")
    elif np.may_share_memory(out, X):
        raise ValueError("out must not overlap the input block")
    else:
        out.fill(0.0)
    # scipy's compiled CSR kernels, chosen as ``S._csr @ X`` chooses them
    # (one column takes the vector kernel); both add into the zeroed ``out``
    csr = S._csr
    k = X.shape[1]
    if k == 1:
        _sparsetools.csr_matvec(
            S.n_rows, S.n_cols, csr.indptr, csr.indices, csr.data, X.ravel(), out.ravel()
        )
    elif k > 1:
        _sparsetools.csr_matvecs(
            S.n_rows, S.n_cols, k, csr.indptr, csr.indices, csr.data, X.ravel(), out.ravel()
        )
    return out


def dilate(A: SparseMatrix) -> SparseMatrix:
    """Symmetric (m+n) x (m+n) matrix with A^T in the top-right block and A in
    the bottom-left; the first n indices correspond to columns of ``A``, the
    last m to its rows."""
    if A.n_rows < 1 or A.n_cols < 1:
        raise ValueError("cannot dilate an empty matrix")
    at = A._csr.T.tocsr()
    s = _sp.bmat([[None, at], [A._csr, None]], format="csr")
    return SparseMatrix.from_scipy(s)


def normalized_adjacency(edges, n: int) -> SparseMatrix:
    """Degree-normalized adjacency of an undirected simple graph on ``n`` vertices.

    Edges are pairs ``(u, v)``; duplicates are collapsed and self-loops
    dropped. Each stored entry is 1/sqrt(deg(u) deg(v)), so the spectrum lies
    in [-1, 1]. Isolated vertices keep all-zero rows.
    """
    if n < 1:
        raise ValueError("vertex count must be positive")
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size and (edges.min() < 0 or edges.max() >= n):
        raise ValueError("edge endpoint out of range [0, n)")
    und = simple_edges(edges)
    if len(und) == 0:
        return SparseMatrix.zeros(n, n)
    deg = np.bincount(und.ravel(), minlength=n).astype(np.float64)
    rows = np.concatenate([und[:, 0], und[:, 1]])
    cols = np.concatenate([und[:, 1], und[:, 0]])
    vals = 1.0 / np.sqrt(deg[rows] * deg[cols])
    return SparseMatrix.from_coo(rows, cols, vals, n, n)


def simple_edges(edges) -> np.ndarray:
    """Canonicalize an edge list: drop self-loops, collapse duplicates."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    u, v = edges[:, 0], edges[:, 1]
    keep = u != v
    u, v = u[keep], v[keep]
    if len(u) == 0:
        return np.empty((0, 2), dtype=np.int64)
    return np.unique(np.stack([np.minimum(u, v), np.maximum(u, v)], axis=1), axis=0)


def kernel_matrix(points, spec: KernelSpec) -> SparseMatrix:
    """Pairwise kernel matrix of a point cloud (desk scale; O(l^2) memory).

    Gaussian kernels store exp(-|x_p - x_q|^2 / (2 a^2)) wherever it exceeds
    the drop tolerance; indicator kernels store 1 wherever |x_p - x_q| < a
    (including the diagonal).
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError("expected at least one point")
    sq = np.sum(pts * pts, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (pts @ pts.T)
    d2 = np.maximum(0.5 * (d2 + d2.T), 0.0)
    np.fill_diagonal(d2, 0.0)
    a = spec.bandwidth
    if spec.kind == "gaussian":
        K = np.exp(-d2 / (2.0 * a * a))
        K[K < GAUSSIAN_DROP_TOL] = 0.0
    else:
        K = (d2 < a * a).astype(np.float64)
    return SparseMatrix.from_dense(K)


def rescale_spectrum(
    S: SparseMatrix, sigma_min: float, sigma_max: float
) -> tuple[SparseMatrix, AffineMap]:
    """Affinely map a spectrum known to lie in [sigma_min, sigma_max] into [-1, 1].

    Returns ``S' = 2 S / (sigma_max - sigma_min) - (sigma_max + sigma_min) /
    (sigma_max - sigma_min) * I`` together with the inverse point map
    ``t(x) = x (sigma_max - sigma_min)/2 + (sigma_max + sigma_min)/2``, so a
    weighting function f on the original spectrum becomes f(t(x)) on [-1, 1].
    """
    if S.n_rows != S.n_cols:
        raise ValueError("rescale_spectrum requires a square matrix")
    if not sigma_max > sigma_min:
        raise ValueError("sigma_max must exceed sigma_min")
    span = sigma_max - sigma_min
    shift = (sigma_max + sigma_min) / span
    t = AffineMap(scale=span / 2.0, center=(sigma_max + sigma_min) / 2.0)
    out = S._csr * (2.0 / span) - shift * _sp.identity(S.n_rows, format="csr")
    return SparseMatrix.from_scipy(out), t


def scale_values(S: SparseMatrix, factor: float) -> SparseMatrix:
    """Return ``S * factor`` (used to divide a matrix by its norm estimate)."""
    if factor == 0.0 or not np.isfinite(factor):
        raise ValueError("scale factor must be finite and nonzero")
    values = S.values * factor
    values.setflags(write=False)  # handed over, so the constructor keeps it uncopied
    return SparseMatrix(S.n_rows, S.n_cols, S.row_offsets, S.col_indices, values)
