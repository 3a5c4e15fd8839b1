"""CSR sparse matrices and the derived constructions used by the embedding pipeline.

The matrix type is a thin immutable CSR container with 64-bit indices.
Canonical CSR from (row, column, value) triplets, the transpose, the dense
form and the multi-vector product run the compiled routines of scipy's
``_sparsetools`` extension, in the order ``scipy.sparse`` calls them, so
results carry scipy's bits. The product accumulates each row in stored
column order and therefore gives deterministic, column-subset-consistent
output.

A rectangular A is embedded through its dilation [0 A^T; A 0], a
:class:`Dilation` that holds A alone; its product has the bits of the
explicit dilation's.

The extension is loaded from its file (:func:`load_scipy_extension`), which
does not run the ``scipy.sparse`` package: that package's import costs about
0.3 s of CPU in every process.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass

import numpy as np

GAUSSIAN_DROP_TOL = 1e-12  # kernel entries below this are not stored
SYMMETRY_BLOCK = 1 << 14  # entries is_symmetric transposes at once, on average


def load_scipy_extension(module: str, scipy_dir: str | None = None):
    """scipy's compiled extension ``scipy.<module>`` (``module`` is dotted,
    such as ``"sparse._sparsetools"``), loaded from its file under
    ``scipy_dir`` (by default where scipy is installed, found without running
    the package), so that no package above it runs. Without that file, the
    normal import is used."""
    if scipy_dir is None:
        scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
    name = "scipy." + module
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(scipy_dir, *module.split(".")) + suffix
        if os.path.isfile(path):
            loader = importlib.machinery.ExtensionFileLoader(name, path)
            ext = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
            loader.exec_module(ext)
            return ext
    package, _, leaf = name.rpartition(".")
    importlib.import_module(package)  # as ``from <package> import <leaf>``, which runs it
    return importlib.import_module(name)


_sparsetools = load_scipy_extension("sparse._sparsetools")


def _handed_over(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """Mark arrays that nothing else holds read-only, so the constructor keeps
    them uncopied."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _frozen(a: np.ndarray, dtype) -> np.ndarray:
    """A read-only contiguous array of ``dtype`` holding ``a``'s values. An
    array that is already read-only and owns its data is kept as it is."""
    out = np.ascontiguousarray(a, dtype=dtype)
    if out is a and (out.flags.writeable or not out.flags.owndata):
        out = out.copy()
    out.setflags(write=False)
    return out


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
        if offs[0] != 0 or offs[-1] != nnz or np.any(np.diff(offs) < 0):
            raise ValueError("row_offsets must be non-decreasing from 0 to nnz")
        if nnz:
            if cols.min() < 0 or cols.max() >= self.n_cols:
                raise ValueError("column index out of range")
            # strictly increasing within rows: every adjacent pair not split
            # by a row boundary must increase
            increasing = cols[1:] > cols[:-1]
            bounds = offs[1:-1]
            increasing[bounds[(bounds > 0) & (bounds < nnz)] - 1] = True
            if not increasing.all():
                raise ValueError("column indices must be strictly increasing per row")
            if np.any(vals == 0.0) or not np.all(np.isfinite(vals)):
                raise ValueError("stored values must be finite and nonzero")

    # -- construction -------------------------------------------------------

    @classmethod
    def from_coo(cls, rows, cols, vals, n_rows: int, n_cols: int) -> "SparseMatrix":
        """Canonicalize (row, column, value) triplets: duplicates summed, zeros
        dropped. The steps are scipy's COO-to-CSR conversion: ``coo_tocsr``
        keeps each row's entries in input order, ``csr_sort_indices`` (not a
        stable sort) runs only when some row is out of order, and duplicates
        are summed in the order that leaves. No triplets give the zero matrix."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if not rows.ndim == cols.ndim == vals.ndim == 1 or not len(rows) == len(cols) == len(vals):
            raise ValueError("rows, cols and vals must be 1-d arrays of equal length")
        nnz = len(vals)
        if n_rows < 0 or n_cols < 0:  # before coo_tocsr writes offs[n_rows]
            raise ValueError("matrix dimensions must be non-negative")
        if nnz and (rows.min() < 0 or rows.max() >= n_rows or cols.min() < 0
                    or cols.max() >= n_cols):
            raise ValueError("coordinate index out of range")
        offs = np.empty(n_rows + 1, dtype=np.int64)
        idx = np.empty(nnz, dtype=np.int64)
        data = np.empty(nnz)
        _sparsetools.coo_tocsr(n_rows, n_cols, nnz, rows, cols, vals, offs, idx, data)
        if not _sparsetools.csr_has_sorted_indices(n_rows, offs, idx):
            _sparsetools.csr_sort_indices(n_rows, offs, idx, data)
        _sparsetools.csr_sum_duplicates(n_rows, n_cols, offs, idx, data)
        _sparsetools.csr_eliminate_zeros(n_rows, n_cols, offs, idx, data)
        idx.resize(offs[-1], refcheck=False)  # in place, so the arrays stay owned
        data.resize(offs[-1], refcheck=False)
        return cls(n_rows, n_cols, *_handed_over(offs, idx, data))

    @classmethod
    def from_dense(cls, a) -> "SparseMatrix":
        """Nonzero entries become stored values. NaN and infinities are
        nonzero, so that the constructor refuses them."""
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2:
            raise ValueError("expected a 2-d array")
        rows, cols = np.nonzero(a)
        return cls.from_coo(rows, cols, a[rows, cols], a.shape[0], a.shape[1])

    # -- views --------------------------------------------------------------

    @property
    def nnz(self) -> int:
        return len(self.values)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        _sparsetools.csr_todense(
            self.n_rows, self.n_cols, self.row_offsets, self.col_indices, self.values, out
        )
        return out

    def is_symmetric(self) -> bool:
        """Whether the matrix equals its transpose exactly, pattern and values.

        The rows are transposed a block at a time, and the transpose's CSR
        comes out canonical: its row j lists the entries that row j must hold
        next, in the block's columns. So one O(nnz) pass compares them and
        holds O(n + SYMMETRY_BLOCK) more at once; a whole transpose would
        hold 2 nnz, 2 n^2 for a dense pattern."""
        if self.n_rows != self.n_cols:
            return False
        n, offs, cols, vals = self.n_rows, self.row_offsets, self.col_indices, self.values
        start = offs[:-1].copy()  # where each row's entries in the next block's columns begin
        step = max(1, max(SYMMETRY_BLOCK, n) * n // max(self.nnz, 1))  # rows per block
        for r0 in range(0, n, step):
            r1 = min(r0 + step, n)
            k0, k1 = offs[r0], offs[r1]
            t_offs, t_cols, t_vals = _transpose(
                r1 - r0, n, offs[r0 : r1 + 1] - k0, cols[k0:k1], vals[k0:k1]
            )
            counts = np.diff(t_offs)
            if np.any(start + counts > offs[1:]):
                return False
            at = np.repeat(start - t_offs[:-1], counts) + np.arange(k1 - k0)
            if not (np.array_equal(cols[at], t_cols + r0) and np.array_equal(vals[at], t_vals)):
                return False
            start += counts
        return True


def _transpose(n_rows: int, n_cols: int, offs, cols, vals) -> tuple[np.ndarray, ...]:
    """CSR arrays (offsets, columns, values) of the transpose of the CSR
    matrix ``(offs, cols, vals)``. ``csr_tocsc`` visits the rows in order, so
    each row of the result is sorted."""
    t_offs = np.empty(n_cols + 1, dtype=np.int64)
    t_cols = np.empty(len(vals), dtype=np.int64)
    t_vals = np.empty(len(vals))
    _sparsetools.csr_tocsc(n_rows, n_cols, offs, cols, vals, t_offs, t_cols, t_vals)
    return t_offs, t_cols, t_vals


def spmv_multi(S: SparseMatrix | Dilation, X: np.ndarray, out: np.ndarray | None = None, *,
               accumulate: bool = False) -> np.ndarray:
    """Multiply ``S`` with a dense block of column vectors.

    Each output entry is accumulated over the row's stored entries in column
    order, so results are deterministic and each output column depends only
    on the matching input column. With ``out`` (a C-contiguous float64 array
    of the result's shape, not overlapping ``X``) the product is written
    there and ``out`` is returned, so a caller can reuse one buffer. With
    ``accumulate=True`` the product is added to what ``out`` holds instead,
    ``out += S @ X`` without a temporary.
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
        if accumulate:
            raise ValueError("accumulate=True needs an out buffer to add into")
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
    elif not accumulate:
        out.fill(0.0)
    if isinstance(S, Dilation):
        # the top n rows add A^T X[n:], the bottom m rows A X[:n]. The CSC
        # kernel visits A's rows in ascending order, the order in which the
        # explicit dilation stores each of its top rows, so every row adds
        # the same products in the same order and the bits are the same
        n = S.A.n_cols
        _add_product("csc", S.A, X[n:], out[:n])
        _add_product("csr", S.A, X[:n], out[n:])
    else:
        _add_product("csr", S, X, out)
    return out


def _add_product(kind: str, A: SparseMatrix, x: np.ndarray, y: np.ndarray) -> None:
    """``y += A @ x`` (``kind`` "csr") or ``y += A^T @ x`` ("csc": A's CSR
    arrays read as A^T's CSC form) by scipy's kernel, for a block ``x`` of k
    columns. One column takes ``*_matvec``, for speed, with equal bits: on the
    embed-dilation input's A (125k entries), csc_matvec took 0.25 ms to
    csc_matvecs' 0.43 ms, and the Lanczos norm estimate makes 40 such products."""
    shape = A.shape if kind == "csr" else A.shape[::-1]
    arrays = (A.row_offsets, A.col_indices, A.values)
    k = x.shape[1]
    if k == 1:
        getattr(_sparsetools, kind + "_matvec")(*shape, *arrays, x.ravel(), y.ravel())
    elif k > 1:
        getattr(_sparsetools, kind + "_matvecs")(*shape, k, *arrays, x.ravel(), y.ravel())


_SCALAR_PATTERN = np.array([0, 1], dtype=np.int64)  # a 1 x 1 matrix's offsets; [:1], its column


def weighted_add(term: np.ndarray, weight: float, acc: np.ndarray) -> None:
    """``acc += weight * term`` in place, for arrays of one shape (``acc``
    C-contiguous float64). The add is scipy's ``csr_matvecs`` on the 1 x 1
    matrix ``[weight]`` with the entries as one row of ``acc.size`` vectors,
    one ``y += a * x`` over the block: it rounds the product, then the sum
    product + y, as ``np.multiply`` followed by ``np.add`` does, and needs no
    temporary. The int64 pattern makes the kernel count the vectors in int64."""
    if not (term.shape == acc.shape and acc.flags.c_contiguous and acc.dtype == np.float64):
        raise ValueError("term and acc must have one shape, acc a C-contiguous float64 array")
    _sparsetools.csr_matvecs(1, 1, acc.size, _SCALAR_PATTERN, _SCALAR_PATTERN[:1],
                             np.array([weight], dtype=np.float64), term.ravel(), acc.ravel())


@dataclass(frozen=True)
class Dilation:
    """The symmetric (m+n) x (m+n) dilation [0 A^T; A 0] of an m x n matrix
    A, held as A alone: no array of the dilation's 2 nnz entries exists.
    The first n indices correspond to columns of A, the last m to its rows.

    It is read as a matrix is: ``n_rows``, ``n_cols``, ``shape`` and ``nnz``
    are the dilation's, and ``row_offsets``, ``col_indices`` and ``values``
    are A's arrays, the ones :func:`spmv_multi` reads. It is symmetric by
    construction."""

    A: SparseMatrix

    n_rows = n_cols = property(lambda self: self.A.n_rows + self.A.n_cols)
    shape = property(lambda self: (self.n_rows, self.n_cols))
    nnz = property(lambda self: 2 * self.A.nnz)
    row_offsets = property(lambda self: self.A.row_offsets)
    col_indices = property(lambda self: self.A.col_indices)
    values = property(lambda self: self.A.values)

    def is_symmetric(self) -> bool:
        return True

    def to_dense(self) -> np.ndarray:
        n = self.A.n_cols
        out = np.zeros(self.shape)
        out[n:, :n] = self.A.to_dense()
        out[:n, n:] = out[n:, :n].T
        return out


def dilate(A: SparseMatrix) -> Dilation:
    """The dilation [0 A^T; A 0] of A, as an operator over A's own arrays.

    This is how a rectangular A is embedded: estimate nu on the dilation,
    divide it by nu (:func:`scale_values`), and embed it with
    ``odd_extension(f)``. The first n rows of the embedding embed the
    columns of A, the last m its rows."""
    if A.n_rows < 1 or A.n_cols < 1:
        raise ValueError("cannot dilate an empty matrix")
    return Dilation(A)


def normalized_adjacency(edges, n: int) -> SparseMatrix:
    """Degree-normalized adjacency of an undirected simple graph on ``n`` vertices.

    Edges are pairs ``(u, v)``; duplicates are collapsed and self-loops
    dropped. Each stored entry is 1/sqrt(deg(u) deg(v)), so the spectrum lies
    in [-1, 1]. Isolated vertices keep all-zero rows. The pattern, built by
    :meth:`SparseMatrix.from_coo` from both orientations of each edge, is the
    graph's one canonical edge set, and row u's length is deg(u).
    """
    offs, cols = adjacency_pattern(edges, n)
    deg = np.diff(offs)
    vals = np.repeat(deg.astype(np.float64), deg)  # deg(u) for each entry (u, v)
    vals *= deg[cols]
    np.divide(1.0, np.sqrt(vals, out=vals), out=vals)
    return SparseMatrix(n, n, offs, cols, *_handed_over(vals))


def adjacency_pattern(edges, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The row offsets and column indices of :func:`normalized_adjacency`,
    without its values."""
    if n < 1:
        raise ValueError("vertex count must be positive")
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size and (edges.min() < 0 or edges.max() >= n):
        raise ValueError("edge endpoint out of range [0, n)")
    edges = edges[edges[:, 0] != edges[:, 1]]
    pattern = SparseMatrix.from_coo(edges.T.ravel(), edges[:, ::-1].T.ravel(),
                                    np.ones(2 * len(edges)), n, n)
    return pattern.row_offsets, pattern.col_indices


def kernel_matrix(points, kind: str, bandwidth: float) -> SparseMatrix:
    """Pairwise kernel matrix of a point cloud (desk scale; O(l^2) memory).

    A ``"gaussian"`` kernel stores exp(-|x_p - x_q|^2 / (2 a^2)) wherever it
    exceeds the drop tolerance; an ``"indicator"`` kernel stores 1 wherever
    |x_p - x_q| < a (including the diagonal). The bandwidth a must be positive.
    """
    if kind not in ("gaussian", "indicator"):
        raise ValueError(f"unknown kernel kind {kind!r}; expected 'gaussian' or 'indicator'")
    if not bandwidth > 0:
        raise ValueError("kernel bandwidth must be positive")
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError("expected at least one point")
    sq = np.sum(pts * pts, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (pts @ pts.T)
    d2 = np.maximum(0.5 * (d2 + d2.T), 0.0)
    np.fill_diagonal(d2, 0.0)
    if kind == "gaussian":
        K = np.exp(-d2 / (2.0 * bandwidth * bandwidth))
        K[K < GAUSSIAN_DROP_TOL] = 0.0
    else:
        K = (d2 < bandwidth * bandwidth).astype(np.float64)
    return SparseMatrix.from_dense(K)


def scale_values(S: SparseMatrix | Dilation, factor: float) -> SparseMatrix | Dilation:
    """Return ``S * factor`` (used to divide a matrix by its norm estimate).
    A dilation scales A's values, once."""
    if factor == 0.0 or not np.isfinite(factor):
        raise ValueError("scale factor must be finite and nonzero")
    if isinstance(S, Dilation):
        return Dilation(scale_values(S.A, factor))
    values = S.values * factor
    return SparseMatrix(S.n_rows, S.n_cols, S.row_offsets, S.col_indices, *_handed_over(values))
