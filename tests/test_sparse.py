import tracemalloc

import numpy as np
import pytest
import scipy.sparse

import csemb.sparse
from csemb import (
    SparseMatrix,
    dilate,
    kernel_matrix,
    normalized_adjacency,
    scale_values,
    spmv_multi,
)
from csemb.sparse import SYMMETRY_BLOCK, weighted_add
from helpers import explicit_dilation, random_symmetric, run_python


def _scipy_csr(S: SparseMatrix) -> scipy.sparse.csr_array:
    """scipy's CSR view of ``S``'s own arrays, the reference for the kernel calls."""
    return scipy.sparse.csr_array((S.values, S.col_indices, S.row_offsets), shape=S.shape)


class TestSparseMatrix:
    def test_invariants_rejected(self):
        # unsorted columns within a row
        with pytest.raises(ValueError):
            SparseMatrix(1, 3, [0, 2], [2, 0], [1.0, 1.0])
        # explicit zero
        with pytest.raises(ValueError):
            SparseMatrix(1, 2, [0, 1], [0], [0.0])
        # bad offsets
        with pytest.raises(ValueError):
            SparseMatrix(2, 2, [0, 2, 1], [0, 1], [1.0, 1.0])
        # column out of range
        with pytest.raises(ValueError):
            SparseMatrix(1, 2, [0, 1], [5], [1.0])
        # decreasing offsets of an empty matrix, which the kernels would
        # read as a negative row length
        with pytest.raises(ValueError, match="non-decreasing"):
            SparseMatrix(2, 2, [0, 1, 0], [], [])

    def test_indices_are_int64(self):
        m = SparseMatrix.from_dense(np.eye(3))
        assert m.row_offsets.dtype == np.int64
        assert m.col_indices.dtype == np.int64

    def test_immutable(self):
        m = SparseMatrix.from_dense(np.eye(3))
        with pytest.raises(ValueError):
            m.values[0] = 2.0

    def test_round_trip_dense(self):
        rng = np.random.default_rng(0)
        a = random_symmetric(20, rng, density=0.3, spectral_norm=None)
        assert np.array_equal(SparseMatrix.from_dense(a).to_dense(), a)

    def test_duplicates_summed_in_coo(self):
        m = SparseMatrix.from_coo([0, 0], [1, 1], [2.0, 3.0], 2, 2)
        assert m.nnz == 1
        assert m.to_dense()[0, 1] == 5.0

    @pytest.mark.parametrize("block", [1, 5, SYMMETRY_BLOCK])
    def test_is_symmetric_as_dense_transpose(self, monkeypatch, block):
        # the rows are transposed a block at a time; every block size gives
        # the dense answer, for asymmetric patterns and values alike
        monkeypatch.setattr(csemb.sparse, "SYMMETRY_BLOCK", block)
        rng = np.random.default_rng(block)
        answers = set()
        for _ in range(300):
            n = int(rng.integers(0, 9))
            m = n if rng.random() < 0.9 else int(rng.integers(0, 9))
            a = (rng.random((n, m)) < rng.random()) * rng.integers(1, 3, (n, m)).astype(float)
            if n == m and rng.random() < 0.7:
                a = np.triu(a) + np.triu(a, 1).T
                if n and rng.random() < 0.4:
                    i, j = rng.integers(0, n, 2)
                    a[i, j] = rng.integers(0, 3)
            expected = n == m and np.array_equal(a, a.T)
            answers.add(expected)
            assert SparseMatrix.from_dense(a).is_symmetric() == expected
        assert answers == {True, False}

    def test_is_symmetric_peak_memory(self):
        # a whole transpose held two n x n arrays for a dense pattern
        n = 1500
        S = SparseMatrix.from_dense(random_symmetric(n, np.random.default_rng(2)))
        tracemalloc.start()
        try:
            assert S.is_symmetric()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * n * n * 8

    @pytest.mark.parametrize("presorted", [False, True], ids=["unsorted", "presorted"])
    def test_from_coo_same_bits_as_scipy(self, presorted):
        # rows of about 400 entries over 30 columns: the row sort is then not an
        # insertion sort, and the sum of each run of duplicates depends on
        # the order it is added in
        rng = np.random.default_rng(11)
        rows, cols = rng.integers(0, 2, 800), rng.integers(0, 30, 800)
        vals = rng.standard_normal(800)
        if presorted:
            order = np.lexsort((cols, rows))
            rows, cols, vals = rows[order], cols[order], vals[order]
        S = SparseMatrix.from_coo(rows, cols, vals, 2, 30)
        ref = scipy.sparse.csr_array(scipy.sparse.coo_array((vals, (rows, cols)), shape=(2, 30)))
        ref.sum_duplicates()
        ref.sort_indices()
        ref.eliminate_zeros()
        assert np.array_equal(S.row_offsets, ref.indptr)
        assert np.array_equal(S.col_indices, ref.indices)
        assert S.values.tobytes() == ref.data.tobytes()

    @pytest.mark.parametrize("rows, cols", [([2], [0]), ([0], [2]), ([-1], [0]), ([0], [-1])])
    def test_from_coo_index_out_of_range(self, rows, cols):
        with pytest.raises(ValueError, match="out of range"):
            SparseMatrix.from_coo(rows, cols, [1.0], 2, 2)

    @pytest.mark.parametrize("shape", [(-1, 3), (3, -1)])
    def test_from_coo_refuses_negative_dimensions(self, shape):
        # without entries no index is checked, and coo_tocsr would write
        # offs[n_rows] into an empty offset array
        with pytest.raises(ValueError, match="non-negative"):
            SparseMatrix.from_coo([], [], [], *shape)

    @pytest.mark.parametrize("shape", [(0, 0), (3, 4), (5, 5)])
    def test_from_coo_without_entries(self, shape):
        # the arrays of a zero matrix built directly: int64 zero offsets,
        # empty int64 columns and float64 values, all read-only
        S = SparseMatrix.from_coo([], [], [], *shape)
        assert S.shape == shape and S.nnz == 0
        expected = (np.zeros(shape[0] + 1, dtype=np.int64), np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=np.float64))
        for got, want in zip((S.row_offsets, S.col_indices, S.values), expected):
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert not got.flags.writeable

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_from_dense_refuses_non_finite(self, bad):
        # |nan| > tol is False, so a mask on it would drop a NaN silently
        with pytest.raises(ValueError, match="finite"):
            SparseMatrix.from_dense(np.array([[bad, 1.0], [1.0, 0.0]]))


# a 50 x 50 symmetric matrix, the dilation D of a 30 x 20 matrix, and a
# block of four columns, built in a subprocess
_OPERAND = """
import sys
import numpy as np
from csemb import SparseMatrix, dilate, spmv_multi
rng = np.random.default_rng(7)
a = rng.standard_normal((50, 50)) * (rng.random((50, 50)) < 0.15)
S = SparseMatrix.from_dense(a + a.T)
D = dilate(SparseMatrix.from_dense(rng.standard_normal((30, 20)) * (rng.random((30, 20)) < 0.3)))
X = rng.standard_normal((50, 4))
"""


class TestSparsetoolsLoader:
    def test_forced_fallback_same_bits(self, tmp_path):
        # no extension file under tmp_path, so the loader imports scipy.sparse
        code = _OPERAND + f"""
import csemb.sparse
assert "scipy.sparse" not in sys.modules
by_file = spmv_multi(S, X), spmv_multi(S, X[:, 0]), spmv_multi(D, X), spmv_multi(D, X[:, 0])
csemb.sparse._sparsetools = csemb.sparse.load_scipy_extension(
    "sparse._sparsetools", {str(tmp_path)!r}
)
assert "scipy.sparse" in sys.modules
assert np.array_equal(spmv_multi(S, X), by_file[0])
assert np.array_equal(spmv_multi(S, X[:, 0]), by_file[1])
assert np.array_equal(spmv_multi(D, X), by_file[2])
assert np.array_equal(spmv_multi(D, X[:, 0]), by_file[3])
print("ok")
"""
        assert run_python(code) == "ok"

    @pytest.mark.parametrize("scipy_first", [True, False], ids=["scipy-first", "csemb-first"])
    def test_scipy_sparse_imported_in_either_order(self, scipy_first):
        first = "import scipy.sparse\n" if scipy_first else ""
        code = first + _OPERAND + f"""
assert ("scipy.sparse" in sys.modules) == {scipy_first}
import scipy.sparse as sp
ref = sp.csr_array((S.values, S.col_indices, S.row_offsets), shape=S.shape)
assert np.array_equal(spmv_multi(S, X), ref @ X)
assert np.array_equal(S.to_dense(), ref.T.tocsr().toarray())
print("ok")
"""
        assert run_python(code) == "ok"


class TestSpmv:
    def test_zero_matrix(self):
        S = SparseMatrix.from_coo([], [], [], 3, 4)
        X = np.random.default_rng(1).standard_normal((4, 2))
        assert np.array_equal(spmv_multi(S, X), np.zeros((3, 2)))

    def test_identity(self):
        X = np.random.default_rng(2).standard_normal((3, 2))
        assert np.array_equal(spmv_multi(SparseMatrix.from_dense(np.eye(3)), X), X)

    def test_hand_multiplication(self):
        S = SparseMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.array_equal(spmv_multi(S, np.array([[1.0], [2.0]])), [[2.0], [1.0]])

    def test_dimension_mismatch(self):
        S = SparseMatrix.from_dense(np.eye(3))
        with pytest.raises(ValueError):
            spmv_multi(S, np.zeros((4, 2)))

    def test_linearity(self):
        rng = np.random.default_rng(3)
        S = SparseMatrix.from_dense(random_symmetric(40, rng, density=0.2))
        X = rng.standard_normal((40, 5))
        Y = rng.standard_normal((40, 5))
        a, b = 0.7, -1.3
        lhs = spmv_multi(S, a * X + b * Y)
        rhs = a * spmv_multi(S, X) + b * spmv_multi(S, Y)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(np.linalg.norm(rhs), 1.0)

    @pytest.mark.parametrize("k", [1, 5])
    def test_out_buffer_same_bits(self, k):
        rng = np.random.default_rng(4)
        S = SparseMatrix.from_dense(random_symmetric(40, rng, density=0.2))
        X = rng.standard_normal((40, k))
        out = np.full((40, k), np.nan)  # stale contents must not leak through
        assert spmv_multi(S, X, out=out) is out
        ref = _scipy_csr(S)
        assert np.array_equal(out, ref @ X)
        vec = np.full(40, np.nan)
        assert np.array_equal(spmv_multi(S, X[:, 0], out=vec), ref @ X[:, 0])

    @pytest.mark.parametrize("k", [1, 5])
    def test_accumulate_adds_into_out(self, k):
        rng = np.random.default_rng(5)
        S = SparseMatrix.from_dense(random_symmetric(40, rng, density=0.2))
        X, Y = rng.standard_normal((40, k)), rng.standard_normal((40, k))
        out = Y.copy()
        assert spmv_multi(S, X, out=out, accumulate=True) is out
        ref = _scipy_csr(S)
        assert np.allclose(out, Y + ref @ X, rtol=0.0, atol=1e-13)
        vec = Y[:, 0].copy()
        spmv_multi(S, X[:, 0], out=vec, accumulate=True)
        assert np.allclose(vec, Y[:, 0] + ref @ X[:, 0], rtol=0.0, atol=1e-13)

    def test_accumulate_checks_out(self):
        S = SparseMatrix.from_dense(np.eye(3))
        X = np.ones((3, 2))
        with pytest.raises(ValueError, match="needs an out buffer"):
            spmv_multi(S, X, accumulate=True)
        for bad in (np.empty((3, 3)), np.empty((2, 3)).T, X, X[:, :1]):
            with pytest.raises(ValueError):
                spmv_multi(S, X, out=bad, accumulate=True)

    def test_out_buffer_rejected(self):
        S = SparseMatrix.from_dense(np.eye(3))
        X = np.ones((3, 2))
        for bad in (np.empty((3, 3)), np.empty((3, 2), dtype=np.float32),
                    np.empty((2, 3)).T, X):
            with pytest.raises(ValueError):
                spmv_multi(S, X, out=bad)


_QNAN_PAYLOAD = np.array([0x7FF8_0000_0000_0123, 0xFFF8_0000_0000_0456], dtype=np.uint64)
_SPECIALS = np.concatenate([
    [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1.1e-310, np.inf, -np.inf, np.nan],
    _QNAN_PAYLOAD.view(np.float64),
    [1e300, -1.7e300, 3e-300, -1e-300, 1.0, -0.75, np.pi],
])


class TestWeightedAdd:
    @pytest.mark.parametrize("k", [None, 1, 3, 8, 80])
    @pytest.mark.parametrize("weight", [0.0, -0.0, 5e-324, 1e300, -1.0, -0.3, -2e-300])
    def test_rounds_as_multiply_then_add(self, k, weight):
        # every (term, acc) pair of special values, wrapped onto an n x k block
        # (k None: one 1-d array, as expansion_eval sums); a kernel whose
        # y += a * x fused into one rounding (FMA) fails here. The kernel adds
        # product + y, so where both are NaN the product's payload wins; the
        # reference adds in that order too.
        terms, accs = (a.ravel() for a in np.meshgrid(_SPECIALS, _SPECIALS))
        shape = terms.shape if k is None else (-(-terms.size // k), k)
        term = np.resize(terms, shape)
        acc = np.resize(accs, shape)
        with np.errstate(all="ignore"):
            expected = np.add(np.multiply(term, weight), acc)
        weighted_add(term, weight, acc)
        assert np.array_equal(acc.view(np.uint64), expected.view(np.uint64))

    def test_shapes_checked_before_the_kernel(self):
        # the kernel trusts its sizes, so a mismatch must not reach it
        term = np.ones((4, 2))
        for bad in (np.zeros((2, 4)).T, np.zeros((4, 2), dtype=np.float32), np.zeros((4, 1)),
                    np.zeros((3, 2))):
            with pytest.raises(ValueError, match="one shape"):
                weighted_add(term, 1.0, bad)


class TestScaleValues:
    def test_values_scaled_and_pattern_shared(self):
        S = SparseMatrix.from_dense(np.array([[0.0, 2.0], [2.0, -4.0]]))
        T = scale_values(S, 0.5)
        assert np.array_equal(T.to_dense(), [[0.0, 1.0], [1.0, -2.0]])
        # the pattern arrays are frozen and owned, so they are not copied
        assert np.shares_memory(T.col_indices, S.col_indices)
        assert np.shares_memory(T.row_offsets, S.row_offsets)
        assert not T.values.flags.writeable

    def test_writable_input_is_copied(self):
        cols = np.array([1, 0])
        S = SparseMatrix(2, 2, np.array([0, 1, 2]), cols, np.array([1.0, 1.0]))
        assert not np.shares_memory(S.col_indices, cols)


class TestDilate:
    def test_scalar(self):
        A = SparseMatrix.from_dense(np.array([[2.5]]))
        assert np.array_equal(dilate(A).to_dense(), [[0.0, 2.5], [2.5, 0.0]])

    def test_zero_block(self):
        A = SparseMatrix.from_coo([], [], [], 2, 3)
        S = dilate(A)
        assert S.shape == (5, 5) and S.nnz == 0

    def test_block_layout(self):
        # first n indices are columns of A, last m its rows
        a = np.arange(1, 7, dtype=float).reshape(2, 3)
        S = dilate(SparseMatrix.from_dense(a)).to_dense()
        assert np.array_equal(S[:3, 3:], a.T)
        assert np.array_equal(S[3:, :3], a)
        assert np.array_equal(S[:3, :3], np.zeros((3, 3)))

    def test_symmetric_and_nnz(self):
        rng = np.random.default_rng(4)
        A = SparseMatrix.from_dense(rng.standard_normal((5, 3)))
        S = dilate(A)
        assert S.nnz == 2 * A.nnz
        assert np.array_equal(S.to_dense(), S.to_dense().T)

    def test_eigenvalues_are_signed_singular_values(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((5, 3))
        ev = np.sort(np.linalg.eigvalsh(dilate(SparseMatrix.from_dense(A)).to_dense()))
        sv = np.linalg.svd(A, compute_uv=False)
        expected = np.sort(np.concatenate([sv, -sv, np.zeros(2)]))
        assert np.abs(ev - expected).max() <= 1e-8

    @staticmethod
    def _random_input(seed: int) -> np.ndarray:
        # random shapes and densities, so that some rows and columns are empty
        rng = np.random.default_rng(seed)
        m, n = (int(k) for k in rng.integers(1, 40, size=2))
        a = rng.standard_normal((m, n)) * (rng.random((m, n)) < rng.uniform(0.02, 0.3))
        a[rng.integers(0, m)] = 0.0
        a[:, rng.integers(0, n)] = 0.0
        return a

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_scipy_bmat(self, seed):
        a = self._random_input(seed)
        ref = scipy.sparse.bmat(
            [[None, scipy.sparse.csr_matrix(a).T], [scipy.sparse.csr_matrix(a), None]],
            format="csr",
        )
        assert np.array_equal(dilate(SparseMatrix.from_dense(a)).to_dense(), ref.toarray())

    @pytest.mark.parametrize("k", [1, 5])
    @pytest.mark.parametrize("seed", [*range(6), "zero", "scalar"])
    def test_product_matches_explicit_dilation(self, seed, k):
        # the CSC and CSR kernels on A's arrays give the bits of the explicit
        # 2 nnz-entry dilation's product, written and added into out
        if seed == "zero":
            a = np.zeros((4, 3))
        elif seed == "scalar":
            a = np.array([[-1.5]])
        else:
            a = self._random_input(seed)
        A = SparseMatrix.from_dense(a)
        D, E = dilate(A), explicit_dilation(A)
        assert D.shape == E.shape and D.nnz == E.nnz
        rng = np.random.default_rng(len(a))
        X = rng.standard_normal((D.n_rows, k))
        Y = rng.standard_normal((D.n_rows, k))
        assert np.array_equal(spmv_multi(D, X), spmv_multi(E, X))
        assert np.array_equal(spmv_multi(D, X[:, 0]), spmv_multi(E, X[:, 0]))
        got, want = Y.copy(), Y.copy()
        spmv_multi(D, X, out=got, accumulate=True)
        spmv_multi(E, X, out=want, accumulate=True)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_arrays_handed_over_uncopied(self):
        # the operator holds A's arrays themselves, and scaling it allocates
        # one array of A's values besides the constructor's checks
        rng = np.random.default_rng(6)
        m, n, nnz = 12_500, 6_250, 125_000
        A = SparseMatrix.from_coo(
            rng.integers(0, m, nnz), rng.integers(0, n, nnz), rng.standard_normal(nnz), m, n
        )
        tracemalloc.start()
        try:
            S = dilate(A)
            _, built = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            T = scale_values(S, 0.5)
            _, scaled = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert built < 8 * (m + n)
        for got, held in [(S.row_offsets, A.row_offsets), (S.col_indices, A.col_indices),
                          (S.values, A.values)]:
            assert np.shares_memory(got, held)
        assert S.nnz == 2 * A.nnz and T.nnz == S.nnz
        assert np.shares_memory(T.col_indices, A.col_indices)
        assert not np.shares_memory(T.values, A.values) and np.array_equal(T.values, A.values / 2)
        assert A.values.nbytes <= scaled < 1.5 * A.values.nbytes


class TestNormalizedAdjacency:
    def test_single_edge(self):
        m = normalized_adjacency([(0, 1)], 2)
        assert np.array_equal(m.to_dense(), [[0.0, 1.0], [1.0, 0.0]])

    def test_triangle(self):
        m = normalized_adjacency([(0, 1), (1, 2), (0, 2)], 3).to_dense()
        off = m[np.triu_indices(3, 1)]
        assert np.allclose(off, 0.5)
        lam = np.sort(np.linalg.eigvalsh(m))
        assert np.allclose(lam, [-0.5, -0.5, 1.0], atol=1e-12)

    def test_isolated_vertex(self):
        m = normalized_adjacency([(0, 1)], 3).to_dense()
        assert np.all(m[2] == 0) and np.all(m[:, 2] == 0)

    def test_duplicates_and_self_loops(self):
        m = normalized_adjacency([(0, 1), (1, 0), (0, 1), (2, 2)], 3)
        assert m.nnz == 2  # one undirected edge stored symmetrically
        assert np.all(m.to_dense()[2] == 0)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            normalized_adjacency([(0, 5)], 3)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_spectral_radius_at_most_one(self, seed):
        rng = np.random.default_rng(seed)
        n = 30
        edges = rng.integers(0, n, size=(120, 2))
        m = normalized_adjacency(edges, n).to_dense()
        assert np.abs(np.linalg.eigvalsh(m)).max() <= 1.0 + 1e-9


class TestAdjacencyPattern:
    """The adjacency's CSR pattern is the graph's canonical edge set: its
    upper triangle lists the distinct pairs, and any list with the same pairs
    gives the same arrays."""

    @staticmethod
    def _reference(edges):
        e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        e = e[e[:, 0] != e[:, 1]]
        if len(e) == 0:
            return np.empty((0, 2), dtype=np.int64)
        return np.unique(np.sort(e, axis=1), axis=0)

    def _check(self, edges, n):
        S = normalized_adjacency(edges, n)
        canonical = normalized_adjacency(self._reference(edges), n)
        for got, want in zip(
            (S.row_offsets, S.col_indices, S.values),
            (canonical.row_offsets, canonical.col_indices, canonical.values),
        ):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        rows = np.repeat(np.arange(n), np.diff(S.row_offsets))
        upper = rows < S.col_indices
        assert np.array_equal(np.stack([rows[upper], S.col_indices[upper]], axis=1),
                              self._reference(edges))

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_row_unique(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 60))
        edges = rng.integers(0, n, size=(int(rng.integers(1, 400)), 2))
        # every edge again, reversed, and some self-loops
        loops = np.repeat(rng.integers(0, n, size=(5, 1)), 2, axis=1)
        edges = np.concatenate([edges, edges[:, ::-1], loops])
        edges = edges[rng.permutation(len(edges))]
        self._check(edges, n)

    @pytest.mark.parametrize(
        "edges",
        [[(3, 1)], [(1, 3), (3, 1), (1, 3)], [(2, 2)], [(0, 0), (4, 4)], np.empty((0, 2))],
    )
    def test_small_cases(self, edges):
        self._check(edges, 5)

    def test_negative_endpoint(self):
        with pytest.raises(ValueError, match="out of range"):
            normalized_adjacency([(-1, 2)], 3)


class TestKernelMatrix:
    def test_gaussian_diagonal_one(self):
        pts = np.random.default_rng(6).standard_normal((5, 3))
        K = kernel_matrix(pts, "gaussian", 1.0).to_dense()
        assert np.allclose(np.diag(K), 1.0)
        assert np.array_equal(K, K.T)

    def test_gaussian_value(self):
        pts = np.array([[0.0], [2.0 ** 0.5]])  # distance a*sqrt(2) with a=1
        K = kernel_matrix(pts, "gaussian", 1.0).to_dense()
        assert abs(K[0, 1] - np.exp(-1.0)) <= 1e-12

    def test_gaussian_drop_tolerance(self):
        pts = np.array([[0.0], [100.0]])
        K = kernel_matrix(pts, "gaussian", 1.0)
        assert K.nnz == 2  # only the diagonal survives

    def test_indicator(self):
        pts = np.array([[0.0], [0.5], [3.0]])
        K = kernel_matrix(pts, "indicator", 1.0).to_dense()
        assert K[0, 1] == 1.0 and K[0, 2] == 0.0
        assert np.all(np.diag(K) == 1.0)

    def test_bad_bandwidth(self):
        with pytest.raises(ValueError):
            kernel_matrix(np.zeros((2, 1)), "gaussian", 0.0)
        with pytest.raises(ValueError):
            kernel_matrix(np.zeros((2, 1)), "sinc", 1.0)
