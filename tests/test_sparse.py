import numpy as np
import pytest

from csemb import (
    KernelSpec,
    SparseMatrix,
    dilate,
    kernel_matrix,
    normalized_adjacency,
    rescale_spectrum,
    scale_values,
    spmv_multi,
)
from helpers import random_symmetric


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


class TestSpmv:
    def test_zero_matrix(self):
        S = SparseMatrix.zeros(3, 4)
        X = np.random.default_rng(1).standard_normal((4, 2))
        assert np.array_equal(spmv_multi(S, X), np.zeros((3, 2)))

    def test_identity(self):
        X = np.random.default_rng(2).standard_normal((3, 2))
        assert np.array_equal(spmv_multi(SparseMatrix.identity(3), X), X)

    def test_hand_multiplication(self):
        S = SparseMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.array_equal(spmv_multi(S, np.array([[1.0], [2.0]])), [[2.0], [1.0]])

    def test_dimension_mismatch(self):
        S = SparseMatrix.identity(3)
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
        assert np.array_equal(out, S._csr @ X)
        vec = np.full(40, np.nan)
        assert np.array_equal(spmv_multi(S, X[:, 0], out=vec), S._csr @ X[:, 0])

    def test_out_buffer_rejected(self):
        S = SparseMatrix.identity(3)
        X = np.ones((3, 2))
        for bad in (np.empty((3, 3)), np.empty((3, 2), dtype=np.float32),
                    np.empty((2, 3)).T, X):
            with pytest.raises(ValueError):
                spmv_multi(S, X, out=bad)


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
        A = SparseMatrix.zeros(2, 3)
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


class TestKernelMatrix:
    def test_gaussian_diagonal_one(self):
        pts = np.random.default_rng(6).standard_normal((5, 3))
        K = kernel_matrix(pts, KernelSpec("gaussian", 1.0)).to_dense()
        assert np.allclose(np.diag(K), 1.0)
        assert np.array_equal(K, K.T)

    def test_gaussian_value(self):
        pts = np.array([[0.0], [2.0 ** 0.5]])  # distance a*sqrt(2) with a=1
        K = kernel_matrix(pts, KernelSpec("gaussian", 1.0)).to_dense()
        assert abs(K[0, 1] - np.exp(-1.0)) <= 1e-12

    def test_gaussian_drop_tolerance(self):
        pts = np.array([[0.0], [100.0]])
        K = kernel_matrix(pts, KernelSpec("gaussian", 1.0))
        assert K.nnz == 2  # only the diagonal survives

    def test_indicator(self):
        pts = np.array([[0.0], [0.5], [3.0]])
        K = kernel_matrix(pts, KernelSpec("indicator", 1.0)).to_dense()
        assert K[0, 1] == 1.0 and K[0, 2] == 0.0
        assert np.all(np.diag(K) == 1.0)

    def test_bad_bandwidth(self):
        with pytest.raises(ValueError):
            KernelSpec("gaussian", 0.0)
        with pytest.raises(ValueError):
            KernelSpec("sinc", 1.0)


class TestRescaleSpectrum:
    def test_already_normalized_is_identity(self):
        rng = np.random.default_rng(7)
        S = SparseMatrix.from_dense(random_symmetric(10, rng))
        out, t = rescale_spectrum(S, -1.0, 1.0)
        assert np.array_equal(out.values, S.values)
        assert t(0.37) == 0.37

    def test_diag_example(self):
        S = SparseMatrix.from_dense(np.diag([0.0, 2.0]))
        out, _ = rescale_spectrum(S, 0.0, 2.0)
        assert np.allclose(out.to_dense(), np.diag([-1.0, 1.0]))

    def test_affine_endpoints(self):
        _, t = rescale_spectrum(SparseMatrix.identity(3), -0.3, 1.7)
        assert np.isclose(t(1.0), 1.7) and np.isclose(t(-1.0), -0.3)

    def test_eigenvalue_map(self):
        rng = np.random.default_rng(8)
        dense = random_symmetric(25, rng, spectral_norm=3.0)
        lo, hi = -3.5, 4.0
        out, _ = rescale_spectrum(SparseMatrix.from_dense(dense), lo, hi)
        lam = np.linalg.eigvalsh(dense)
        expected = (2 * lam - (hi + lo)) / (hi - lo)
        assert np.abs(np.sort(np.linalg.eigvalsh(out.to_dense())) - np.sort(expected)).max() <= 1e-10

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValueError):
            rescale_spectrum(SparseMatrix.identity(2), 1.0, 1.0)
