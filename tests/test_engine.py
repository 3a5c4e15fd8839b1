import math
import warnings

import numpy as np
import pytest

import csemb.engine
from csemb import (
    DivergenceError,
    EmbedConfig,
    SparseMatrix,
    SpmvCounter,
    constant,
    default_dimension,
    estimate_spectral_norm,
    fast_embed_cascaded,
    fast_embed_general,
    identity,
    indicator_above,
    jl_dimension,
    legendre_coefficients,
    odd_extension,
    root_function,
    sample_projection,
)
from csemb.legendre import expansion_eval
from helpers import dense_weighted, pairwise_distances, random_symmetric, sparse_from


class TestJlDimension:
    def test_reference_value(self):
        assert jl_dimension(100, 0.5, 2.0) == 443

    def test_paper_scale_operating_point(self):
        assert jl_dimension(317080, 0.5, 1.0) == 913
        assert default_dimension(317080) == 77  # the practical 6 ln n recipe

    def test_monotone_in_n(self):
        assert jl_dimension(10**6, 0.3, 1.0) > jl_dimension(10**3, 0.3, 1.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            jl_dimension(1, 0.5, 1.0)
        with pytest.raises(ValueError):
            jl_dimension(100, 1.5, 1.0)
        with pytest.raises(ValueError):
            jl_dimension(100, 0.5, 0.0)


class TestSampleProjection:
    def test_entries_are_signs(self):
        om = sample_projection(50, 9, seed=3)
        assert np.all(np.isin(om, [1 / 3, -1 / 3]))

    def test_deterministic(self):
        a = sample_projection(40, 7, seed=11)
        b = sample_projection(40, 7, seed=11)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, sample_projection(40, 7, seed=12))

    def test_frozen_pattern(self):
        om = sample_projection(3, 4, seed=42) * 2.0  # entries +-1
        expected = np.array(
            [[-1, 1, -1, 1], [-1, 1, 1, -1], [1, 1, 1, 1]], dtype=float
        )
        assert np.array_equal(om, expected)

    def test_mean_concentration(self):
        n, d = 100_000, 64
        om = sample_projection(n, d, seed=0)
        bound = 4.0 * (1 / math.sqrt(d)) / math.sqrt(n * d)
        assert abs(om.mean()) <= bound


class TestNormEstimate:
    def test_zero_matrix(self):
        cfg = EmbedConfig(L=1, d=1)
        assert estimate_spectral_norm(SparseMatrix.zeros(5, 5), cfg) == 0.0

    def test_identity(self):
        cfg = EmbedConfig(L=1, d=1, seed=0)
        est = estimate_spectral_norm(SparseMatrix.identity(10), cfg)
        assert est == pytest.approx(1.01, abs=1e-12)

    def test_padded_diagonal(self):
        dense = np.zeros((50, 50))
        dense[0, 0], dense[1, 1] = 0.3, -0.9
        cfg = EmbedConfig(L=1, d=1, seed=1)
        est = estimate_spectral_norm(sparse_from(dense), cfg)
        assert 0.9 * (1 - 1e-6) <= est <= 0.909

    @pytest.mark.parametrize("seed", range(5))
    def test_never_exceeds_safety_times_norm(self, seed):
        rng = np.random.default_rng(seed)
        dense = random_symmetric(60, rng, spectral_norm=None)
        est = estimate_spectral_norm(sparse_from(dense), EmbedConfig(L=1, d=1, seed=seed))
        assert est <= 1.01 * np.linalg.norm(dense, 2) + 1e-12


def _embed(S, f, L, om, **kw):
    """The single-stage (b = 1) engine on a given projection block."""
    return fast_embed_cascaded(S, f, EmbedConfig(L=L, d=om.shape[1]), om, **kw)


class TestFastEmbed:
    def test_identity_matrix_identity_function(self):
        om = sample_projection(8, 4, seed=5)
        emb = _embed(SparseMatrix.identity(8), identity(), 1, om)
        assert np.allclose(emb.values, om, atol=1e-15)

    def test_square_function_on_diagonal(self):
        S = sparse_from(np.diag([0.5, -0.5]))
        om = sample_projection(2, 6, seed=6)
        emb = _embed(S, lambda x: x**2, 2, om)
        assert np.allclose(emb.values, 0.25 * om, atol=1e-14)

    @pytest.mark.parametrize("seed", range(3))
    def test_polynomial_exactness(self, seed):
        rng = np.random.default_rng(100 + seed)
        n, deg = 150, 5
        dense = random_symmetric(n, rng, density=0.1, spectral_norm=0.97)
        coeffs = rng.standard_normal(deg + 1)
        f = lambda x: np.polynomial.polynomial.polyval(x, coeffs)
        om = sample_projection(n, 10, seed=seed)
        emb = _embed(sparse_from(dense), f, deg, om)
        oracle = dense_weighted(dense, f) @ om
        rel = np.linalg.norm(emb.values - oracle) / np.linalg.norm(oracle)
        assert rel <= 1e-10

    def test_linearity_in_function(self):
        from csemb import QuadratureSpec

        rng = np.random.default_rng(8)
        n = 40
        S = sparse_from(random_symmetric(n, rng))
        om = sample_projection(n, 5, seed=8)
        f, g = indicator_above(0.2), constant(1.0)
        a, b = 0.6, -1.1
        combo = lambda x: a * np.asarray(f(x)) + b * np.asarray(g(x))
        # identical quadrature panels for all three projections
        quad = QuadratureSpec(breakpoints=(0.2,))
        L = 25

        def embed(h):
            return _embed(S, legendre_coefficients(h, L, quad), L, om).values

        lhs = embed(combo)
        rhs = a * embed(f) + b * embed(g)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(rhs))

    def test_column_subset_bit_exact(self):
        rng = np.random.default_rng(9)
        n = 60
        S = sparse_from(random_symmetric(n, rng))
        om = sample_projection(n, 40, seed=9)
        full = _embed(S, indicator_above(0.1), 15, om).values
        # a column subset reproduces those columns of the full run
        part = _embed(S, indicator_above(0.1), 15, om[:, 30:37]).values
        assert np.array_equal(part, full[:, 30:37])

    def test_worker_count_bit_exact(self):
        rng = np.random.default_rng(10)
        n = 50
        S = sparse_from(random_symmetric(n, rng))
        om = sample_projection(n, 70, seed=10)
        runs = [
            _embed(S, indicator_above(0.0), 12, om, n_workers=w).values
            for w in (1, 4, 8)
        ]
        assert np.array_equal(runs[0], runs[1]) and np.array_equal(runs[0], runs[2])

    def test_divergence_detected(self):
        S = sparse_from(10.0 * np.eye(4))
        om = sample_projection(4, 2, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DivergenceError, match=r"stage 1 .*spectral norm > 1"):
                _embed(S, identity(), 250, om)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            _embed(SparseMatrix.identity(4), identity(), 1, np.zeros((3, 2)))


class TestColumnBlocks:
    def test_width_from_n(self):
        # the benchmark's shapes: embed-graph, cluster-sbm, embed-dilation, eval-desk
        assert csemb.engine.block_width(20_000, 80) == 8
        assert csemb.engine.block_width(8_000, 54) == 16
        assert csemb.engine.block_width(18_750, 64) == 8
        assert csemb.engine.block_width(1_500, 80) == 80
        assert csemb.engine.block_width(10**7, 3) == 3

    @pytest.mark.parametrize("b", [1, 2])
    def test_multi_block_bit_exact(self, monkeypatch, b):
        rng = np.random.default_rng(19)
        n, d = 90, 29
        S = sparse_from(random_symmetric(n, rng))
        om = sample_projection(n, d, seed=19)
        cfg = EmbedConfig(L=16, d=d, b=b, seed=19)
        f = indicator_above(0.2)
        single = fast_embed_cascaded(S, f, cfg, om)
        assert single.provenance["block_width"] == d
        # 8 columns per block: blocks of 8, 8, 8 and a ragged 5
        monkeypatch.setattr(csemb.engine, "BLOCK_BYTES", 8 * n * 8)
        for w in (1, 2, 4):
            emb = fast_embed_cascaded(S, f, cfg, om, n_workers=w)
            assert emb.provenance["block_width"] == 8
            assert emb.provenance["spmv_products"] == 16
            assert np.array_equal(emb.values, single.values)

    def test_single_column_blocks(self, monkeypatch):
        # d below the 8-column floor, and a last block of one column
        rng = np.random.default_rng(20)
        n = 40
        S = sparse_from(random_symmetric(n, rng))
        om = sample_projection(n, 9, seed=20)
        f = indicator_above(0.0)
        single = _embed(S, f, 10, om).values
        monkeypatch.setattr(csemb.engine, "BLOCK_BYTES", 1)
        assert np.array_equal(_embed(S, f, 10, om, n_workers=2).values, single)
        assert np.array_equal(_embed(S, f, 10, om[:, :1]).values, single[:, :1])


class TestCascade:
    def test_constant_cascade(self):
        om = sample_projection(5, 3, seed=12)
        cfg = EmbedConfig(L=2, d=3, b=2, seed=12)
        emb = fast_embed_cascaded(SparseMatrix.identity(5), constant(4.0), cfg, om)
        assert np.allclose(emb.values, 4.0 * om, atol=1e-12)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(13)
        n = 80
        dense = random_symmetric(n, rng, spectral_norm=0.98)
        f = indicator_above(0.98)
        cfg = EmbedConfig(L=180, d=8, b=2, seed=13)
        om = sample_projection(n, 8, seed=13)
        emb = fast_embed_cascaded(sparse_from(dense), f, cfg, om)
        # independent route: eigendecompose, square the stage expansion scalars
        stage = legendre_coefficients(root_function(f, 2), 90)
        lam, vec = np.linalg.eigh(dense)
        weights = expansion_eval(stage, lam) ** 2
        oracle = (vec * weights) @ vec.T @ om
        rel = np.linalg.norm(emb.values - oracle) / np.linalg.norm(oracle)
        assert rel <= 1e-10

    def test_spmv_counter(self):
        rng = np.random.default_rng(14)
        S = sparse_from(random_symmetric(20, rng))
        counter = SpmvCounter()
        cfg = EmbedConfig(L=12, d=4, b=3, seed=14)
        fast_embed_cascaded(S, indicator_above(0.0), cfg, counter=counter)
        assert counter.products == cfg.stage_order * cfg.b == 12


class TestGeneralMatrices:
    def test_zero_matrix(self):
        A = SparseMatrix.zeros(3, 2)
        cfg = EmbedConfig(L=10, d=4, seed=15)
        rows, cols = fast_embed_general(A, indicator_above(0.5), cfg)
        assert np.abs(rows.values).max() <= 1e-12
        assert np.abs(cols.values).max() <= 1e-12
        assert rows.n_rows == 3 and cols.n_rows == 2

    def test_one_by_one_swaps_projection_rows(self):
        A = sparse_from(np.array([[1.0]]))
        cfg = EmbedConfig(L=1, d=6, seed=16)
        rows, cols = fast_embed_general(A, identity(), cfg)
        om = sample_projection(2, 6, seed=16)
        assert np.allclose(rows.values[0], om[0], atol=1e-15)
        assert np.allclose(cols.values[0], om[1], atol=1e-15)

    def test_cascaded_general_matches_dense_oracle(self):
        # with b even, the squared stage polynomial approximates the even
        # extension f(|x|) on the dilation spectrum; row/column geometry is
        # unaffected because the cross blocks cancel
        rng = np.random.default_rng(18)
        A = rng.standard_normal((7, 5))
        A /= np.linalg.norm(A, 2) * 1.02
        f = indicator_above(0.4)
        cfg = EmbedConfig(L=80, d=9, b=2, seed=18)
        rows_emb, cols_emb = fast_embed_general(sparse_from(A), f, cfg)

        from csemb import dilate, sample_projection as sp

        S = dilate(sparse_from(A)).to_dense()
        lam, vec = np.linalg.eigh(S)
        stage = legendre_coefficients(odd_extension(root_function(f, 2)), 40)
        weights = expansion_eval(stage, lam) ** 2
        om = sp(12, 9, seed=18)
        oracle = (vec * weights) @ vec.T @ om
        rel = np.linalg.norm(
            np.vstack([cols_emb.values, rows_emb.values]) - oracle
        ) / np.linalg.norm(oracle)
        assert rel <= 1e-10

    def test_plain_callable_with_even_cascade(self):
        # the even root is taken before the odd extension, as for a
        # SpectralFunction, so a forwarding wrapper gives the same bytes
        class Forward:
            def __init__(self, f):
                self._f = f

            def __call__(self, x):
                return self._f(x)

            def breakpoints(self):
                return self._f.breakpoints()

        A = sparse_from(np.random.default_rng(19).standard_normal((6, 4)) / 4.0)
        cfg = EmbedConfig(L=12, d=5, b=2, seed=19)
        f = indicator_above(0.5)
        expected = fast_embed_general(A, f, cfg)
        got = fast_embed_general(A, Forward(f), cfg)
        for e, g in zip(expected, got):
            assert np.array_equal(e.values, g.values)

    def test_row_geometry_within_distance_bounds(self):
        rng = np.random.default_rng(17)
        A = rng.standard_normal((6, 4))
        A /= np.linalg.norm(A, 2) * 1.02
        sv = np.linalg.svd(A, compute_uv=False)
        f = indicator_above((sv[1] + sv[2]) / 2)
        cfg = EmbedConfig(L=60, d=3000, seed=17, epsilon=0.3)
        rows_emb, _ = fast_embed_general(sparse_from(A), f, cfg)

        u, s, vt = np.linalg.svd(A)
        exact_rows = u[:, : len(s)] * np.asarray(f(s))
        d_exact = pairwise_distances(exact_rows)
        d_approx = pairwise_distances(rows_emb.values)

        dil_spectrum = np.concatenate([s, -s, np.zeros(2)])
        fprime = odd_extension(f)
        exp = legendre_coefficients(fprime, cfg.L)
        delta = np.abs(
            np.asarray(fprime(dil_spectrum)) - expansion_eval(exp, dil_spectrum)
        ).max()
        slack = delta * math.sqrt(2)
        eps = cfg.epsilon
        assert np.all(d_approx >= math.sqrt(1 - eps) * (d_exact - slack) - 1e-12)
        assert np.all(d_approx <= math.sqrt(1 + eps) * (d_exact + slack) + 1e-12)


class TestEmbedConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EmbedConfig(L=0, d=4)
        with pytest.raises(ValueError):
            EmbedConfig(L=10, d=4, b=3)  # b does not divide L
        with pytest.raises(ValueError):
            EmbedConfig(L=10, d=0)
        with pytest.raises(ValueError):
            EmbedConfig(L=10, d=4, epsilon=1.0)

    def test_stage_order(self):
        assert EmbedConfig(L=180, d=80, b=2).stage_order == 90
