import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import csemb.engine
from csemb import (
    DivergenceError,
    EmbedConfig,
    SparseMatrix,
    commute_time,
    constant,
    default_dimension,
    dilate,
    distortion_percentiles,
    estimate_spectral_norm,
    exact_embedding,
    fast_embed_cascaded,
    identity,
    indicator_above,
    legendre_coefficients,
    normalized_adjacency,
    odd_extension,
    root_function,
    sample_projection,
    scale_values,
)
from csemb.legendre import expansion_eval
from helpers import (
    dense_weighted,
    explicit_dilation,
    norm_input,
    pairwise_distances,
    random_symmetric,
    ring_graph,
    sparse_from,
)


class TestDefaultDimension:
    def test_paper_scale_operating_point(self):
        assert default_dimension(317080) == 77  # the practical 6 ln n recipe


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

    def test_chunked_rows_bit_exact(self, monkeypatch):
        n, d = 50, 7
        whole = sample_projection(n, d, seed=5)
        # 6 rows per chunk: eight chunks of 6 and a ragged last one of 2
        monkeypatch.setattr(csemb.engine, "BLOCK_BYTES", 8 * d * 6)
        assert np.array_equal(sample_projection(n, d, seed=5), whole)

    def test_mean_concentration(self):
        n, d = 100_000, 64
        om = sample_projection(n, d, seed=0)
        bound = 4.0 * (1 / math.sqrt(d)) / math.sqrt(n * d)
        assert abs(om.mean()) <= bound


class TestNormEstimate:
    def test_zero_matrix(self):
        assert estimate_spectral_norm(SparseMatrix.from_coo([], [], [], 5, 5)) == 0.0

    def test_identity(self):
        est = estimate_spectral_norm(SparseMatrix.from_dense(np.eye(10)))
        assert est == pytest.approx(1.01, abs=1e-12)

    @pytest.mark.parametrize(
        "dense", [[[0.0, 2.0], [0.0, 0.0]], [[1.0, 4.0, 0.0], [0.0, 2.0, 0.0], [1.0, 0.0, 3.0]]],
        ids=["2x2", "3x3"],
    )
    def test_asymmetric_refused(self, dense):
        # the Ritz values of an asymmetric S bound nothing: these gave 0.925
        # where ||S|| = 2, and 4.08 where ||S|| = 4.57
        with pytest.raises(ValueError, match="square symmetric matrix.*dilate"):
            estimate_spectral_norm(sparse_from(np.array(dense)))

    def test_padded_diagonal(self):
        dense = np.zeros((50, 50))
        dense[0, 0], dense[1, 1] = 0.3, -0.9
        est = estimate_spectral_norm(sparse_from(dense))
        assert 0.9 * (1 - 1e-6) <= est <= 0.909

    @pytest.mark.parametrize("seed", range(5))
    def test_never_exceeds_safety_times_norm(self, seed):
        rng = np.random.default_rng(seed)
        dense = random_symmetric(60, rng, spectral_norm=None)
        est = estimate_spectral_norm(sparse_from(dense))
        assert est <= 1.01 * np.linalg.norm(dense, 2) + 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_dilation_within_one_percent(self, seed):
        # A dilation's spectrum is +-sigma, so the largest |theta| counts the
        # negative end of the spectrum as well as the positive one.
        rng = np.random.default_rng(seed)
        dense = rng.standard_normal((400, 200)) * (rng.random((400, 200)) < 0.05)
        sigma = np.linalg.norm(dense, 2)
        est = estimate_spectral_norm(dilate(sparse_from(dense)))
        assert sigma <= est <= 1.01 * sigma

    @pytest.mark.parametrize("kind", ["dilation", "adjacency"])
    def test_bits_repeat_across_calls_and_blas_threads(self, kind):
        # Every reduction is a fixed-order einsum, so neither a second call nor
        # the BLAS thread count moves a bit. With BLAS gemv in the
        # orthogonalisation, the adjacency estimate differs between 1 and 2
        # threads.
        S = norm_input(kind)
        nu = float.hex(estimate_spectral_norm(S))
        assert float.hex(estimate_spectral_norm(S)) == nu
        code = (
            "from helpers import norm_input; from csemb import estimate_spectral_norm; "
            f"print(float.hex(estimate_spectral_norm(norm_input({kind!r}))))"
        )
        tests = os.path.dirname(os.path.abspath(__file__))
        path = os.pathsep.join([os.path.dirname(csemb.__path__[0]), tests])
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
            run = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
            )
            assert run.stdout.strip() == nu

    @pytest.mark.parametrize(
        "dense", [[[-0.5]], [[0.2, 0.5], [0.5, -0.3]]], ids=["1x1", "2x2"]
    )
    def test_fewer_rows_than_steps(self, dense):
        # k = n steps span the whole space, so the Ritz values are the eigenvalues
        dense = np.array(dense)
        top = np.max(np.abs(np.linalg.eigvalsh(dense)))  # 0.5 for the 1 x 1
        assert estimate_spectral_norm(sparse_from(dense)) == pytest.approx(1.01 * top, rel=1e-14)

    def test_rank_one(self, monkeypatch):
        # S v lies in span(v0, u) from the first step on, so the second step's
        # new vector vanishes and the loop stops after two products
        u = np.random.default_rng(30).standard_normal(40)
        calls = []
        real = csemb.engine.spmv_multi

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(csemb.engine, "spmv_multi", counted)
        est = estimate_spectral_norm(sparse_from(np.outer(u, u)))
        assert est == pytest.approx(1.01 * (u @ u), rel=1e-14)
        assert len(calls) == 2

    def test_dilation_with_exact_plus_minus_sigma(self):
        # singular values 2 (x 40) give the dilation eigenvalues +-2 and 0, an
        # invariant Krylov space after three steps
        A = np.zeros((60, 40))
        A[np.arange(40), np.arange(40)] = 2.0
        est = estimate_spectral_norm(dilate(sparse_from(A)))
        assert est >= 2.0
        assert est == pytest.approx(2.02, rel=1e-14)

    @pytest.mark.parametrize("kind", ["complete-52", "complete-52-normalized", "ones-2x2"])
    def test_constant_top_eigenvector(self, kind):
        # The top eigenvector is constant. At n = 2 and 52 a start of balanced
        # +-1 signs is orthogonal to it and never sees the top eigenvalue
        # (giving 1.01 for K_52, 1.01/51 for its normalized adjacency and 0 for
        # the 2 x 2); a start with continuous entries is not.
        if kind == "ones-2x2":
            S, top = sparse_from(np.ones((2, 2))), 2.0
        elif kind == "complete-52":
            S, top = sparse_from(np.ones((52, 52)) - np.eye(52)), 51.0
        else:
            edges = np.array(list(itertools.combinations(range(52), 2)))
            S, top = normalized_adjacency(edges, 52), 1.0
        assert estimate_spectral_norm(S) == pytest.approx(1.01 * top, rel=1e-12)


def _embed(S, f, L, d, seed, **kw):
    """The single-stage (b = 1) engine; its projection is
    ``sample_projection(S.n_rows, d, seed)``."""
    return fast_embed_cascaded(S, f, EmbedConfig(L=L, d=d, seed=seed), **kw)


class TestFastEmbed:
    def test_identity_matrix_identity_function(self):
        om = sample_projection(8, 4, seed=5)
        emb = _embed(SparseMatrix.from_dense(np.eye(8)), identity(), 1, 4, 5)
        assert np.allclose(emb.values, om, atol=1e-15)

    def test_square_function_on_diagonal(self):
        S = sparse_from(np.diag([0.5, -0.5]))
        om = sample_projection(2, 6, seed=6)
        emb = _embed(S, lambda x: x**2, 2, 6, 6)
        assert np.allclose(emb.values, 0.25 * om, atol=1e-14)

    @pytest.mark.parametrize("seed", range(3))
    def test_polynomial_exactness(self, seed):
        rng = np.random.default_rng(100 + seed)
        n, deg = 150, 5
        dense = random_symmetric(n, rng, density=0.1, spectral_norm=0.97)
        coeffs = rng.standard_normal(deg + 1)
        f = lambda x: np.polynomial.polynomial.polyval(x, coeffs)
        om = sample_projection(n, 10, seed=seed)
        emb = _embed(sparse_from(dense), f, deg, 10, seed)
        oracle = dense_weighted(dense, f) @ om
        rel = np.linalg.norm(emb.values - oracle) / np.linalg.norm(oracle)
        assert rel <= 1e-10

    def test_linearity_in_function(self):
        class SplitAt02:
            """A callable whose quadrature panels split at 0.2."""

            def __init__(self, h):
                self._h = h

            def __call__(self, x):
                return self._h(x)

            def breakpoints(self):
                return (0.2,)

        rng = np.random.default_rng(8)
        n = 40
        S = sparse_from(random_symmetric(n, rng))
        f, g = indicator_above(0.2), constant(1.0)
        a, b = 0.6, -1.1
        # identical quadrature panels for all three projections
        combo = SplitAt02(lambda x: a * np.asarray(f(x)) + b * np.asarray(g(x)))
        f, g = SplitAt02(f), SplitAt02(g)
        L = 25

        def embed(h):
            return _embed(S, h, L, 5, 8).values

        lhs = embed(combo)
        rhs = a * embed(f) + b * embed(g)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(rhs))

    def test_worker_count_bit_exact(self):
        rng = np.random.default_rng(10)
        n = 50
        S = sparse_from(random_symmetric(n, rng))
        runs = [
            _embed(S, indicator_above(0.0), 12, 70, 10, n_workers=w).values
            for w in (1, 4, 8)
        ]
        assert np.array_equal(runs[0], runs[1]) and np.array_equal(runs[0], runs[2])

    def test_order_above_1024(self):
        # the monic terms' scale factor passes 2**1024 near this order, so
        # the run depends on its renormalisation to stay finite
        x = np.linspace(-1.0, 1.0, 41)
        om = sample_projection(41, 3, seed=25)
        f = indicator_above(0.3)
        emb = _embed(sparse_from(np.diag(x)), f, 1200, 3, 25)
        assert np.all(np.isfinite(emb.values))
        expected = expansion_eval(legendre_coefficients(f, 1200), x)[:, None] * om
        assert np.allclose(emb.values, expected, rtol=0.0, atol=5e-12)

    @pytest.mark.parametrize("L", [7, 60, 1200])
    @pytest.mark.parametrize("f", [indicator_above(0.3), commute_time(), identity()],
                             ids=["indicator", "commute", "identity"])
    @pytest.mark.parametrize("d", [4, 16, 64])
    def test_diagonal_matches_scalar_sum_bit_for_bit(self, d, f, L):
        # the engine and expansion_eval weight and sum the same terms, and
        # Omega = +-2**-k scales them exactly, so the bits agree
        x = np.linspace(-1.0, 1.0, 41)
        om = sample_projection(41, d, seed=26)
        emb = _embed(sparse_from(np.diag(x)), f, L, d, 26)
        expected = expansion_eval(legendre_coefficients(f, L), x)[:, None] * om
        assert np.array_equal(emb.values, expected)

    def test_divergence_detected(self):
        S = sparse_from(10.0 * np.eye(4))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DivergenceError, match=r"stage 1 .*spectral norm > 1"):
                _embed(S, identity(), 250, 2, 0)

    @pytest.mark.parametrize("case", ["asymmetric", "rounding", "rectangular"])
    def test_asymmetric_rejected_with_dilation_hint(self, case):
        # the check is exact, so a matrix symmetric only to rounding is refused too
        rng = np.random.default_rng(25)
        if case == "asymmetric":
            dense = random_symmetric(6, rng)
            dense[0, 1] += 0.1
        elif case == "rounding":
            q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
            dense = (q * np.linspace(-0.9, 0.9, 6)) @ q.T
            assert not np.array_equal(dense, dense.T)
        else:
            dense = rng.standard_normal((6, 4)) / 8.0
        with pytest.raises(ValueError, match=r"symmetric.*\(dilate\)"):
            fast_embed_cascaded(sparse_from(dense), identity(), EmbedConfig(L=4, d=2))


class TestGrowthGuard:
    def test_norm_above_one_raises_before_overflow(self):
        # ||S|| = 1.06: p_180(1.06) ~ 1e27, so the output stays finite but a
        # column outgrows the bound sum|a_r| = 8.45 by about 1e23
        adj = normalized_adjacency(ring_graph(2000), 2000)
        cfg = EmbedConfig(L=180, d=16, seed=0)
        f = indicator_above(0.9)
        assert np.all(np.isfinite(fast_embed_cascaded(adj, f, cfg).values))
        with pytest.raises(DivergenceError, match=r"stage 1 grew columns .*by up to "
                           r".*sum\|a_r\| = 8\.45.*spectral norm > 1"):
            fast_embed_cascaded(scale_values(adj, 1.06), f, cfg)

    def test_non_finite_column_named(self, monkeypatch):
        real = csemb.engine._draw_signs

        def nan_in_column_2(out, seed, d, row_codes, col, t):
            real(out, seed, d, row_codes, col, t)
            if col <= 2 < col + out.shape[1]:
                out[4, 2 - col] = np.nan

        monkeypatch.setattr(csemb.engine, "_draw_signs", nan_in_column_2)
        S = sparse_from(random_symmetric(12, np.random.default_rng(23)))
        with pytest.raises(DivergenceError, match=r"stage 1 grew columns \[2\] by up to nanx"):
            fast_embed_cascaded(S, constant(1.0), EmbedConfig(L=4, d=5, b=2, seed=23))


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
        cfg = EmbedConfig(L=16, d=d, b=b, seed=19)
        f = indicator_above(0.2)
        single = fast_embed_cascaded(S, f, cfg)
        assert single.provenance["block_width"] == d
        # 8 columns per block: blocks of 8, 8, 8 and a ragged 5
        monkeypatch.setattr(csemb.engine, "BLOCK_BYTES", 8 * n * 8)
        for w in (1, 2, 4):
            emb = fast_embed_cascaded(S, f, cfg, n_workers=w)
            assert emb.provenance["block_width"] == 8
            assert emb.provenance["spmv_products"] == 16
            assert np.array_equal(emb.values, single.values)

    def test_single_column_blocks(self, monkeypatch):
        # d below the 8-column floor, and a last block of one column
        rng = np.random.default_rng(20)
        n = 40
        S = sparse_from(random_symmetric(n, rng))
        f = indicator_above(0.0)
        single = _embed(S, f, 10, 9, 20).values
        monkeypatch.setattr(csemb.engine, "BLOCK_BYTES", 1)
        assert np.array_equal(_embed(S, f, 10, 9, 20, n_workers=2).values, single)


class TestDrawnProjection:
    """Each column block draws its own columns of Omega in its worker."""

    @pytest.mark.parametrize("b", [1, 2])
    @pytest.mark.parametrize(
        "n, d, block_bytes, width",
        [
            (90, 29, None, 29),  # one block
            (90, 29, 8 * 90 * 8, 8),  # blocks of 8, 8, 8 and a ragged 5
            (40, 9, 1, 8),  # blocks of 8 and 1
            (40, 1, 1, 1),  # one single-column block
        ],
        ids=["one-block", "ragged", "eight-and-one", "one-column"],
    )
    def test_matches_sample_projection_bit_for_bit(self, monkeypatch, b, n, d,
                                                   block_bytes, width):
        # the blocks the workers draw tile sample_projection exactly, and the
        # output is the one-block, one-worker run's
        rng = np.random.default_rng(27)
        S = sparse_from(random_symmetric(n, rng))
        cfg = EmbedConfig(L=16, d=d, b=b, seed=27)
        f = indicator_above(0.2)
        single = fast_embed_cascaded(S, f, cfg)
        if block_bytes is not None:
            monkeypatch.setattr(csemb.engine, "BLOCK_BYTES", block_bytes)
        om = sample_projection(n, d, cfg.seed)
        real = csemb.engine._draw_signs
        drawn = np.empty((n, d))

        def record(out, seed, d, row_codes, col, t):
            real(out, seed, d, row_codes, col, t)
            drawn[:, col:col + out.shape[1]] = out

        monkeypatch.setattr(csemb.engine, "_draw_signs", record)
        for w in (1, 2, 4):
            drawn.fill(np.nan)
            emb = fast_embed_cascaded(S, f, cfg, n_workers=w)
            assert emb.provenance["block_width"] == width
            assert np.array_equal(drawn, om)
            assert np.array_equal(emb.values, single.values)

    @pytest.mark.parametrize("block_bytes, width", [(None, 64), (8 * 41 * 12, 12), (1, 8)],
                             ids=["one-block", "twelve", "eight"])
    @pytest.mark.parametrize("d", [4, 16, 64])
    def test_diagonal_layouts_match_scalar_sum(self, monkeypatch, d, block_bytes, width):
        # Omega = +-2**-k scales expansion_eval's terms exactly, so on a
        # diagonal S every block layout and worker count gives its bits
        x = np.linspace(-1.0, 1.0, 41)
        f, L = indicator_above(0.3), 60
        om = sample_projection(41, d, seed=29)
        expected = expansion_eval(legendre_coefficients(f, L), x)[:, None] * om
        if block_bytes is not None:
            monkeypatch.setattr(csemb.engine, "BLOCK_BYTES", block_bytes)
        for w in (1, 2, 4):
            emb = _embed(sparse_from(np.diag(x)), f, L, d, 29, n_workers=w)
            assert emb.provenance["block_width"] == min(d, width)
            assert np.array_equal(emb.values, expected)

    def test_draw_needs_no_ufunc_buffer(self):
        # the codes are added a column at a time, so a draw needs no ufunc
        # buffer; a broadcast add of the column numbers takes about 132 KB here
        n, d, w = 20_000, 80, 8
        out, t = np.empty((n, w)), np.empty((n, w), dtype=np.uint64)
        row_codes = np.arange(n, dtype=np.uint64) * np.uint64(d)
        csemb.engine._draw_signs(out, 3, d, row_codes, w, t)
        tracemalloc.start()
        try:
            csemb.engine._draw_signs(out, 3, d, row_codes, w, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1024
        assert np.array_equal(out, sample_projection(n, d, 3)[:, w:2 * w])

    def test_no_n_by_d_projection(self, monkeypatch):
        # With w = 16 of d = 64 columns and two workers, a run holds the n x d
        # output and two workspaces of three n x w buffers. The slack, 1.5
        # buffers (0.77 MB), covers the n-length row codes and numpy's small
        # fixed-size allocations: the excess measures 0.07 MB. A fourth buffer
        # per worker, let alone an n x d Omega, exceeds it.
        n, d, w = 4000, 64, 16
        S = normalized_adjacency(ring_graph(n, width=3), n)
        monkeypatch.setattr(csemb.engine, "BLOCK_BYTES", 8 * n * w)
        cfg = EmbedConfig(L=8, d=d, b=2, seed=28)
        f = indicator_above(0.2)
        fast_embed_cascaded(S, f, cfg, n_workers=2)  # warm up imports and caches
        tracemalloc.start()
        try:
            emb = fast_embed_cascaded(S, f, cfg, n_workers=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert emb.provenance["block_width"] == w
        output = 8 * n * d
        buffer = 8 * n * w
        assert peak < output + 2 * 3 * buffer + 3 * buffer // 2


class TestCascade:
    def test_constant_cascade(self):
        om = sample_projection(5, 3, seed=12)
        cfg = EmbedConfig(L=2, d=3, b=2, seed=12)
        emb = fast_embed_cascaded(SparseMatrix.from_dense(np.eye(5)), constant(4.0), cfg)
        assert np.allclose(emb.values, 4.0 * om, atol=1e-12)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(13)
        n = 80
        dense = random_symmetric(n, rng, spectral_norm=0.98)
        f = indicator_above(0.98)
        cfg = EmbedConfig(L=180, d=8, b=2, seed=13)
        om = sample_projection(n, 8, seed=13)
        emb = fast_embed_cascaded(sparse_from(dense), f, cfg)
        # independent route: eigendecompose, square the stage expansion scalars
        stage = legendre_coefficients(root_function(f, 2), 90)
        lam, vec = np.linalg.eigh(dense)
        weights = expansion_eval(stage, lam) ** 2
        oracle = (vec * weights) @ vec.T @ om
        rel = np.linalg.norm(emb.values - oracle) / np.linalg.norm(oracle)
        assert rel <= 1e-10

    def test_even_cascade_of_signed_function(self):
        # two stages of the signed square root apply |f|, whose row Gram
        # f(S)^2 is f's: the deviations match the single stage's
        S = sparse_from(random_symmetric(400, np.random.default_rng(20), density=0.05))
        exact = exact_embedding(S, identity())
        runs = [
            distortion_percentiles(exact, fast_embed_cascaded(
                S, identity(), EmbedConfig(L=60, d=80, b=b, seed=20)).values).percentiles
            for b in (1, 2)
        ]
        assert runs[0].keys() == runs[1].keys()
        for p in runs[0]:
            assert abs(runs[1][p] - runs[0][p]) <= 0.01
        assert -0.2 < runs[1][5] and runs[1][95] < 0.2

    def test_spmv_counter(self):
        rng = np.random.default_rng(14)
        S = sparse_from(random_symmetric(20, rng))
        cfg = EmbedConfig(L=12, d=4, b=3, seed=14)
        emb = fast_embed_cascaded(S, indicator_above(0.0), cfg)
        assert emb.provenance["spmv_products"] == cfg.stage_order * cfg.b == 12


class TestProductCount:
    def test_every_block_counts_L(self, monkeypatch):
        rng = np.random.default_rng(21)
        n, d = 30, 20
        S = sparse_from(random_symmetric(n, rng))
        # 8 columns per block: blocks of 8, 8 and 4, spread over two workers
        monkeypatch.setattr(csemb.engine, "BLOCK_BYTES", 8 * n * 8)
        calls = []
        real = csemb.engine.spmv_multi

        def counted(*args, **kwargs):
            calls.append(args[1].shape[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(csemb.engine, "spmv_multi", counted)
        cfg = EmbedConfig(L=10, d=d, b=2, seed=21)
        emb = fast_embed_cascaded(S, indicator_above(0.1), cfg, n_workers=2)
        assert emb.provenance["block_width"] == 8
        assert emb.provenance["spmv_products"] == cfg.L
        assert sorted(calls) == [4] * cfg.L + [8] * (2 * cfg.L)

    def test_short_recursion_raises(self, monkeypatch):
        real = csemb.engine.legendre_sum

        def one_term_short(step, coeffs, *bufs):
            real(step, coeffs[:-1], *bufs)  # one product too few per stage

        monkeypatch.setattr(csemb.engine, "legendre_sum", one_term_short)
        rng = np.random.default_rng(22)
        S = sparse_from(random_symmetric(20, rng))
        cfg = EmbedConfig(L=12, d=4, b=2, seed=22)
        with pytest.raises(RuntimeError, match="exactly 12"):
            fast_embed_cascaded(S, indicator_above(0.0), cfg)


def _embed_dilation(A, f, cfg):
    """Row and column embeddings of a general A (||A|| <= 1): the dilation
    embedded with the odd extension of f, whose first n rows embed the
    columns of A and the rest its rows."""
    values = fast_embed_cascaded(dilate(A), odd_extension(f), cfg).values
    return values[A.n_cols:], values[:A.n_cols]


class TestGeneralMatrices:
    def test_zero_matrix(self):
        A = SparseMatrix.from_coo([], [], [], 3, 2)
        cfg = EmbedConfig(L=10, d=4, seed=15)
        rows, cols = _embed_dilation(A, indicator_above(0.5), cfg)
        assert np.abs(rows).max() <= 1e-12
        assert np.abs(cols).max() <= 1e-12
        assert rows.shape[0] == 3 and cols.shape[0] == 2

    def test_one_by_one_swaps_projection_rows(self):
        A = sparse_from(np.array([[1.0]]))
        cfg = EmbedConfig(L=1, d=6, seed=16)
        rows, cols = _embed_dilation(A, identity(), cfg)
        om = sample_projection(2, 6, seed=16)
        assert np.allclose(rows[0], om[0], atol=1e-15)
        assert np.allclose(cols[0], om[1], atol=1e-15)

    def test_cascaded_general_matches_dense_oracle(self):
        # with b even, the squared stage polynomial approximates the even
        # extension f(|x|) on the dilation spectrum; row/column geometry is
        # unaffected because the cross blocks cancel
        rng = np.random.default_rng(18)
        A = rng.standard_normal((7, 5))
        A /= np.linalg.norm(A, 2) * 1.02
        f = indicator_above(0.4)
        cfg = EmbedConfig(L=80, d=9, b=2, seed=18)
        rows, cols = _embed_dilation(sparse_from(A), f, cfg)

        S = dilate(sparse_from(A)).to_dense()
        lam, vec = np.linalg.eigh(S)
        stage = legendre_coefficients(odd_extension(root_function(f, 2)), 40)
        weights = expansion_eval(stage, lam) ** 2
        om = sample_projection(12, 9, seed=18)
        oracle = (vec * weights) @ vec.T @ om
        rel = np.linalg.norm(np.vstack([cols, rows]) - oracle) / np.linalg.norm(oracle)
        assert rel <= 1e-10

    def test_operator_bytes_across_workers_and_explicit_dilation(self, monkeypatch):
        # the dilation operator gives one set of bytes for every worker count
        # over several column blocks, and they are the explicit dilation's;
        # so is its norm estimate
        rng = np.random.default_rng(33)
        a = rng.standard_normal((900, 400)) * (rng.random((900, 400)) < 0.02)
        A = sparse_from(a)
        D, E = dilate(A), explicit_dilation(A)
        norm = estimate_spectral_norm(D)
        assert norm == estimate_spectral_norm(E)
        D, E = scale_values(D, 1.0 / norm), scale_values(E, 1.0 / norm)
        monkeypatch.setattr(csemb.engine, "BLOCK_BYTES", 8 * D.n_rows * 8)  # 8-column blocks
        cfg = EmbedConfig(L=12, d=24, b=2, seed=33)
        f = odd_extension(indicator_above(0.3))
        reference = fast_embed_cascaded(E, f, cfg)
        assert reference.provenance["block_width"] == 8
        for w in (1, 2, 3):
            emb = fast_embed_cascaded(D, f, cfg, n_workers=w)
            assert emb.provenance == reference.provenance
            assert emb.values.tobytes() == reference.values.tobytes()

    def test_plain_callable_with_even_cascade(self):
        # one signed root serves every callable, a SpectralFunction or
        # not, so a forwarding wrapper gives the same bytes
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
        expected = _embed_dilation(A, f, cfg)
        got = _embed_dilation(A, Forward(f), cfg)
        for e, g in zip(expected, got):
            assert np.array_equal(e, g)

    def test_row_geometry_within_distance_bounds(self):
        rng = np.random.default_rng(17)
        A = rng.standard_normal((6, 4))
        A /= np.linalg.norm(A, 2) * 1.02
        sv = np.linalg.svd(A, compute_uv=False)
        f = indicator_above((sv[1] + sv[2]) / 2)
        cfg = EmbedConfig(L=60, d=3000, seed=17)
        rows, _ = _embed_dilation(sparse_from(A), f, cfg)

        u, s, vt = np.linalg.svd(A)
        exact_rows = u[:, : len(s)] * np.asarray(f(s))
        d_exact = pairwise_distances(exact_rows)
        d_approx = pairwise_distances(rows)

        dil_spectrum = np.concatenate([s, -s, np.zeros(2)])
        fprime = odd_extension(f)
        exp = legendre_coefficients(fprime, cfg.L)
        delta = np.abs(
            np.asarray(fprime(dil_spectrum)) - expansion_eval(exp, dil_spectrum)
        ).max()
        slack = delta * math.sqrt(2)
        eps = 0.3
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

    def test_stage_order(self):
        assert EmbedConfig(L=180, d=80, b=2).stage_order == 90
