import math
import tracemalloc

import numpy as np
import pytest

from csemb import (
    EmbedConfig,
    OracleCapError,
    OracleError,
    SparseMatrix,
    distance_bound_audit,
    distortion_percentiles,
    exact_embedding,
    identity,
    indicator_above,
    sample_pairs,
)
from csemb.oracle import (
    PAIR_CHUNK,
    _pair_correlations,
    _pairwise_distances,
    write_calibration_csv,
    write_percentiles_csv,
    write_report_json,
)
from helpers import dense_weighted, pairwise_distances, random_symmetric


class TestExactEmbedding:
    def test_indicator_on_diagonal(self):
        ex = exact_embedding(np.diag([0.9, 0.1]), indicator_above(0.5))
        gram = ex.embedding @ ex.embedding.T
        assert np.allclose(gram, np.diag([1.0, 0.0]), atol=1e-12)

    def test_identity_function(self):
        S = np.array([[0.0, 1.0], [1.0, 0.0]])
        ex = exact_embedding(S, identity())
        # rotation-invariant comparison: Gram of f(S) rows equals S @ S.T
        assert np.allclose(ex.embedding @ ex.embedding.T, S @ S.T, atol=1e-12)

    def test_self_consistency(self):
        rng = np.random.default_rng(0)
        S = random_symmetric(50, rng)
        f = lambda x: np.tanh(3 * x)
        ex = exact_embedding(S, f)
        fs = dense_weighted(S, f)
        assert np.abs(ex.embedding @ ex.embedding.T - fs @ fs.T).max() <= 1e-8

    def test_rotation_is_inconsequential(self):
        rng = np.random.default_rng(1)
        S = random_symmetric(30, rng)
        f = indicator_above(0.0)
        lam, vec = np.linalg.eigh(S)
        axis_scaled = vec * np.asarray(f(lam))   # one basis choice
        fs_rows = dense_weighted(S, f)           # the rotated one
        assert (
            np.abs(pairwise_distances(axis_scaled) - pairwise_distances(fs_rows)).max()
            <= 1e-8
        )

    def test_cap(self):
        with pytest.raises(OracleCapError):
            exact_embedding(np.eye(11), identity(), cap=10)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            exact_embedding(np.array([[0.0, 1.0], [0.0, 0.0]]), identity())


def normalized_correlation(X, i, j):
    """Cosine similarity of rows i and j through the oracle's pair formula."""
    out, _ = _pair_correlations(np.asarray(X, dtype=np.float64), np.array([[i, j]]))
    return float(out[0])


class TestNormalizedCorrelation:
    def test_self(self):
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert normalized_correlation(X, 0, 0) == pytest.approx(1.0)

    def test_orthogonal(self):
        X = np.array([[1.0, 0.0], [0.0, 2.0]])
        assert normalized_correlation(X, 0, 1) == 0.0

    def test_hand_value(self):
        X = np.array([[1.0, 0.0], [1.0, 1.0]])
        assert normalized_correlation(X, 0, 1) == pytest.approx(1 / np.sqrt(2))

    def test_zero_row(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert normalized_correlation(X, 0, 1) == 0.0
        _, zero = _pair_correlations(X, np.array([[0, 1]]))
        assert zero.tolist() == [True]

    def test_symmetry_and_scale_invariance(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((10, 4))
        for i, j in [(0, 1), (2, 9), (4, 4)]:
            assert normalized_correlation(X, i, j) == normalized_correlation(X, j, i)
        Y = X.copy()
        Y[3] *= 17.0
        for j in range(10):
            assert normalized_correlation(Y, 3, j) == pytest.approx(
                normalized_correlation(X, 3, j), abs=1e-12
            )


class TestSamplePairs:
    def test_full_enumeration_below_cap(self):
        pairs = sample_pairs(10, None, seed=0)
        assert len(pairs) == 45
        assert len(np.unique(pairs[:, 0] * 10 + pairs[:, 1])) == 45

    def test_sampled_without_replacement(self):
        pairs = sample_pairs(300, 5000, seed=1)
        assert len(pairs) == 5000
        codes = pairs[:, 0] * 300 + pairs[:, 1]
        assert len(np.unique(codes)) == 5000
        assert np.all(pairs[:, 0] < pairs[:, 1])

    def test_deterministic(self):
        assert np.array_equal(sample_pairs(200, 100, 7), sample_pairs(200, 100, 7))

    def test_uniform_over_vertex_ids(self):
        # For a uniform pair i < j of n vertices, i has mean (n - 2) / 3 and
        # variance (n + 1)(n - 2) / 18; keeping the smallest pair codes
        # instead piles the sample onto low ids.
        n, m = 300, 5000
        lo = sample_pairs(n, m, seed=1)[:, 0]
        se = math.sqrt((n + 1) * (n - 2) / 18 / m)
        assert abs(lo.mean() - (n - 2) / 3) <= 4 * se
        assert lo.max() > n / 2


class TestDistortionPercentiles:
    def test_identical_embeddings(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((40, 6))
        rep = distortion_percentiles(X, X)
        assert all(v == 0.0 for v in rep.percentiles.values())

    def test_percentiles_monotone(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((60, 5))
        Y = X + 0.1 * rng.standard_normal((60, 5))
        rep = distortion_percentiles(X, Y)
        vals = [rep.percentiles[p] for p in (1, 5, 25, 50, 75, 95, 99)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_calibration_bins(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((80, 4))
        Y = X + 0.05 * rng.standard_normal((80, 4))
        rep = distortion_percentiles(X, Y)
        centers = [b.center for b in rep.bins]
        assert all(-1.0 <= c <= 1.0 for c in centers)
        assert sum(b.count for b in rep.bins) == rep.pair_sample_size
        for b in rep.bins:
            vals = [b.percentiles[p] for p in (1, 5, 25, 50, 75, 95, 99)]
            assert all(x <= y for x, y in zip(vals, vals[1:]))

    def test_zero_rows_counted(self):
        X = np.zeros((4, 3))
        X[0] = [1, 0, 0]
        rep = distortion_percentiles(X, X)
        assert rep.zero_row_pairs == 6  # every pair touches a zero row

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            distortion_percentiles(np.zeros((3, 2)), np.zeros((4, 2)))

    def test_chunked_correlations_same_bits(self):
        rng = np.random.default_rng(12)
        rows = rng.standard_normal((300, 80))
        pairs = sample_pairs(300, 3 * PAIR_CHUNK + 5, seed=1)
        norms = np.linalg.norm(rows, axis=1)
        a, b = pairs[:, 0], pairs[:, 1]
        whole = np.einsum("ij,ij->i", rows[a], rows[b]) / (norms[a] * norms[b])
        assert _pair_correlations(rows, pairs)[0].tobytes() == whole.tobytes()

    def test_peak_memory(self):
        # 100k pairs of 80-column rows: gathering both rows of every pair at
        # once peaked at 133 MB; a chunk at a time stays near the pair arrays
        rng = np.random.default_rng(13)
        X, Y = rng.standard_normal((1500, 80)), rng.standard_normal((1500, 80))
        tracemalloc.start()
        try:
            distortion_percentiles(X, Y, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32e6


class TestDistanceBoundAudit:
    def test_polynomial_function_zero_violations(self):
        rng = np.random.default_rng(6)
        S = random_symmetric(40, rng)
        cfg = EmbedConfig(L=3, d=1500, seed=0)
        rate = distance_bound_audit(
            S, lambda x: 0.2 + 0.5 * x**3, cfg, trials=5, epsilon=0.4
        )
        assert rate <= 40 ** -1.0

    def test_distances_match_formula(self):
        rng = np.random.default_rng(9)
        rows = rng.standard_normal((70, 6))
        rows[10:20] = rows[3]  # coincident rows, whose formula value can dip below 0
        sq = np.sum(rows * rows, axis=1)
        d2 = sq[:, None] + sq[None, :] - 2.0 * (rows @ rows.T)
        expected = np.sqrt(np.maximum(d2[np.triu_indices(70, k=1)], 0.0))
        assert np.array_equal(_pairwise_distances(rows), expected)

    def test_tiny_projection_violates(self):
        rng = np.random.default_rng(7)
        S = random_symmetric(40, rng)
        cfg = EmbedConfig(L=3, d=2, seed=0)
        rate = distance_bound_audit(S, lambda x: x, cfg, trials=5, epsilon=0.05)
        assert rate > 0.05
        sparse = distance_bound_audit(
            SparseMatrix.from_dense(S), lambda x: x, cfg, trials=5, epsilon=0.05
        )
        assert sparse == rate

    def test_epsilon_validated(self):
        cfg = EmbedConfig(L=2, d=2)
        for eps in (0.0, 1.0):
            with pytest.raises(ValueError, match="epsilon"):
                distance_bound_audit(0.5 * np.eye(3), identity(), cfg, trials=1, epsilon=eps)

    def test_eigensolver_residual_checked(self, monkeypatch):
        eigh = np.linalg.eigh

        def off_by_a_little(a):
            lam, vec = eigh(a)
            return lam + 1e-6, vec

        monkeypatch.setattr(np.linalg, "eigh", off_by_a_little)
        S = random_symmetric(10, np.random.default_rng(3))
        with pytest.raises(OracleError, match="residual"):
            distance_bound_audit(S, identity(), EmbedConfig(L=2, d=2), trials=1)


class TestReportWriters:
    def test_csv_and_json(self, tmp_path):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((30, 4))
        Y = X + 0.1 * rng.standard_normal((30, 4))
        rep = distortion_percentiles(X, Y)
        p1, p2, p3 = tmp_path / "p.csv", tmp_path / "c.csv", tmp_path / "r.json"
        write_percentiles_csv(rep, p1)
        write_calibration_csv(rep, p2)
        write_report_json(rep, p3)
        lines = p1.read_text().strip().splitlines()
        assert lines[0] == "percentile,value" and len(lines) == 8
        head = p2.read_text().splitlines()[0]
        assert head == "bin_center,p1,p5,p25,p50,p75,p95,p99"
        import json

        blob = json.loads(p3.read_text())
        assert blob["mode"] == "deviation" and "percentiles" in blob
        assert sorted(blob) == ["mode", "pair_sample_size", "percentiles", "zero_row_pairs"]
