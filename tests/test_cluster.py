import math
import tracemalloc

import numpy as np
import pytest

import csemb.engine
from csemb import (
    EmbedConfig,
    cluster_experiment,
    fold_seed,
    indicator_above,
    kmeans,
    modularity,
    normalized_adjacency,
    fast_embed_cascaded,
)
from csemb.cluster import _KMEANS_SEED_TAG, KMEANS_MAX_ITERS, _plus_plus_init
from csemb.engine import uniform_draws
from helpers import sbm


class TestKmeans:
    def test_separated_groups_recovered(self):
        rng = np.random.default_rng(0)
        X = np.vstack([rng.normal(0, 0.05, (25, 3)), rng.normal(10, 0.05, (25, 3))])
        km = kmeans(X, 2, seed=0)
        assert len(set(km.labels[:25])) == 1
        assert len(set(km.labels[25:])) == 1
        assert km.labels[0] != km.labels[-1]

    def test_k_equals_n(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((12, 2))
        km = kmeans(X, 12, seed=3)
        assert km.inertia == pytest.approx(0.0, abs=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((60, 4))
        a = kmeans(X, 5, seed=42)
        b = kmeans(X, 5, seed=42)
        assert np.array_equal(a.labels, b.labels)
        assert a.inertia == b.inertia

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((3, 2)), 4)

    @pytest.mark.parametrize("seed", range(8))
    def test_inertia_non_increasing(self, seed):
        rng = np.random.default_rng(seed)
        X = np.vstack(
            [rng.normal(c, 0.5, (20, 3)) for c in (0.0, 1.0, 2.0)]
        )
        km = kmeans(X, 12, seed=seed)
        hist = np.array(km.inertia_history)
        assert np.all(np.diff(hist) <= 1e-9 * np.maximum(hist[:-1], 1.0))

    def test_labels_in_range(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((50, 2))
        km = kmeans(X, 20, seed=9)
        assert km.labels.min() >= 0 and km.labels.max() < 20


def _reference_kmeans(X, K, seed):
    """k-means as first written: full distance formula on every call and
    centroid sums by np.add.at, seeded by draws 0..K-1 of ``seed`` with the
    arithmetic of numpy's ``choice``. Returns (labels, inertia history,
    reseeds)."""

    def sq(X, C):
        d2 = np.sum(X * X, axis=1)[:, None] + np.sum(C * C, axis=1)[None, :] - 2.0 * (X @ C.T)
        return np.maximum(d2, 0.0)

    n = X.shape[0]
    u = uniform_draws(seed, np.arange(K, dtype=np.uint64))
    centroids = np.empty((K, X.shape[1]))
    centroids[0] = X[int(np.floor(u[0] * n))]
    closest = sq(X, centroids[:1])[:, 0]
    for k in range(1, K):
        cdf = np.cumsum(closest)
        if cdf[-1] <= 0.0:
            pick = int(np.floor(u[k] * n))
        else:
            pick = int(np.searchsorted(cdf / cdf[-1], u[k], side="right"))
        centroids[k] = X[pick]
        closest = np.minimum(closest, sq(X, centroids[k : k + 1])[:, 0])
    labels = np.full(n, -1, dtype=np.int64)
    history, reseeds = [], 0
    for _ in range(KMEANS_MAX_ITERS):
        d2 = sq(X, centroids)
        new = np.argmin(d2, axis=1).astype(np.int64)
        mindist = d2[np.arange(n), new]
        history.append(float(mindist.sum()))
        empties = np.flatnonzero(np.bincount(new, minlength=K) == 0)
        if len(empties):
            avail = mindist.copy()
            for c in empties:
                far = int(np.argmax(avail))
                centroids[c] = X[far]
                new[far] = c
                avail[far] = -1.0
            labels, reseeds = new, reseeds + len(empties)
            continue
        converged = np.array_equal(new, labels)
        labels = new
        if converged:
            break
        sums = np.zeros_like(centroids)
        np.add.at(sums, labels, X)
        centroids = sums / np.bincount(labels, minlength=K)[:, None]
    return labels, history, reseeds


class TestPlusPlusSeeding:
    def test_picks_in_proportion_to_squared_distance(self):
        # five points on a line: the first centroid is each row with chance
        # 1/5, and after row a the second is row b with chance
        # D^2(a, b) / sum D^2. Over 20,000 seeds each first pick holds about
        # 4,000 draws, so a chance reads within 0.008 (one binomial standard
        # error at worst); the bound is 5 standard errors.
        X = np.array([[0.0], [1.0], [3.0], [4.0], [8.0]])
        n, seeds = len(X), 20_000
        x_sq = np.sum(X * X, axis=1)
        counts = np.zeros((n, n))
        for seed in range(seeds):
            first, second = _plus_plus_init(X, x_sq, 2, seed)[:, 0]
            counts[np.flatnonzero(X[:, 0] == first)[0], np.flatnonzero(X[:, 0] == second)[0]] += 1
        d2 = (X - X.T) ** 2
        for a in range(n):
            drawn = counts[a].sum()
            assert abs(drawn / seeds - 1 / n) <= 5 * math.sqrt(1 / n * (1 - 1 / n) / seeds)
            expected = d2[a] / d2[a].sum()
            se = np.sqrt(expected * (1 - expected) / drawn)
            assert counts[a, a] == 0
            assert np.all(np.abs(counts[a] / drawn - expected) <= 5 * se + 1e-12)

    def test_chosen_point_never_picked_again(self):
        # K = n distinct points of a small integer grid, whose distances are
        # exact: a chosen row is at D^2 = 0, so the centroids are the n rows
        X = np.indices((4, 3)).reshape(2, -1).T.astype(np.float64)
        x_sq = np.sum(X * X, axis=1)
        for seed in range(200):
            centroids = _plus_plus_init(X, x_sq, len(X), seed)
            assert np.array_equal(np.unique(centroids, axis=0), X)


class TestKmeansBits:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(50, 600)), int(rng.integers(1, 20))
        X = rng.standard_normal((n, d)) * rng.uniform(0.1, 10.0, d)
        K = int(rng.integers(1, 30))
        labels, history, _ = _reference_kmeans(X, K, seed)
        km = kmeans(X, K, seed=seed)
        assert np.array_equal(km.labels, labels)
        assert km.inertia_history == tuple(history)

    def test_matches_reference_through_reseeds(self):
        # four distinct points, each 10 times, and K = 6: seeding runs out of
        # distinct points, so Lloyd starts with duplicate centroids and empties
        rng = np.random.default_rng(11)
        X = np.repeat(rng.standard_normal((4, 3)), 10, axis=0)[rng.permutation(40)]
        labels, history, reseeds = _reference_kmeans(X, 6, 3)
        assert reseeds > 0
        km = kmeans(X, 6, seed=3)
        assert np.array_equal(km.labels, labels)
        assert km.inertia_history == tuple(history)


class TestKmeansTiles:
    """The Lloyd passes after the product run a tile of
    ``engine.BLOCK_BYTES // (8 K)`` rows at a time; no bit depends on it."""

    @pytest.mark.parametrize("reseeds", [False, True], ids=["mixture", "reseeds"])
    @pytest.mark.parametrize("tile_rows", [1, 7, None], ids=["tile1", "tile7", "default"])
    def test_matches_reference(self, monkeypatch, tile_rows, reseeds):
        K = 6 if reseeds else 17
        if tile_rows is None:
            tile = csemb.engine.BLOCK_BYTES // (8 * K)
            n = tile + tile // 3 + 1
        else:
            monkeypatch.setattr(csemb.engine, "BLOCK_BYTES", 8 * K * tile_rows)
            tile, n = tile_rows, 7 * 43 + 4
        assert n > tile and (tile == 1 or n % tile)  # a ragged last tile
        rng = np.random.default_rng(n)
        if reseeds:  # four distinct points and K = 6, as in TestKmeansBits
            X = rng.standard_normal((4, 3))[rng.integers(4, size=n)]
        else:
            X = rng.standard_normal((n, 9)) * rng.uniform(0.1, 10.0, 9)
        labels, history, n_reseeds = _reference_kmeans(X, K, 5)
        assert (n_reseeds > 0) == reseeds
        km = kmeans(X, K, seed=5)
        assert np.array_equal(km.labels, labels)
        assert km.inertia_history == tuple(history)

    def test_peak_memory(self):
        # one n x K product buffer and one tile; three n x K arrays were
        # alive at once when each pass allocated its own (3.08 n K 8 bytes)
        n, d, K = 20_000, 60, 40
        rng = np.random.default_rng(12)
        X = rng.standard_normal((K, d))[rng.integers(K, size=n)] + rng.standard_normal((n, d))
        tracemalloc.start()
        try:
            kmeans(X, K, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * K * 8


class TestModularity:
    def test_single_cluster_zero(self):
        score = modularity([(0, 1), (1, 2)], np.zeros(3, dtype=int))
        assert score == pytest.approx(0.0)

    def test_two_components(self):
        score = modularity([(0, 1), (2, 3)], np.array([0, 0, 1, 1]))
        assert score == pytest.approx(0.5)

    def test_triangle_singletons(self):
        score = modularity([(0, 1), (1, 2), (0, 2)], np.array([0, 1, 2]))
        assert score == pytest.approx(-1 / 3)

    def test_relabeling_invariant(self):
        rng = np.random.default_rng(3)
        edges, labels = sbm(60, 3, 0.4, 0.05, rng)
        q1 = modularity(edges, labels)
        perm = np.array([2, 0, 1])
        q2 = modularity(edges, perm[labels])
        assert q1 == pytest.approx(q2, abs=1e-14)

    def test_random_labels_concentrate_near_zero(self):
        rng = np.random.default_rng(4)
        n = 2000
        iu, ju = np.triu_indices(n, k=1)
        keep = rng.random(len(iu)) < 0.003
        edges = np.stack([iu[keep], ju[keep]], axis=1)
        labels = rng.integers(0, 10, size=n)
        assert abs(modularity(edges, labels)) <= 0.05

    def test_empty_edges_rejected(self):
        with pytest.raises(ValueError):
            modularity(np.empty((0, 2), dtype=int), np.zeros(3, dtype=int))

    def test_self_loops_and_duplicates_ignored(self):
        q1 = modularity([(0, 1), (2, 3)], np.array([0, 0, 1, 1]))
        q2 = modularity([(0, 1), (1, 0), (0, 0), (2, 3)], np.array([0, 0, 1, 1]))
        assert q1 == q2

    @pytest.mark.parametrize("K", [1, 2, 9, 40])
    def test_equals_formula_on_distinct_pairs(self, K):
        # the score counts each edge from both of its ends and halves the
        # intra-cluster count; the formula on the distinct pairs counts once
        rng = np.random.default_rng(K)
        n = 300
        edges = rng.integers(0, n, size=(1500, 2))
        edges = np.concatenate([edges, edges[:400, ::-1], edges[:50, [0, 0]]])
        labels = rng.integers(0, K, size=n)
        pairs = np.unique(np.sort(edges[edges[:, 0] != edges[:, 1]], axis=1), axis=0)
        m, k = len(pairs), int(labels.max()) + 1
        lu, lv = labels[pairs[:, 0]], labels[pairs[:, 1]]
        intra = np.bincount(lu[lu == lv], minlength=k)
        degsum = np.bincount(labels, weights=np.bincount(pairs.ravel(), minlength=n), minlength=k)
        expected = float(np.sum(intra / m - (degsum / (2.0 * m)) ** 2))
        assert modularity(edges, labels) == expected

    def test_endpoint_beyond_labels_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            modularity([(0, 1), (1, 3)], np.zeros(3, dtype=int))


class TestClusterExperiment:
    def test_single_run_equals_one_kmeans(self):
        rng = np.random.default_rng(5)
        edges, _ = sbm(120, 4, 0.3, 0.02, rng)
        cfg = EmbedConfig(L=20, d=12, b=2, seed=7)
        result = cluster_experiment(
            normalized_adjacency(edges, 120), indicator_above(0.3), cfg, K=4, runs=1
        )
        adj = normalized_adjacency(edges, 120)
        emb = fast_embed_cascaded(adj, indicator_above(0.3), cfg)
        km = kmeans(emb.values, 4, seed=fold_seed(cfg.seed, _KMEANS_SEED_TAG))
        assert np.array_equal(result.median_labels, km.labels)
        assert result.median_modularity == pytest.approx(
            modularity(edges, km.labels), abs=1e-14
        )

    def test_reports_all_runs(self):
        rng = np.random.default_rng(6)
        edges, _ = sbm(90, 3, 0.3, 0.02, rng)
        cfg = EmbedConfig(L=12, d=10, seed=8)
        result = cluster_experiment(
            normalized_adjacency(edges, 90), indicator_above(0.3), cfg, K=3, runs=5
        )
        assert len(result.run_scores) == 5
        assert result.median_modularity == pytest.approx(
            float(np.median(result.run_scores))
        )
        assert len(result.median_labels) == 90

    def test_even_runs_report_the_written_labels(self):
        # with four runs the reported score is the lower median, the score of
        # the labels returned, not the mean of the two middle runs
        rng = np.random.default_rng(4)
        edges, _ = sbm(120, 4, 0.3, 0.05, rng)
        cfg = EmbedConfig(L=12, d=8, seed=4)
        result = cluster_experiment(
            normalized_adjacency(edges, 120), indicator_above(0.3), cfg, K=4, runs=4
        )
        ranked = sorted(result.run_scores)
        assert ranked[1] < ranked[2]
        assert result.median_modularity == ranked[1]
        assert result.median_modularity == modularity(edges, result.median_labels)
