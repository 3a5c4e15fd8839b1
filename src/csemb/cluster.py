"""Downstream validation: K-means on embedding rows, scored by graph modularity."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine
from .engine import EmbedConfig, fast_embed_cascaded, fold_seed
from .sparse import SparseMatrix, adjacency_pattern, normalized_adjacency, spmv_multi

_KMEANS_SEED_TAG = 0x6B6D6531  # distinct stream from projection sampling
KMEANS_MAX_ITERS = 100


@dataclass
class ClusterAssignment:
    labels: np.ndarray
    inertia: float
    n_iters: int = 0
    inertia_history: tuple[float, ...] = ()


def sq_distances(X: np.ndarray, C: np.ndarray, x_sq: np.ndarray | None = None) -> np.ndarray:
    """Squared Euclidean distances between the rows of X and of C, as
    max(|x|^2 + |c|^2 - 2 x.c, 0). ``x_sq`` holds the precomputed
    ``sum(X * X, axis=1)`` when X is reused against many C."""
    if x_sq is None:
        x_sq = np.sum(X * X, axis=1)
    out = np.empty((X.shape[0], C.shape[0]))
    return _distances_into(x_sq, np.sum(C * C, axis=1), X @ C.T, out)


def _distances_into(x_sq, c_sq, g, out) -> np.ndarray:
    """Write max(|x|^2 + |c|^2 - 2 g, 0) into ``out`` and return it, where
    ``g`` holds the rows' X @ C.T; ``g`` is doubled in place."""
    np.add(x_sq[:, None], c_sq[None, :], out=out)
    g *= 2.0
    out -= g
    return np.maximum(out, 0.0, out=out)


def _plus_plus_init(X: np.ndarray, x_sq: np.ndarray, K: int, seed: int) -> np.ndarray:
    """k-means++ seeding by draws u_0..u_{K-1} of ``seed``: row floor(u_0 n),
    then each row with chance D^2 / sum D^2 by numpy's ``choice`` arithmetic
    (the first row whose normalised cumulative D^2 exceeds u_k), so a chosen
    row, at D^2 = 0, is never picked again; row floor(u_k n) if all D^2 = 0."""
    n = X.shape[0]
    u = engine.uniform_draws(seed, np.arange(K, dtype=np.uint64))
    centroids = np.empty((K, X.shape[1]))
    centroids[0] = X[int(u[0] * n)]
    closest = sq_distances(X, centroids[:1], x_sq)[:, 0]
    cdf = np.empty(n)
    for k in range(1, K):
        np.cumsum(closest, out=cdf)
        if cdf[-1] <= 0.0:
            pick = int(u[k] * n)
        else:
            cdf /= cdf[-1]
            pick = int(np.searchsorted(cdf, u[k], side="right"))
        centroids[k] = X[pick]
        np.minimum(closest, sq_distances(X, centroids[k : k + 1], x_sq)[:, 0], out=closest)
    return centroids


def _centroid_sums(rows: np.ndarray, labels: np.ndarray, K: int) -> np.ndarray:
    """Per-cluster row sums through the sparse product kernel: a K x n one-hot
    matrix from ``from_coo``, whose ``coo_tocsr`` keeps each cluster's members
    in increasing row order, so every sum accumulates from 0.0 in row order,
    the bits of ``np.add.at``."""
    n = len(labels)
    members = SparseMatrix.from_coo(labels, np.arange(n), np.ones(n), K, n)
    return spmv_multi(members, rows)


def kmeans(X: np.ndarray, K: int, seed: int = 0) -> ClusterAssignment:
    """At most ``KMEANS_MAX_ITERS`` Lloyd iterations with distance-weighted
    seeding, deterministic per seed.

    Empty clusters are re-seeded at the point currently farthest from its
    centroid, which keeps the inertia sequence non-increasing.

    Each iteration writes ``X @ C.T`` into one n x K buffer; the elementwise
    and per-row passes after it run a tile of rows at a time, so no bit
    depends on the tile. A row slice of a BLAS product need not equal the
    same rows of the whole product, so the product itself is not tiled.
    """
    rows = np.asarray(X, dtype=np.float64)
    n = rows.shape[0]
    if not 1 <= K <= n:
        raise ValueError(f"K={K} must lie in [1, n_rows={n}]")
    tile = max(1, engine.BLOCK_BYTES // (8 * K))  # rows per pass over an n x K array
    tiles = [slice(lo, lo + tile) for lo in range(0, n, tile)]
    x_sq = np.concatenate([np.sum(rows[t] * rows[t], axis=1) for t in tiles])
    centroids = _plus_plus_init(rows, x_sq, K, seed)
    g = np.empty((n, K))
    d2 = np.empty((min(tile, n), K))
    mindist = np.empty(n)
    labels = np.full(n, -1, dtype=np.int64)
    new_labels = np.empty(n, dtype=np.int64)
    history: list[float] = []
    for _ in range(KMEANS_MAX_ITERS):
        np.matmul(rows, centroids.T, out=g)
        c_sq = np.sum(centroids * centroids, axis=1)
        for t in tiles:
            gt, lab = g[t], new_labels[t]
            dt = _distances_into(x_sq[t], c_sq, gt, d2[: len(gt)])
            np.argmin(dt, axis=1, out=lab)
            mindist[t] = dt[np.arange(len(dt)), lab]
        inertia = float(mindist.sum())
        if history and inertia > history[-1] * (1.0 + 1e-9) + 1e-12:
            raise RuntimeError("k-means inertia increased; numerical invariant broken")
        history.append(inertia)

        counts = np.bincount(new_labels, minlength=K)
        empties = np.flatnonzero(counts == 0)
        converged = np.array_equal(new_labels, labels)
        labels, new_labels = new_labels, labels
        if len(empties):
            avail = mindist.copy()
            for c in empties:
                far = int(np.argmax(avail))
                centroids[c] = rows[far]
                labels[far] = c
                avail[far] = -1.0
            continue
        if converged:
            break
        centroids = _centroid_sums(rows, labels, K) / counts[:, None]
    return ClusterAssignment(
        labels=labels,
        inertia=history[-1],
        n_iters=len(history),
        inertia_history=tuple(history),
    )


def modularity(edges, labels: np.ndarray) -> float:
    """Newman modularity Q = sum_c (intra_c / m - (degsum_c / 2m)^2) of an
    undirected simple graph under a labeling of its ``len(labels)`` vertices."""
    return _score(*adjacency_pattern(edges, len(labels)), np.asarray(labels, dtype=np.int64))


def _score(offs: np.ndarray, cols: np.ndarray, labels: np.ndarray) -> float:
    """Modularity under int64 ``labels`` of the pattern ``(offs, cols)`` of
    :func:`normalized_adjacency`, which stores each edge once per end: the
    intra-cluster entries count each edge twice, and halving them is exact."""
    m = len(cols) // 2
    if m == 0:
        raise ValueError("modularity needs at least one edge")
    deg = np.diff(offs)
    k = int(labels.max()) + 1
    row_labels = np.repeat(labels, deg)
    intra = np.bincount(row_labels[row_labels == labels[cols]], minlength=k) // 2
    degsum = np.bincount(labels, weights=deg, minlength=k)
    q = float(np.sum(intra / m - (degsum / (2.0 * m)) ** 2))
    if not -0.5 - 1e-9 <= q <= 1.0 + 1e-9:
        raise ValueError(f"modularity {q} outside [-0.5, 1]")
    return q


@dataclass
class ClusterExperiment:
    """Every restart's modularity, and the median restart's labels and score:
    the lower median for an even count, so the score is that of the labels."""

    median_modularity: float
    run_scores: tuple[float, ...]
    median_labels: np.ndarray


def cluster_experiment(
    edges,
    n: int,
    f,
    cfg: EmbedConfig,
    K: int,
    runs: int = 25,
    n_workers: int = 1,
) -> ClusterExperiment:
    """Embed the graph's normalized adjacency compressively, then score
    ``runs`` seeded K-means restarts by modularity and report the median.

    The normalized adjacency already has spectrum in [-1, 1], so no norm
    estimation happens here. Every restart is scored on the adjacency's
    pattern, whose offsets and columns are all that is kept after the embed.
    A K outside [1, n], or a graph with no edge between two distinct
    vertices (it has no modularity), is refused before the embed.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    if not 1 <= K <= n:
        raise ValueError(f"K={K} must lie in [1, n={n}]")
    S = normalized_adjacency(edges, n)
    if S.nnz == 0:
        raise ValueError("modularity needs at least one edge between two distinct vertices")
    offs, cols = S.row_offsets, S.col_indices
    emb = fast_embed_cascaded(S, f, cfg, n_workers=n_workers)
    del S
    scores = []
    assignments = []
    for run in range(runs):
        km = kmeans(emb.values, K, seed=fold_seed(cfg.seed, _KMEANS_SEED_TAG + run))
        scores.append(_score(offs, cols, km.labels))
        assignments.append(km)
    order = np.argsort(scores, kind="stable")
    median_idx = int(order[(runs - 1) // 2])
    return ClusterExperiment(
        median_modularity=scores[median_idx],
        run_scores=tuple(scores),
        median_labels=assignments[median_idx].labels,
    )
