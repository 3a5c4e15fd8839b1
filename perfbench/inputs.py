"""Seeded input generators for the benchmark workloads.

Every generator draws from ``numpy.random.default_rng(seed)`` and works in
memory proportional to the number of edges or stored entries it returns,
never to n^2, so the same code serves desk-scale and large inputs.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _canonical_edges(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Undirected simple edges (u < v), sorted, duplicates and loops dropped."""
    keep = u != v
    lo = np.minimum(u[keep], v[keep])
    hi = np.maximum(u[keep], v[keep])
    return np.unique(np.stack([lo, hi], axis=1), axis=0).astype(np.int64)


def uniform_graph(n: int, m: int, seed: int) -> np.ndarray:
    """About ``m`` distinct edges between uniformly drawn vertex pairs."""
    rng = np.random.default_rng(seed)
    return _canonical_edges(rng.integers(0, n, m), rng.integers(0, n, m))


def planted_blocks(n: int, blocks: int, deg_in: float, deg_out: float, seed: int):
    """Planted-partition graph: ``blocks`` equal contiguous blocks, expected
    intra-block degree ``deg_in`` and inter-block degree ``deg_out``.

    Intra edges pair a uniform vertex with a uniform vertex of its own block;
    inter edges pair a uniform vertex with a uniform vertex of another block.
    Returns ``(edges, labels)``.
    """
    rng = np.random.default_rng(seed)
    size = n // blocks
    labels = np.minimum(np.arange(n) // size, blocks - 1)
    starts = np.arange(blocks) * size
    sizes = np.append(np.full(blocks - 1, size), n - size * (blocks - 1))

    m_in = int(round(n * deg_in / 2))
    u = rng.integers(0, n, m_in)
    b = labels[u]
    v_in = starts[b] + (rng.random(m_in) * sizes[b]).astype(np.int64)

    m_out = int(round(n * deg_out / 2))
    w = rng.integers(0, n, m_out)
    other = (labels[w] + rng.integers(1, blocks, m_out)) % blocks
    v_out = starts[other] + (rng.random(m_out) * sizes[other]).astype(np.int64)

    edges = _canonical_edges(np.concatenate([u, w]), np.concatenate([v_in, v_out]))
    return edges, labels


def heavy_tailed_matrix(m: int, n: int, nnz: int, seed: int, alpha: float = 2.5):
    """An m x n matrix with about ``nnz`` distinct stored entries: rows drawn
    uniformly, columns from a power law (the column of rank c is drawn with
    weight ~ (c+1)^(1/alpha - 1), ranks shuffled by seed), values uniform in
    [0.5, 1.5).

    Returns ``(rows, cols, vals)`` sorted by (row, col).
    """
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, m, nnz)
    rank = np.minimum((n * rng.random(nnz) ** alpha).astype(np.int64), n - 1)
    cols = rng.permutation(n)[rank]
    keys = np.unique(rows.astype(np.int64) * n + cols)
    rows, cols = keys // n, keys % n
    vals = rng.uniform(0.5, 1.5, len(keys))
    return rows, cols, vals


def write_edgelist(path, edges: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(f"{u} {v}" for u, v in edges.tolist()))
        fh.write("\n")


def write_matrix_market(path, m: int, n: int, rows, cols, vals) -> None:
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        fh.write(f"{m} {n} {len(vals)}\n")
        fh.write(
            "\n".join(
                f"{r} {c} {x!r}"
                for r, c, x in zip((rows + 1).tolist(), (cols + 1).tolist(), vals.tolist())
            )
        )
        fh.write("\n")


def sha256_of(path) -> str | None:
    """Hex digest of a file's bytes, or None when it cannot be read."""
    h = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    except OSError:
        return None
    return h.hexdigest()
