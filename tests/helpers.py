"""Shared generators for the test suite: random matrices and synthetic graphs,
and a runner for code that needs a fresh interpreter."""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np

import csemb
from csemb import SparseMatrix


def run_python(code: str) -> str:
    """Run ``code`` in a fresh interpreter that imports this checkout's csemb."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(csemb.__path__[0]))
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    return run.stdout.strip()


def random_symmetric(n: int, rng: np.random.Generator, density: float = 1.0,
                     spectral_norm: float | None = 0.95) -> np.ndarray:
    """Dense random symmetric matrix, optionally rescaled to a target norm."""
    a = rng.standard_normal((n, n))
    if density < 1.0:
        a *= rng.random((n, n)) < density
    a = 0.5 * (a + a.T)
    if spectral_norm is not None:
        top = np.linalg.norm(a, 2)
        if top > 0:
            a *= spectral_norm / top
    return a


def symmetric_with_spectrum(eigenvalues, rng: np.random.Generator) -> np.ndarray:
    """Dense symmetric matrix with a prescribed spectrum (Haar-random basis)."""
    lam = np.asarray(eigenvalues, dtype=np.float64)
    q, _ = np.linalg.qr(rng.standard_normal((len(lam), len(lam))))
    return (q * lam) @ q.T


def sbm(n: int, blocks: int, p_in: float, p_out: float, rng: np.random.Generator):
    """Planted stochastic block model; returns (edges, true_labels)."""
    labels = np.repeat(np.arange(blocks), n // blocks)
    labels = np.concatenate([labels, np.full(n - len(labels), blocks - 1)])
    iu, ju = np.triu_indices(n, k=1)
    probs = np.where(labels[iu] == labels[ju], p_in, p_out)
    keep = rng.random(len(iu)) < probs
    edges = np.stack([iu[keep], ju[keep]], axis=1).astype(np.int64)
    return edges, labels


def ring_graph(n: int, width: int = 2) -> np.ndarray:
    """Circulant graph: vertex i linked to i +- 1..width (mod n)."""
    chunks = []
    base = np.arange(n, dtype=np.int64)
    for k in range(1, width + 1):
        chunks.append(np.stack([base, (base + k) % n], axis=1))
    return np.concatenate(chunks, axis=0)


def dense_weighted(dense: np.ndarray, f) -> np.ndarray:
    """f(S) for dense symmetric S by full eigendecomposition (test oracle)."""
    lam, v = np.linalg.eigh(dense)
    w = np.atleast_1d(np.asarray(f(lam), dtype=np.float64))
    return (v * w) @ v.T


def sparse_from(dense: np.ndarray) -> SparseMatrix:
    return SparseMatrix.from_dense(dense)


def explicit_dilation(A: SparseMatrix) -> SparseMatrix:
    """The dilation [0 A^T; A 0] stored as a matrix of 2 nnz entries, the
    reference for the ``dilate`` operator's products."""
    m, n = A.shape
    rows = np.repeat(np.arange(m), np.diff(A.row_offsets))
    cols = A.col_indices
    return SparseMatrix.from_coo(np.concatenate([cols, rows + n]), np.concatenate([rows + n, cols]),
                                 np.concatenate([A.values, A.values]), m + n, m + n)


def pairwise_distances(rows: np.ndarray) -> np.ndarray:
    sq = np.sum(rows * rows, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (rows @ rows.T)
    iu = np.triu_indices(rows.shape[0], k=1)
    return np.sqrt(np.maximum(d2[iu], 0.0))


def norm_input(kind: str) -> SparseMatrix:
    """A fixed operator for norm-estimate determinism checks: the dilation of
    a random sparse 6000 x 3000 matrix, or the normalized adjacency of a
    random graph on 20,000 vertices."""
    from csemb import dilate, normalized_adjacency

    rng = np.random.default_rng(31)
    if kind == "dilation":
        rows, cols = rng.integers(0, 6000, 60_000), rng.integers(0, 3000, 60_000)
        return dilate(SparseMatrix.from_coo(rows, cols, rng.standard_normal(60_000), 6000, 3000))
    return normalized_adjacency(rng.integers(0, 20_000, size=(100_000, 2)), 20_000)
