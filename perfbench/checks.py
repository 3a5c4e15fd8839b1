"""Output checks, run after each command has exited (outside every timed span).

Each check returns a list of failure messages; an empty list means the output
passed. The references here are the benchmark's own: a plain three-term
recursion with scipy CSR-times-vector products, graph matrices built from the
generated edges, and dense eigendecompositions for the desk-scale oracle.
The package supplies only the definitions the outputs are specified by: the
weighting function, its root and odd extension, the Legendre coefficients and
the sign projection.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np
import scipy.sparse as sp

REL_TOL = 1e-9  # plain recursion vs engine, relative to the column norm
PERCENTILE_TOL = 1e-9  # CLI's deviation percentiles vs recomputed ones


def normalized_adjacency(edges: np.ndarray, n: int) -> sp.csr_array:
    """D^-1/2 A D^-1/2 of a simple undirected graph given as (u < v) pairs."""
    deg = np.bincount(edges.ravel(), minlength=n).astype(np.float64)
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    vals = 1.0 / np.sqrt(deg[rows] * deg[cols])
    return sp.csr_array((vals, (rows, cols)), shape=(n, n))


def dilation(A: sp.csr_array) -> sp.csr_array:
    """[0 A^T; A 0]: the first n indices are A's columns, the last m its rows."""
    return sp.bmat([[None, A.T], [A, None]], format="csr")


def plain_filter(S, coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_r a(r) p_r(S) x by the three-term Legendre recursion."""
    acc = coeffs[0] * x
    q_prev2, q_prev = None, x
    for r in range(1, len(coeffs)):
        q = (2.0 - 1.0 / r) * (S @ q_prev)
        if r > 1:
            q -= (1.0 - 1.0 / r) * q_prev2
        acc = acc + coeffs[r] * q
        q_prev2, q_prev = q_prev, q
    return acc


def check_embedding(values, n_rows: int, d: int) -> list[str]:
    if values is None:
        return ["embedding missing or unreadable"]
    if values.shape != (n_rows, d):
        return [f"embedding shape {values.shape}, expected {(n_rows, d)}"]
    if not np.all(np.isfinite(values)):
        return ["embedding has non-finite values"]
    return []


def check_columns(values, reference: dict[int, np.ndarray], label: str) -> list[str]:
    """Compare output columns with independently recomputed ones."""
    failures = []
    for j, ref in reference.items():
        scale = max(float(np.linalg.norm(ref)), 1e-300)
        err = float(np.linalg.norm(values[:, j] - ref)) / scale
        if not err <= REL_TOL:
            failures.append(f"{label} column {j}: relative error {err:.3e} > {REL_TOL:g}")
    return failures


def check_products(meta: dict | None, L: int) -> list[str]:
    if meta is None:
        return ["metadata missing or unreadable"]
    if meta.get("spmv_products") != L:
        return [f"metadata spmv_products {meta.get('spmv_products')} != L {L}"]
    return []


def newman_modularity(edges: np.ndarray, labels: np.ndarray) -> float:
    m = len(edges)
    u, v = edges[:, 0], edges[:, 1]
    k = int(labels.max()) + 1
    same = labels[u] == labels[v]
    intra = np.bincount(labels[u][same], minlength=k)
    deg = np.bincount(edges.ravel(), minlength=len(labels))
    degsum = np.bincount(labels, weights=deg, minlength=k)
    return float(np.sum(intra / m - (degsum / (2.0 * m)) ** 2))


def read_labels(path) -> np.ndarray | None:
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError:
        return None
    if not rows or rows[0] != ["vertex_id", "cluster_id"]:
        return None
    try:
        ids = np.array([[int(a), int(b)] for a, b in rows[1:]], dtype=np.int64)
    except ValueError:
        return None
    if ids.size == 0 or not np.array_equal(ids[:, 0], np.arange(len(ids))):
        return None
    return ids[:, 1]


def check_cluster(summary: dict | None, labels, edges, n: int, K: int, runs: int) -> list[str]:
    if summary is None:
        return ["cluster summary missing or unreadable"]
    q = summary.get("median_modularity")
    if not isinstance(q, (int, float)) or not -0.5 <= q <= 1.0:
        return [f"median modularity {q!r} outside [-0.5, 1]"]
    failures = []
    if len(summary.get("run_scores", ())) != runs:
        failures.append(f"{len(summary.get('run_scores', ()))} run scores, expected {runs}")
    if labels is None or len(labels) != n:
        failures.append("labels do not cover every vertex exactly once")
    elif labels.min() < 0 or labels.max() >= K:
        failures.append(f"cluster ids outside [0, {K})")
    else:
        own = newman_modularity(edges, labels)
        if not math.isclose(own, q, rel_tol=1e-9, abs_tol=1e-12):
            failures.append(f"median labels score {own:.12f}, summary says {q:.12f}")
    return failures


def exact_rows(S_dense: np.ndarray, f) -> np.ndarray:
    lam, vec = np.linalg.eigh(S_dense)
    w = np.asarray(f(lam), dtype=np.float64)
    keep = w != 0.0
    return vec[:, keep] * w[keep]


def _unit_rows(X: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(X, axis=1)
    out = np.zeros_like(X)
    np.divide(X, norms[:, None], out=out, where=norms[:, None] > 0)
    return out


def deviations(exact: np.ndarray, approx: np.ndarray, pairs=None) -> np.ndarray:
    """Normalized-correlation deviation (approx - exact) over ``pairs``, or
    over all pairs i < j when ``pairs`` is None."""
    ce, ca = _unit_rows(exact), _unit_rows(approx)
    if pairs is None:
        iu = np.triu_indices(exact.shape[0], k=1)
        return (ca @ ca.T)[iu] - (ce @ ce.T)[iu]
    a, b = pairs[:, 0], pairs[:, 1]
    return np.einsum("ij,ij->i", ca[a], ca[b]) - np.einsum("ij,ij->i", ce[a], ce[b])


def read_json(path) -> dict | None:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def check_eval(report: dict | None, dev: np.ndarray) -> list[str]:
    """The CLI's deviation percentiles are finite, monotone, and equal to the
    percentiles of ``dev``, recomputed here over the same sampled pairs."""
    if report is None or "percentiles" not in report:
        return ["eval report missing or unreadable"]
    levels = sorted(report["percentiles"], key=float)
    values = [report["percentiles"][k] for k in levels]
    if not all(np.isfinite(values)):
        return ["eval percentiles not finite"]
    failures = []
    if any(b < a for a, b in zip(values, values[1:])):
        failures.append(f"eval percentiles not monotone: {values}")
    own = np.percentile(dev, [float(k) for k in levels])
    worst = float(np.max(np.abs(own - np.asarray(values))))
    if worst > PERCENTILE_TOL:
        failures.append(f"eval percentiles differ from recomputed ones by {worst:.3e}")
    return failures
