"""Readers and writers: edge lists, Matrix Market, point clouds, embeddings.

The embedding container is a little-endian binary file: an 8-byte magic tag,
two uint64 header words (n_rows, d), then n_rows*d float64 values row-major.
"""

from __future__ import annotations

import struct

import numpy as np
import scipy.io

from .errors import InputFormatError
from .sparse import SparseMatrix

EMBEDDING_MAGIC = b"CSEMB001"
_HEADER = struct.Struct("<QQ")


def read_edgelist(path) -> tuple[np.ndarray, int]:
    """Whitespace-separated ``u v`` lines, ``#`` comments ignored.

    Returns the raw edge array and the inferred vertex count (max index + 1);
    duplicate/self-loop handling happens downstream.
    """
    try:
        edges = np.loadtxt(path, comments="#", usecols=(0, 1), dtype=np.int64, ndmin=2)
    except (ValueError, OSError) as exc:
        raise InputFormatError(f"cannot parse edge list {path}: {exc}") from exc
    if edges.size == 0:
        return np.empty((0, 2), dtype=np.int64), 0
    if edges.min() < 0:
        raise InputFormatError(f"negative vertex id in {path}")
    return edges, int(edges.max()) + 1


def read_matrix_market(path) -> SparseMatrix:
    """Coordinate-format Matrix Market file (general or symmetric)."""
    try:
        m = scipy.io.mmread(path)
    except (ValueError, OSError) as exc:
        raise InputFormatError(f"cannot parse Matrix Market file {path}: {exc}") from exc
    if isinstance(m, np.ndarray):
        return SparseMatrix.from_dense(m)
    return SparseMatrix.from_scipy(m)


def read_points_csv(path) -> np.ndarray:
    """One point per line, comma-separated real coordinates."""
    try:
        pts = np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)
    except (ValueError, OSError) as exc:
        raise InputFormatError(f"cannot parse point cloud {path}: {exc}") from exc
    if pts.size == 0:
        raise InputFormatError(f"no points in {path}")
    return pts


def write_embedding(path, values: np.ndarray) -> None:
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError("embedding must be a 2-d array")
    with open(path, "wb") as fh:
        fh.write(EMBEDDING_MAGIC)
        fh.write(_HEADER.pack(values.shape[0], values.shape[1]))
        fh.write(values.astype("<f8", copy=False).data)


def read_embedding(path) -> np.ndarray:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise InputFormatError(f"cannot read embedding {path}: {exc}") from exc
    head = len(EMBEDDING_MAGIC) + _HEADER.size
    if len(blob) < head or blob[: len(EMBEDDING_MAGIC)] != EMBEDDING_MAGIC:
        raise InputFormatError(f"{path} is not an embedding file (bad magic)")
    n_rows, d = _HEADER.unpack_from(blob, len(EMBEDDING_MAGIC))
    expected = head + 8 * n_rows * d
    if len(blob) != expected:
        raise InputFormatError(
            f"{path}: payload length {len(blob) - head} does not match header"
        )
    values = np.frombuffer(blob, dtype="<f8", offset=head).reshape(n_rows, d)
    return values.astype(np.float64)


def write_embedding_csv(path, values: np.ndarray) -> None:
    np.savetxt(path, np.asarray(values, dtype=np.float64), delimiter=",", fmt="%.17g")


def write_labels_csv(path, labels: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write("vertex_id,cluster_id\n")
        for i, c in enumerate(np.asarray(labels)):
            fh.write(f"{i},{int(c)}\n")
