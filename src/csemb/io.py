"""Readers and writers: edge lists, Matrix Market, point clouds, embeddings.

The embedding container is a little-endian binary file: an 8-byte magic tag,
two uint64 header words (n_rows, d), then n_rows*d float64 values row-major.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import InputFormatError
from .sparse import SparseMatrix

EMBEDDING_MAGIC = b"CSEMB001"
_HEADER = struct.Struct("<QQ")
# the Matrix Market fields each format is read with, and the symmetries
_MM_FIELDS = {"coordinate": ("real", "integer", "pattern"), "array": ("real", "integer")}
_MM_SYMMETRIES = ("general", "symmetric", "skew-symmetric")


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
    """Matrix Market file: the coordinate format with a real, integer or
    pattern field, or the array format with a real or integer field; each
    general, symmetric or skew-symmetric.

    Symmetric files hold one triangle, and each off-diagonal entry is
    mirrored, negated for skew-symmetric, as ``scipy.io.mmread`` does.
    Complex and hermitian files, an entry count other than the header's, an
    index outside [1, rows] or [1, cols] and a non-finite value raise
    :class:`InputFormatError`.
    """
    try:
        with open(path) as fh:
            banner = fh.readline().lower().split()
            if banner[:2] != ["%%matrixmarket", "matrix"] or len(banner) != 5:
                raise InputFormatError(f"{path} has no Matrix Market banner")
            fmt, field, symmetry = banner[2:]
            if field not in _MM_FIELDS.get(fmt, ()) or symmetry not in _MM_SYMMETRIES:
                raise InputFormatError(f"{path}: unsupported Matrix Market {' '.join(banner[2:])}")
            line = fh.readline()
            while line.startswith("%") or (line and not line.strip()):
                line = fh.readline()
            size = [int(x) for x in line.split()]
            if len(size) != (3 if fmt == "coordinate" else 2) or min(size) < 0:
                raise InputFormatError(f"{path}: bad size line {line.strip()!r}")
            m, n = size[:2]
            if symmetry != "general" and m != n:
                raise InputFormatError(f"{path}: a {symmetry} matrix must be square")
            if fmt == "coordinate":
                count, width = size[2], 2 if field == "pattern" else 3
            else:
                triangle = n * (n + 1) // 2  # values of a symmetric array file
                count = {"general": m * n, "symmetric": triangle}.get(symmetry, triangle - n)
                width = 1
            if count:
                entries = np.loadtxt(fh, comments=None, ndmin=2)
            elif fh.read().strip():
                raise InputFormatError(f"{path}: entries follow a header that declares none")
            else:
                entries = np.empty((0, width))
    except (ValueError, OSError) as exc:
        raise InputFormatError(f"cannot parse Matrix Market file {path}: {exc}") from exc
    if entries.shape != (count, width):
        raise InputFormatError(
            f"{path}: the header declares {count} entries of {width} numbers each, "
            f"the file holds {entries.shape[0]} lines of {entries.shape[1]}"
        )
    if not np.all(np.isfinite(entries)):
        raise InputFormatError(f"{path}: non-finite value")
    sign = -1.0 if symmetry == "skew-symmetric" else 1.0
    if fmt == "array":
        a = np.zeros((m, n))
        if symmetry == "general":
            a[...] = entries.reshape(n, m).T
        else:
            # the lower triangle column by column, strictly lower for skew-symmetric
            j, i = np.triu_indices(n, 0 if symmetry == "symmetric" else 1)
            a[i, j] = entries[:, 0]
            a[j, i] = sign * entries[:, 0]
        return SparseMatrix.from_dense(a)
    rows, cols = entries[:, 0] - 1, entries[:, 1] - 1
    vals = entries[:, 2] if field != "pattern" else np.ones(count)
    if count and (
        np.any(rows % 1 != 0) or np.any(cols % 1 != 0)
        or rows.min() < 0 or rows.max() >= m or cols.min() < 0 or cols.max() >= n
    ):
        raise InputFormatError(f"{path}: entry index outside the 1-based {m}x{n} range")
    if symmetry != "general":
        off = rows != cols
        rows, cols = np.concatenate([rows, cols[off]]), np.concatenate([cols, rows[off]])
        vals = np.concatenate([vals, sign * vals[off]])
    return SparseMatrix.from_coo(rows, cols, vals, m, n)


def read_points_csv(path) -> np.ndarray:
    """One point per line, comma-separated real coordinates."""
    try:
        pts = np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)
    except (ValueError, OSError) as exc:
        raise InputFormatError(f"cannot parse point cloud {path}: {exc}") from exc
    if pts.size == 0:
        raise InputFormatError(f"no points in {path}")
    if not np.all(np.isfinite(pts)):
        raise InputFormatError(f"{path}: non-finite coordinate")
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
