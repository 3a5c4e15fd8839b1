"""Readers and writers: edge lists, Matrix Market, point clouds, embeddings,
labels and JSON.

The embedding container is a little-endian binary file: an 8-byte magic tag,
two uint64 header words (n_rows, d), then n_rows*d float64 values row-major.
"""

from __future__ import annotations

import contextlib
import io as stdio
import json
import os
import re
import struct
import warnings

import numpy as np

from .errors import InputFormatError
from .sparse import SparseMatrix

EMBEDDING_MAGIC = b"CSEMB001"
_HEADER = struct.Struct("<QQ")
# the Matrix Market fields each format is read with, and the symmetries
_MM_FIELDS = {"coordinate": ("real", "integer", "pattern"), "array": ("real", "integer")}
_MM_SYMMETRIES = ("general", "symmetric", "skew-symmetric")
# the banner line, then comment and blank lines, then the size line; a line
# ends in LF, CRLF or CR
_MM_HEADER = re.compile(
    rb"([^\r\n]*)(?:\r\n?|\n)?(?:(?:%[^\r\n]*|[ \t\f\v]*)(?:\r\n?|\n))*([^\r\n]*)"
)
# a size-line token, in the index grammar; int() would also take "2_0"
_MM_INDEX = re.compile(rb"[+-]?[0-9]+")
# the columns of a coordinate, pattern and array entry
_MM_ENTRY = {"coordinate": "i8,i8,f8", "pattern": "i8,i8", "array": "f8,"}
# the bytes besides space, tab, CR and LF that np.loadtxt, reading latin-1,
# takes for blanks; the README grammar does not
_LOADTXT_BLANKS = b"\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0"


def loadtxt(source, **kwargs) -> np.ndarray:
    """``np.loadtxt(source, **kwargs)`` without numpy's warning that the input
    holds no data: each caller decides what no data means."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(source, **kwargs)


def read_edgelist(path) -> tuple[np.ndarray, int]:
    """Whitespace-separated ``u v`` lines, ``#`` comments ignored.

    Returns the raw edge array and the inferred vertex count (max index + 1);
    duplicate/self-loop handling happens downstream.
    """
    try:
        edges = loadtxt(path, comments="#", usecols=(0, 1), dtype=np.int64, ndmin=2)
    except (ValueError, OSError) as exc:
        raise InputFormatError(f"cannot parse edge list {path}: {exc}") from exc
    if edges.size == 0:
        return np.empty((0, 2), dtype=np.int64), 0
    if edges.min() < 0:
        raise InputFormatError(f"negative vertex id in {path}")
    return edges, int(edges.max()) + 1


def read_matrix_market(path) -> SparseMatrix:
    r"""Matrix Market file: the coordinate format with a real, integer or
    pattern field, or the array format with a real or integer field; each
    general, symmetric or skew-symmetric.

    The header is read here: a banner in any case, then comment (``%``) and
    blank lines, then the size line. Each entry is on a line of its own, with
    blank lines allowed between. Each number is a whole decimal token,
    ``[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?``, and an index or a size is
    ``[+-]?\d+``. Numbers are separated by spaces and tabs, and lines end in
    LF, CRLF or CR. The body is parsed by ``np.loadtxt``, an index as int64
    and a value as float64; an integer field is read as real.

    Symmetric files hold one triangle, and each off-diagonal entry is
    mirrored, negated for skew-symmetric, as ``scipy.io.mmread`` does.
    Complex and hermitian files, any other token or layout, an entry count
    other than the header's, an index outside [1, rows] or [1, cols] and a
    non-finite value raise :class:`InputFormatError`.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()  # the one copy of the file; to its end, as a pipe has no size
        header = _MM_HEADER.match(data)
        banner_line, size_line, start = header[1], header[2], header.end()
        del header  # it holds the file's bytes
        banner = banner_line.decode("latin-1").lower().split()
        if banner[:2] != ["%%matrixmarket", "matrix"] or len(banner) != 5:
            raise InputFormatError(f"{path} has no Matrix Market banner")
        fmt, field, symmetry = banner[2:]
        if field not in _MM_FIELDS.get(fmt, ()) or symmetry not in _MM_SYMMETRIES:
            raise InputFormatError(f"{path}: unsupported Matrix Market {' '.join(banner[2:])}")
        # a token outside the index grammar reads as -1, which is refused
        size = [int(x) if _MM_INDEX.fullmatch(x) else -1
                for x in re.split(rb"[ \t]+", size_line.strip(b" \t"))]
        if len(size) != (3 if fmt == "coordinate" else 2) or min(size) < 0:
            raise InputFormatError(f"{path}: bad size line {size_line.decode('latin-1')!r}")
        m, n = size[:2]
        if symmetry != "general" and m != n:
            raise InputFormatError(f"{path}: a {symmetry} matrix must be square")
        if fmt == "coordinate":
            count = size[2]
        else:
            triangle = n * (n + 1) // 2  # values of a symmetric array file
            count = {"general": m * n, "symmetric": triangle}.get(symmetry, triangle - n)
        for byte in _LOADTXT_BLANKS:
            if data.find(byte, start) >= 0:
                raise ValueError(f"byte {byte:#04x} in the body, where only spaces and tabs "
                                 "separate numbers")
        body = stdio.BytesIO(data)  # shares the file's bytes, and frees them when closed
        del data
        body.seek(start)
        with stdio.TextIOWrapper(body, encoding="latin-1") as lines:  # a lone CR ends a line
            entries = loadtxt(lines, dtype=_MM_ENTRY[field if field == "pattern" else fmt],
                              comments=None, ndmin=1)
        if len(entries) != count:
            raise ValueError(f"the header declares {count} entries, the file holds {len(entries)}")
        if fmt == "array":  # column-major, a symmetric file's lower triangle
            cols, rows = (np.indices((n, m)).reshape(2, -1) if symmetry == "general"
                          else np.triu_indices(n, symmetry == "skew-symmetric"))
            vals = entries["f0"]
        else:
            rows, cols = entries["f0"] - 1, entries["f1"] - 1
            vals = np.ones(count) if field == "pattern" else entries["f2"]
        if not np.all(np.isfinite(vals)):
            raise InputFormatError(f"{path}: non-finite value")
        if symmetry != "general":
            off = rows != cols
            sign = -1.0 if symmetry == "skew-symmetric" else 1.0
            rows, cols = np.concatenate([rows, cols[off]]), np.concatenate([cols, rows[off]])
            vals = np.concatenate([vals, sign * vals[off]])
        return SparseMatrix.from_coo(rows, cols, vals, m, n)
    except (ValueError, OverflowError, OSError) as exc:
        raise InputFormatError(f"cannot parse Matrix Market file {path}: {exc}") from exc


def read_points_csv(path) -> np.ndarray:
    """One point per line, comma-separated real coordinates."""
    try:
        pts = loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)
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


@contextlib.contextmanager
def _embedding_file(path):
    """The open embedding file at ``path``, at its payload, with the
    (n_rows, d) of its header, once the magic and the payload size the header
    implies are checked against the file's size; an OS error reading it is an
    :class:`InputFormatError` too."""
    head = len(EMBEDDING_MAGIC) + _HEADER.size
    try:
        with open(path, "rb") as fh:
            blob = fh.read(head)
            if len(blob) < head or blob[: len(EMBEDDING_MAGIC)] != EMBEDDING_MAGIC:
                raise InputFormatError(f"{path} is not an embedding file (bad magic)")
            n_rows, d = _HEADER.unpack_from(blob, len(EMBEDDING_MAGIC))
            payload = os.fstat(fh.fileno()).st_size - head
            if payload != 8 * n_rows * d:
                raise InputFormatError(f"{path}: payload length {payload} does not match header")
            yield fh, (n_rows, d)
    except OSError as exc:
        raise InputFormatError(f"cannot read embedding {path}: {exc}") from exc


def embedding_shape(path) -> tuple[int, int]:
    """The (n_rows, d) of the embedding file at ``path``, checked as
    :func:`read_embedding` checks it, without reading the payload."""
    with _embedding_file(path) as (_, shape):
        return shape


def read_embedding(path) -> np.ndarray:
    """The array :func:`write_embedding` wrote. The header is checked against
    the file's size before the payload is read straight into the result."""
    with _embedding_file(path) as (fh, shape):
        values = np.empty(shape, dtype="<f8")
        got = fh.readinto(values)
        if got != values.nbytes:  # the file shrank since its size was read
            raise InputFormatError(f"{path}: payload length {got} does not match header")
    return values.astype(np.float64, copy=False)


def write_embedding_csv(path, values: np.ndarray) -> None:
    np.savetxt(path, np.asarray(values, dtype=np.float64), delimiter=",", fmt="%.17g")


def write_labels_csv(path, labels: np.ndarray) -> None:
    labels = np.asarray(labels, dtype=np.int64).tolist()
    with open(path, "w") as fh:
        fh.write("vertex_id,cluster_id\n")
        fh.write("".join(map("{},{}\n".format, range(len(labels)), labels)))


def write_json(obj, path) -> str:
    """``obj`` as indented, key-sorted JSON with a final newline, also written
    to ``path`` unless that is empty."""
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text
