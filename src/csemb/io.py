"""Readers and writers: edge lists, Matrix Market, point clouds, embeddings.

The embedding container is a little-endian binary file: an 8-byte magic tag,
two uint64 header words (n_rows, d), then n_rows*d float64 values row-major.
"""

from __future__ import annotations

import functools
import io as stdio
import os
import re
import struct
from collections import Counter
from itertools import repeat
from types import SimpleNamespace

import numpy as np

from .errors import InputFormatError
from .sparse import SparseMatrix, load_scipy_extension

EMBEDDING_MAGIC = b"CSEMB001"
_HEADER = struct.Struct("<QQ")
# the Matrix Market fields each format is read with, and the symmetries
_MM_FIELDS = {"coordinate": ("real", "integer", "pattern"), "array": ("real", "integer")}
_MM_SYMMETRIES = ("general", "symmetric", "skew-symmetric")
_CR = re.compile(rb"\r")
# the banner line, then comment and blank lines, then the size line
_MM_HEADER = re.compile(rb"(.*)\n?(?:(?:%.*|[^\S\n]*)\n)*(.*)\n?")
# a line's shape: each digit made 0, a tab a space, - a + and E an e
_SHAPE = bytes.maketrans(b"123456789-E\t", b"000000000+e ")
# the README grammar of a number and an index, on shapes
_NUM, _IDX = rb"\+?(?:0+\.?0*|\.0+)(?:e\+?0+)?", rb"\+?0+"
_MM_ENTRY = {kind: re.compile(rb" *" + rb" +".join(tokens) + rb" *\n?") for kind, tokens in
             [("coordinate", [_IDX, _IDX, _NUM]), ("pattern", [_IDX, _IDX]), ("array", [_NUM])]}


@functools.cache
def _fmm_core():
    """The C++ Matrix Market parser behind ``scipy.io.mmread``, loaded by the
    first Matrix Market read, so that other commands do not pay for it."""
    return load_scipy_extension("io._fast_matrix_market._fmm_core")


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
    r"""Matrix Market file: the coordinate format with a real, integer or
    pattern field, or the array format with a real or integer field; each
    general, symmetric or skew-symmetric.

    The header is read here: a banner in any case, then comment (``%``) and
    blank lines, then the size line. Each entry is on a line of its own, with
    blank lines allowed between. Each number is a whole decimal token,
    ``[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?``, and an index is ``[+-]?\d+``.
    Numbers are separated by spaces and tabs, and lines end in LF, CRLF or
    CR. The body is checked against that grammar once per distinct line
    shape, then parsed by the C++ core of ``scipy.io.mmread``
    (fast_matrix_market), so values carry its bits; an integer field is read
    as real.

    Symmetric files hold one triangle, and each off-diagonal entry is
    mirrored, negated for skew-symmetric, as ``scipy.io.mmread`` does.
    Complex and hermitian files, any other token or layout, an entry count
    other than the header's, an index outside [1, rows] or [1, cols] and a
    non-finite value raise :class:`InputFormatError`.
    """
    try:
        # one buffer holds the file and a final LF: without one, the core
        # crashes on a last line that ends in a space
        buf = stdio.BytesIO()
        with open(path, "rb") as fh:
            buf.seek(os.fstat(fh.fileno()).st_size)
            buf.write(b"\n")
            with buf.getbuffer() as view:
                buf.seek(fh.readinto(view[:-1]))
            buf.write(fh.read() + b"\n")  # a pipe holds more than its size says
            buf.truncate()
        with buf.getbuffer() as view:
            if _CR.search(view):  # the core crashes on a lone CR
                chars = np.frombuffer(view, np.uint8)
                chars[chars == ord("\r")] = ord("\n")  # a CRLF becomes an LF and a blank line
                del chars
            header = _MM_HEADER.match(view)
            banner_line, size_line, start = header[1], header[2], header.end()
        banner = banner_line.decode("latin-1").lower().split()
        if banner[:2] != ["%%matrixmarket", "matrix"] or len(banner) != 5:
            raise InputFormatError(f"{path} has no Matrix Market banner")
        fmt, field, symmetry = banner[2:]
        if field not in _MM_FIELDS.get(fmt, ()) or symmetry not in _MM_SYMMETRIES:
            raise InputFormatError(f"{path}: unsupported Matrix Market {' '.join(banner[2:])}")
        size = [int(x) for x in size_line.split()]
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
        _check_body(buf, start, count, "pattern" if field == "pattern" else fmt)
        # a canonical header, written over the end of the file's own header,
        # which is never shorter: the file's tokens are the same or longer, and
        # an LF ends each of its lines (the final LF ends a size line that
        # ends the file)
        canonical = ["%%MatrixMarket matrix", fmt, field.replace("integer", "real"), symmetry]
        head = f"{' '.join(canonical)}\n{' '.join(map(str, size))}\n".encode()
        buf.seek(start - len(head))
        buf.write(head)
        buf.seek(start - len(head))
        # the core reads a chunk at a time, and refuses a leading plus sign;
        # the check has passed each one
        stream = SimpleNamespace(read=lambda n=-1: buf.read(n).replace(b"+", b""))
        core = _fmm_core()
        cursor = core.open_read_stream(stream, 1)  # one thread
        if fmt == "array":
            vals = np.zeros((m, n))  # the core fills both triangles of a symmetric file
            core.read_body_array(cursor, vals)
        else:
            rows, cols = np.empty(count, dtype=np.int64), np.empty(count, dtype=np.int64)
            vals = np.ones(count)
            core.read_body_coo(cursor, rows, cols, vals)
        buf.close()
    except (ValueError, OverflowError, OSError) as exc:
        raise InputFormatError(f"cannot parse Matrix Market file {path}: {exc}") from exc
    if not np.all(np.isfinite(vals)):
        raise InputFormatError(f"{path}: non-finite value")
    if fmt == "array":
        return SparseMatrix.from_dense(vals)
    if symmetry != "general":
        off = rows != cols
        sign = -1.0 if symmetry == "skew-symmetric" else 1.0
        rows, cols = np.concatenate([rows, cols[off]]), np.concatenate([cols, rows[off]])
        vals = np.concatenate([vals, sign * vals[off]])
    return SparseMatrix.from_coo(rows, cols, vals, m, n)


def _check_body(data: bytes | stdio.BytesIO, start: int, count: int, kind: str) -> None:
    """Raise ``ValueError`` unless the lines of ``data`` from ``start`` on
    hold ``count`` entries of ``kind`` (``coordinate``, ``pattern`` or
    ``array``), one to a non-blank line. The core reads the longest numeric
    prefix of a token and ignores the rest of its line, so this is what
    rejects ``1.0abc``, ``1-2``, an extra column or an entry that spills onto
    the next line. Each distinct line shape is matched once; lines are
    translated one by one, so that no translated copy of the body is held.
    ``data`` is the file's bytes, or a BytesIO that holds them."""
    lines = data if isinstance(data, stdio.BytesIO) else stdio.BytesIO(data)
    lines.seek(start)
    entry, held = _MM_ENTRY[kind], 0
    for shape, times in Counter(map(bytes.translate, lines, repeat(_SHAPE))).items():
        if shape.strip(b" \n"):  # not strip(): a form feed is no blank
            if not entry.fullmatch(shape):
                raise ValueError(f"a line that is not one {kind} entry of whole decimal numbers")
            held += times
    if held != count:
        raise ValueError(f"the header declares {count} entries, the file holds {held}")


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
    """The array :func:`write_embedding` wrote. The header is checked against
    the file's size before the payload is read straight into the result."""
    head = len(EMBEDDING_MAGIC) + _HEADER.size
    try:
        with open(path, "rb") as fh:
            blob = fh.read(head)
            if len(blob) < head or blob[: len(EMBEDDING_MAGIC)] != EMBEDDING_MAGIC:
                raise InputFormatError(f"{path} is not an embedding file (bad magic)")
            n_rows, d = _HEADER.unpack_from(blob, len(EMBEDDING_MAGIC))
            size, payload = 8 * n_rows * d, os.fstat(fh.fileno()).st_size - head
            if payload == size:
                values = np.empty((n_rows, d), dtype="<f8")
                payload = fh.readinto(values)
            if payload != size:
                raise InputFormatError(f"{path}: payload length {payload} does not match header")
    except OSError as exc:
        raise InputFormatError(f"cannot read embedding {path}: {exc}") from exc
    return values.astype(np.float64, copy=False)


def write_embedding_csv(path, values: np.ndarray) -> None:
    np.savetxt(path, np.asarray(values, dtype=np.float64), delimiter=",", fmt="%.17g")


def write_labels_csv(path, labels: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write("vertex_id,cluster_id\n")
        for i, c in enumerate(np.asarray(labels)):
            fh.write(f"{i},{int(c)}\n")
