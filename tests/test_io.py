import math
import os
import re
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.io
import scipy.sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csemb import InputFormatError, SparseMatrix
from csemb.io import (
    embedding_shape,
    read_edgelist,
    read_embedding,
    read_matrix_market,
    read_points_csv,
    write_embedding,
    write_embedding_csv,
    write_labels_csv,
)


class TestEdgeList:
    def test_snap_style(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("# comment line\n0 1\n1 2\n# trailing\n2 0\n")
        edges, n = read_edgelist(p)
        assert n == 3 and len(edges) == 3

    def test_tabs_and_extra_whitespace(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0\t5\n  3   4  \n")
        edges, n = read_edgelist(p)
        assert n == 6 and edges.tolist() == [[0, 5], [3, 4]]

    def test_negative_id_rejected(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 -1\n")
        with pytest.raises(InputFormatError):
            read_edgelist(p)

    def test_garbage_rejected(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("not an edge list\n")
        with pytest.raises(InputFormatError):
            read_edgelist(p)


class TestMatrixMarket:
    def test_general_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        dense = rng.standard_normal((6, 4)) * (rng.random((6, 4)) < 0.5)
        p = tmp_path / "a.mtx"
        scipy.io.mmwrite(p, scipy.sparse.coo_array(dense))
        m = read_matrix_market(p)
        assert np.allclose(m.to_dense(), dense)

    def test_symmetric(self, tmp_path):
        p = tmp_path / "s.mtx"
        p.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "3 3 2\n"
            "2 1 1.5\n"
            "3 3 2.0\n"
        )
        m = read_matrix_market(p)
        expected = np.array([[0, 1.5, 0], [1.5, 0, 0], [0, 0, 2.0]])
        assert np.allclose(m.to_dense(), expected)

    def test_bad_file(self, tmp_path):
        p = tmp_path / "bad.mtx"
        p.write_text("this is not matrix market\n")
        with pytest.raises(InputFormatError):
            read_matrix_market(p)

    @pytest.mark.parametrize("text, shape", [
        ("%%MatrixMarket matrix coordinate integer general\n2 3 0", (2, 3)),
        ("%%MatrixMarket\tmatrix coordinate pattern symmetric\r4 4 0", (4, 4)),
        ("%%MatrixMarket matrix array integer general\n1 1\n7", (1, 1)),
    ], ids=["size-line-ends-file", "lone-cr", "array-no-final-lf"])
    def test_shortest_headers(self, tmp_path, text, shape):
        # a size line that ends the file, or is ended by a lone CR, and an
        # array body without a final LF
        p = tmp_path / "m.mtx"
        p.write_bytes(text.encode())
        m = read_matrix_market(p)
        assert m.shape == shape
        assert m.to_dense().sum() == (7.0 if "array" in text else 0.0)

    def test_duplicates_summing_past_float_max(self, tmp_path):
        # each value is finite, their sum is not: an input error, not a usage error
        p = tmp_path / "m.mtx"
        p.write_text(_REAL_GENERAL + "2 2 2\n1 1 1e308\n1 1 1e308\n")
        with pytest.raises(InputFormatError, match="finite"):
            read_matrix_market(p)

    def test_read_from_a_pipe(self, tmp_path):
        fifo = tmp_path / "m.mtx"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text, args=(_REAL_GENERAL + "2 2 1\n2 1 -3\n",))
        writer.start()
        try:
            m = read_matrix_market(fifo)
        finally:
            writer.join()
        assert m.to_dense().tolist() == [[0.0, 0.0], [-3.0, 0.0]]

    def test_file_held_once(self, tmp_path):
        # the peak is the file's bytes and the parsed arrays; lines padded to
        # three times the arrays' size make a second copy of the body stand out
        rng = np.random.default_rng(4)
        count = 20_000
        rows, cols = rng.integers(1, 2001, (2, count))
        values = rng.standard_normal(count).tolist()
        p = tmp_path / "m.mtx"
        p.write_text(_REAL_GENERAL + f"2000 2000 {count}\n" + "".join(
            f"{' ' * 40}{i} {j} {x!r}\n" for i, j, x in zip(rows, cols, values)
        ))
        read_matrix_market(p)  # a first read, so one-time allocations are not measured
        size = p.stat().st_size
        tracemalloc.start()
        try:
            read_matrix_market(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * size + 24 * count  # the file, and row, column and value arrays


def _mmread_reference(path):
    """What the reader returned when it called scipy: ``scipy.io.mmread``, a
    dense result taken through its nonzeros, then canonical CSR by
    ``sum_duplicates``, ``sort_indices`` and ``eliminate_zeros``."""
    m = scipy.io.mmread(path)
    csr = scipy.sparse.csr_array(scipy.sparse.coo_array(m) if isinstance(m, np.ndarray) else m)
    csr.sum_duplicates()
    csr.sort_indices()
    csr.eliminate_zeros()
    return csr


def _assert_same_bits(S, csr):
    assert S.shape == csr.shape
    assert np.array_equal(S.row_offsets, csr.indptr)
    assert np.array_equal(S.col_indices, csr.indices)
    assert S.values.tobytes() == csr.data.astype(np.float64).tobytes()


_REAL_GENERAL = "%%MatrixMarket matrix coordinate real general\n"
# the latin-1 bytes besides space, tab, CR and LF that Python, and so
# np.loadtxt, takes for whitespace
_OTHER_BLANKS = bytes(c for c in range(256) if chr(c).isspace() and chr(c) not in " \t\r\n")


# every format, field and symmetry the reader supports; the Matrix Market
# format has no skew-symmetric pattern matrix
_MM_KINDS = [
    (fmt, field, symmetry)
    for fmt, field in [("coordinate", "real"), ("coordinate", "integer"),
                       ("coordinate", "pattern"), ("array", "real"), ("array", "integer")]
    for symmetry in ["general", "symmetric", "skew-symmetric"]
    if (field, symmetry) != ("pattern", "skew-symmetric")
]


class TestMatrixMarketAgainstScipy:
    @pytest.mark.parametrize("fmt, field, symmetry", _MM_KINDS)
    def test_written_by_mmwrite(self, tmp_path, fmt, field, symmetry):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((9, 9)) * (rng.random((9, 9)) < 0.4)
        a = {"general": a, "symmetric": a + a.T, "skew-symmetric": a - a.T}[symmetry]
        if field == "integer":
            a = np.round(4 * a)
        elif field == "pattern":
            a = (a != 0).astype(np.float64)
        p = tmp_path / "m.mtx"
        scipy.io.mmwrite(
            p, scipy.sparse.coo_array(a) if fmt == "coordinate" else a,
            field=field, symmetry=symmetry,
        )
        assert p.read_text().split("\n")[0].split()[2:] == [fmt, field, symmetry]
        _assert_same_bits(read_matrix_market(p), _mmread_reference(p))

    @pytest.mark.parametrize(
        "text",
        [
            "%%MatrixMarket matrix coordinate real general\n% first comment\n%\n\n"
            "% after a blank line\n3 2 2\n1 2 0.25\n3 1 -1e-3\n",
            _REAL_GENERAL + "4 4 0\n",
            # duplicates are summed in file order, and a sum of zero is dropped
            _REAL_GENERAL + "2 3 7\n1 2 0.1\n1 2 0.2\n1 2 0.7\n2 3 1.5\n2 3 -1.5\n"
            "1 1 3\n1 2 1e-17\n",
            "%%MatrixMarket matrix coordinate real symmetric\n3 3 5\n2 1 0.1\n2 1 0.2\n"
            "2 1 0.7\n3 3 1\n3 3 2\n",
            "%%MatrixMarket matrix coordinate integer general\n2 2 3\n1 1 4\n1 1 -4\n2 1 7\n",
        ],
        ids=["comments", "empty-4x4", "duplicates", "symmetric-duplicates", "integer-cancel"],
    )
    def test_hand_written(self, tmp_path, text):
        p = tmp_path / "m.mtx"
        p.write_text(text)
        _assert_same_bits(read_matrix_market(p), _mmread_reference(p))

    @pytest.mark.parametrize(
        "text",
        [
            "%%MatrixMarket matrix coordinate complex general\n2 2 1\n1 1 1.0 2.0\n",
            "%%MatrixMarket matrix coordinate real hermitian\n2 2 1\n2 1 1.0\n",
            "%%MatrixMarket matrix array complex general\n1 1\n1.0 0.0\n",
            _REAL_GENERAL + "2 2 3\n1 1 1.0\n2 2 2.0\n",
            _REAL_GENERAL + "2 2 1\n1 1 1.0\n2 2 2.0\n",
            _REAL_GENERAL + "2 2 0\n1 1 1.0\n",
            "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n",
            _REAL_GENERAL + "2 2 1\n0 1 1.0\n",
            _REAL_GENERAL + "2 2 1\n3 1 1.0\n",
            _REAL_GENERAL + "2 2 1\n1 3 1.0\n",
            _REAL_GENERAL + "2 2 1\n1.5 1 1.0\n",
            _REAL_GENERAL + "2 2 1\n1 1 nan\n",
            "%%MatrixMarket matrix array real general\n1 2\n1.0\ninf\n",
            "%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n1 1 1.0\n",
            _REAL_GENERAL + "2 2 1\n1 1\n",
            _REAL_GENERAL + "2 2 1\n1 1.5 1.0\n",
            _REAL_GENERAL + "2 2 1\n1 1 1.0abc\n",
            _REAL_GENERAL + "2 2 1\n1 1 0x1p-3\n",
            _REAL_GENERAL + "2 2 1\n1 1 1-2\n",
            _REAL_GENERAL + "2 2 1\n1 1 1.2.3\n",
            _REAL_GENERAL + "2 2 1\n1 1 1e\n",
            _REAL_GENERAL + "2 2 1\n1 1 1e5.2\n",
            _REAL_GENERAL + "2 2 1\n1 1 1.0 7\n",
            _REAL_GENERAL + "2 2 2\n1 1 1.0\n% a comment in the body\n2 2 2.0\n",
            _REAL_GENERAL + "2 2 2\n1 1 1.0 2 2 2.0\n",
            _REAL_GENERAL + "2 2 2\n1 1\n1.0 2 2 2.0\n",
            _REAL_GENERAL + "2 2 1\n1 1 -\n",
            _REAL_GENERAL + "2 2 1\n1 1 .\n",
            _REAL_GENERAL + "2 2 1\n1 1 --1\n",
            _REAL_GENERAL + "2 2 1\n1 1 1e+-5\n",
            _REAL_GENERAL + "2 2 1\n1 1 .e5\n",
            _REAL_GENERAL + "2 2 1\n1 1 1e5e5\n",
            _REAL_GENERAL + "2 2 1\n1 1 1e400\n",
            "%%MatrixMarket matrix array real general\n1 2\n1.0\n2.0 3.0\n",
            "%%MatrixMarket matrix array real general\n2 1\n1.0 2.0\n",
            "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 1 1\n",
            # an index token with a dot or an exponent, even of integer value
            _REAL_GENERAL + "2 2 1\n1.0 1 1.0\n",
            _REAL_GENERAL + "2 2 1\n1 1e0 1.0\n",
            "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 2.\n",
            # the right number of tokens, but not one entry a line
            _REAL_GENERAL + "2 2 2\n1 1 1.0 2\n2 2.5\n",
            "%%MatrixMarket matrix coordinate integer general\n2 2 2\n1 1 1 2\n2 2\n",
            "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1\n1 2 2\n",
            "%%MatrixMarket matrix array real general\n2 2\n1\n2 3\n4\n",
            # a size token outside the index grammar, which int() would read
            _REAL_GENERAL + "2_0 1_0 1\n1 1 1.0\n",
            _REAL_GENERAL + "2 2 0_1\n1 1 1.0\n",
        ],
        ids=["complex", "hermitian", "complex-array", "fewer-entries", "more-entries",
             "entries-after-zero", "short-array", "zero-based", "row-out-of-range",
             "column-out-of-range", "fractional-index", "nan", "inf-array",
             "symmetric-not-square", "missing-value", "fractional-column",
             "trailing-letters", "hex-float", "inner-sign", "two-dots", "bare-exponent",
             "fractional-exponent", "extra-column", "comment-in-body", "two-entries-a-line",
             "entry-split-over-lines", "bare-sign", "bare-dot", "double-sign",
             "double-exponent-sign", "no-mantissa-digit", "two-exponents", "overflow",
             "two-values-a-line", "two-values-one-line", "pattern-with-value", "row-1.0", "column-1e0",
             "pattern-column-2.", "ragged-real", "ragged-integer", "ragged-pattern",
             "ragged-array", "size-underscores", "count-underscore"],
    )
    def test_rejected(self, tmp_path, text):
        p = tmp_path / "m.mtx"
        p.write_text(text)
        with pytest.raises(InputFormatError):
            read_matrix_market(p)


    @pytest.mark.parametrize(
        "text, entries",
        [
            ("%%MatrixMarket matrix coordinate real general\r\n% a comment\r\n"
             "2 2 2\r\n1 1 1.5\r\n2 2 -2\r\n", {(0, 0): 1.5, (1, 1): -2.0}),
            ("%%MatrixMarket matrix coordinate real general\r2 2 2\r1 1 1.5\r2 2 -2\r",
             {(0, 0): 1.5, (1, 1): -2.0}),
            (_REAL_GENERAL + "2 2 2\n1 1 1.5\n2 2 -2", {(0, 0): 1.5, (1, 1): -2.0}),
            (_REAL_GENERAL + "2 2 2\n\n1 1 1.5\n \t\n\n2 2 -2\n\n", {(0, 0): 1.5, (1, 1): -2.0}),
            (_REAL_GENERAL + "2 2 2\n1\t1\t+1.5E+2\n  2 2  -2.5e-1  \n",
             {(0, 0): 150.0, (1, 1): -0.25}),
            (_REAL_GENERAL + "2 2 1\n+1 2 3\n", {(0, 1): 3.0}),
            ("%%MATRIXMARKET MATRIX COORDINATE REAL GENERAL\n2 2 1\n2 1 7\n", {(1, 0): 7.0}),
            (_REAL_GENERAL + "2 2 3\n1 1 .5\n2 2 5.\n1 2 -.5e-1\n",
             {(0, 0): 0.5, (1, 1): 5.0, (0, 1): -0.05}),
            (_REAL_GENERAL + "2 2 1\n0001 02 00012\n", {(0, 1): 12.0}),
            (_REAL_GENERAL + " +2\t2  01 \n1 2 4\n", {(0, 1): 4.0}),
            ("%%MatrixMarket matrix array real general\n2 1\n+.25\n\n-4E0",
             {(0, 0): 0.25, (1, 0): -4.0}),
            ("%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n2 +1\n",
             {(1, 0): 1.0, (0, 1): 1.0}),
            # a last line that ends in a space or tab without a newline
            ("%%MatrixMarket matrix array real general\n2 1\n1\n2.5\t",
             {(0, 0): 1.0, (1, 0): 2.5}),
            (_REAL_GENERAL + "2 2 1\n2 1 -3 ", {(1, 0): -3.0}),
            ("%%MatrixMarket matrix coordinate pattern general\n2 2 1\n2 2 \t ", {(1, 1): 1.0}),
            # any byte in a header comment, UTF-8 encoded
            (_REAL_GENERAL + f"% {_OTHER_BLANKS.decode('latin-1')} é \n2 2 1\n1 2 4\n",
             {(0, 1): 4.0}),
        ],
        ids=["crlf", "cr", "no-final-newline", "blank-lines", "plus-signs", "plus-index",
             "upper-case-banner", "bare-dots", "leading-zeros", "size-line-blanks", "array-signs",
             "pattern-plus-index", "array-last-line-tab", "coordinate-last-line-space",
             "pattern-last-line-blanks", "comment-any-byte"],
    )
    def test_accepted_grammar(self, tmp_path, text, entries):
        p = tmp_path / "m.mtx"
        p.write_bytes(text.encode())
        expected = np.zeros((2, 2) if "array" not in text else (2, 1))
        for ij, value in entries.items():
            expected[ij] = value
        assert np.array_equal(read_matrix_market(p).to_dense(), expected)

    @pytest.mark.parametrize("byte", _OTHER_BLANKS, ids=lambda byte: f"{byte:#04x}")
    @pytest.mark.parametrize("where", ["separator", "blank-line", "trailing"])
    def test_other_blanks_rejected(self, tmp_path, byte, where):
        # np.loadtxt takes each of these for a blank; the README grammar does not
        blank = bytes([byte])
        body = {"separator": b"1" + blank + b"1 1.0\n", "blank-line": b"1 1 1.0\n" + blank + b"\n",
                "trailing": b"1 1 1.0" + blank + b"\n"}[where]
        p = tmp_path / "m.mtx"
        p.write_bytes(_REAL_GENERAL.encode() + b"2 2 1\n" + body)
        with pytest.raises(InputFormatError, match=f"byte {byte:#04x}"):
            read_matrix_market(p)


# the README grammar on raw bytes, one entry a line
_README_NUMBER, _README_INDEX = rb"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?", rb"[+-]?\d+"
_README_TOKENS = {"coordinate": [_README_INDEX, _README_INDEX, _README_NUMBER],
                  "pattern": [_README_INDEX, _README_INDEX], "array": [_README_NUMBER]}
_README_ENTRY = {kind: re.compile(rb"[ \t]*" + rb"[ \t]+".join(tokens) + rb"[ \t]*")
                 for kind, tokens in _README_TOKENS.items()}


def _readme_accepts(body, count, kind):
    entries = [line for line in body.split(b"\n") if line.strip(b" \t")]
    return len(entries) == count and all(_README_ENTRY[kind].fullmatch(x) for x in entries)


@st.composite
def _bodies(draw):
    """A kind, a body of lines that are valid entries, blank or near-blank,
    or valid tokens and bytes of an alphabet that includes a comment mark, a
    letter, a form feed and a vertical tab, and an entry count at or beside
    the body's."""
    kind = draw(st.sampled_from(sorted(_README_TOKENS)))
    number = st.from_regex(_README_NUMBER, fullmatch=True)
    index = st.from_regex(_README_INDEX, fullmatch=True)
    tokens = [st.from_regex(token, fullmatch=True) for token in _README_TOKENS[kind]]
    gap, edge = st.sampled_from([b" ", b"\t", b" \t "]), st.sampled_from([b"", b" ", b"\t"])
    entry = st.tuples(edge, *sum(([t, gap] for t in tokens), [])[:-1], edge).map(b"".join)
    byte = st.sampled_from([bytes([c]) for c in b"0123456789+-.eE \t%x\x0c\x0b"])
    blank = st.lists(st.sampled_from([b" ", b"\t", b"\x0c", b"\x0b"]), max_size=3)
    line = st.one_of(entry, entry, blank.map(b"".join),
                     st.lists(st.one_of(number, index, byte), max_size=6).map(b"".join))
    body = b"\n".join(draw(st.lists(line, max_size=6))) + draw(st.sampled_from([b"", b"\n"]))
    entries = sum(1 for x in body.split(b"\n") if x.strip(b" \t"))
    return kind, body, max(entries + draw(st.integers(-1, 1)), 0)


# a header size at which most drawn indices are in range
_GRAMMAR_SIDE = 10_000


def _within_size(body, kind):
    """Every index of an entry of ``body`` in [1, _GRAMMAR_SIDE], and every
    value finite."""
    width = 0 if kind == "array" else 2  # the indices that start an entry
    entries = [line.split() for line in body.split(b"\n")]
    return (all(1 <= int(x) <= _GRAMMAR_SIDE for e in entries for x in e[:width])
            and all(math.isfinite(float(x)) for e in entries for x in e[width:]))


class TestBodyGrammar:
    @settings(max_examples=200, deadline=None)
    @given(_bodies())
    @example(("array", b"1\n\x0c\n \x0b\t\n2\n", 2))  # no blank lines: strip() would say so
    def test_same_as_readme_grammar(self, tmp_path_factory, case):
        kind, body, count = case
        head = {"coordinate": f"coordinate real general\n{_GRAMMAR_SIDE} {_GRAMMAR_SIDE} {count}",
                "pattern": f"coordinate pattern general\n{_GRAMMAR_SIDE} {_GRAMMAR_SIDE} {count}",
                "array": f"array real general\n{count} 1"}[kind]
        p = tmp_path_factory.mktemp("grammar") / "m.mtx"
        p.write_bytes(f"%%MatrixMarket matrix {head}\n".encode() + body)
        try:
            read_matrix_market(p)
            accepted = True
        except InputFormatError:
            accepted = False
        assert accepted == (_readme_accepts(body, count, kind) and _within_size(body, kind))


class TestPointsCsv:
    def test_read(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("0.0,1.0\n2.0,3.0\n")
        pts = read_points_csv(p)
        assert pts.shape == (2, 2) and pts[1, 1] == 3.0

    def test_bad(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("a,b\n")
        with pytest.raises(InputFormatError):
            read_points_csv(p)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_rejected(self, tmp_path, bad):
        p = tmp_path / "pts.csv"
        p.write_text(f"0.0,1.0\n{bad},1.0\n")
        with pytest.raises(InputFormatError, match="non-finite"):
            read_points_csv(p)


class TestEmbeddingFile:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        values = rng.standard_normal((17, 5))
        p = tmp_path / "e.bin"
        write_embedding(p, values)
        back = read_embedding(p)
        assert np.array_equal(back, values)
        assert back.dtype == np.float64

    def test_header_layout(self, tmp_path):
        values = np.arange(6, dtype=np.float64).reshape(2, 3)
        p = tmp_path / "e.bin"
        write_embedding(p, values)
        blob = p.read_bytes()
        assert blob[:8] == b"CSEMB001"
        assert int.from_bytes(blob[8:16], "little") == 2
        assert int.from_bytes(blob[16:24], "little") == 3
        assert len(blob) == 24 + 6 * 8

    def test_written_without_a_copy(self, tmp_path):
        # the payload is the array's own buffer, not a bytes copy of it
        values = np.random.default_rng(2).standard_normal((20_000, 10))
        p = tmp_path / "e.bin"
        tracemalloc.start()
        try:
            write_embedding(p, values)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < values.nbytes / 2
        assert p.read_bytes()[24:] == values.astype("<f8").tobytes()

    def test_read_without_a_copy(self, tmp_path):
        # the payload is read into the result, not held as bytes beside it
        values = np.random.default_rng(3).standard_normal((20_000, 10))
        p = tmp_path / "e.bin"
        write_embedding(p, values)
        tracemalloc.start()
        try:
            back = read_embedding(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * values.nbytes
        assert back.dtype == np.float64 and back.flags.writeable
        assert np.array_equal(back.view(np.uint64), values.view(np.uint64))

    def test_header_claiming_more_rows_than_the_file(self, tmp_path):
        # checked against the file size before anything of that size is allocated
        p = tmp_path / "e.bin"
        write_embedding(p, np.ones((3, 3)))
        blob = bytearray(p.read_bytes())
        blob[8:16] = (1 << 60).to_bytes(8, "little")
        p.write_bytes(bytes(blob))
        for read in (read_embedding, embedding_shape):
            with pytest.raises(InputFormatError, match="does not match header"):
                read(p)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "e.bin"
        p.write_bytes(b"NOTMAGIC" + b"\0" * 16)
        for read in (read_embedding, embedding_shape):
            with pytest.raises(InputFormatError):
                read(p)

    def test_truncated_payload(self, tmp_path):
        values = np.ones((3, 3))
        p = tmp_path / "e.bin"
        write_embedding(p, values)
        p.write_bytes(p.read_bytes()[:-8])
        for read in (read_embedding, embedding_shape):
            with pytest.raises(InputFormatError):
                read(p)

    def test_payload_longer_than_header(self, tmp_path):
        p = tmp_path / "e.bin"
        write_embedding(p, np.ones((3, 3)))
        p.write_bytes(p.read_bytes() + b"\0" * 8)
        for read in (read_embedding, embedding_shape):
            with pytest.raises(InputFormatError, match="does not match header"):
                read(p)

    def test_missing_file(self, tmp_path):
        for read in (read_embedding, embedding_shape):
            with pytest.raises(InputFormatError, match="cannot read embedding"):
                read(tmp_path / "absent.bin")

    def test_shape_without_the_payload(self, tmp_path):
        p = tmp_path / "e.bin"
        write_embedding(p, np.ones((20_000, 10)))
        tracemalloc.start()
        try:
            shape = embedding_shape(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert shape == (20_000, 10)
        assert peak < 64 * 1024  # the payload is 1.6 MB

    def test_csv_escape_hatch(self, tmp_path):
        values = np.array([[1.5, -2.0]])
        p = tmp_path / "e.csv"
        write_embedding_csv(p, values)
        assert np.allclose(np.loadtxt(p, delimiter=","), values[0])


def test_labels_csv(tmp_path):
    p = tmp_path / "labels.csv"
    write_labels_csv(p, np.array([2, 0, 1]))
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "vertex_id,cluster_id"
    assert lines[1:] == ["0,2", "1,0", "2,1"]


@pytest.mark.parametrize("labels", [np.array([], dtype=np.int64), np.array([7]),
                                    np.array([3, 0, 3, 12, 1], dtype=np.int32),
                                    np.arange(1000, dtype=np.int64) % 199],
                         ids=["empty", "one", "int32", "thousand"])
def test_labels_csv_bytes_match_row_by_row_form(tmp_path, labels):
    # the file is written in one string; its bytes are those of one write per vertex
    p = tmp_path / "labels.csv"
    write_labels_csv(p, labels)
    expected = "vertex_id,cluster_id\n" + "".join(f"{i},{int(c)}\n" for i, c in enumerate(labels))
    assert p.read_bytes() == expected.encode()


def test_matrix_market_dense_array_format(tmp_path):
    p = tmp_path / "d.mtx"
    scipy.io.mmwrite(p, np.array([[1.0, 0.0], [0.0, 2.0]]))
    m = read_matrix_market(p)
    assert isinstance(m, SparseMatrix)
    assert np.allclose(m.to_dense(), np.diag([1.0, 2.0]))
