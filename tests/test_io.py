import tracemalloc

import numpy as np
import pytest
import scipy.io
import scipy.sparse

from csemb import InputFormatError, SparseMatrix
from csemb.io import (
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

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "e.bin"
        p.write_bytes(b"NOTMAGIC" + b"\0" * 16)
        with pytest.raises(InputFormatError):
            read_embedding(p)

    def test_truncated_payload(self, tmp_path):
        values = np.ones((3, 3))
        p = tmp_path / "e.bin"
        write_embedding(p, values)
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(InputFormatError):
            read_embedding(p)

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


def test_matrix_market_dense_array_format(tmp_path):
    p = tmp_path / "d.mtx"
    scipy.io.mmwrite(p, np.array([[1.0, 0.0], [0.0, 2.0]]))
    m = read_matrix_market(p)
    assert isinstance(m, SparseMatrix)
    assert np.allclose(m.to_dense(), np.diag([1.0, 2.0]))
