import json

import numpy as np
import pytest
import scipy.io
import scipy.sparse

from csemb.cli import main
from csemb.io import read_embedding
from helpers import sbm


@pytest.fixture
def small_graph(tmp_path):
    rng = np.random.default_rng(0)
    edges, _ = sbm(80, 4, 0.4, 0.03, rng)
    p = tmp_path / "graph.txt"
    p.write_text("# sbm test graph\n" + "\n".join(f"{u} {v}" for u, v in edges) + "\n")
    return p


def _embed_argv(graph, out, extra=()):
    return [
        "embed",
        "--input", str(graph),
        "--format", "edgelist",
        "--matrix", "normalized-adjacency",
        "--function", "indicator:0.3",
        "--L", "24",
        "--b", "2",
        "--d", "12",
        "--seed", "42",
        "--output", str(out),
        *extra,
    ]


class TestEmbedCommand:
    def test_creates_embedding_and_metadata(self, small_graph, tmp_path):
        out = tmp_path / "e.bin"
        assert main(_embed_argv(small_graph, out)) == 0
        values = read_embedding(out)
        assert values.shape == (80, 12)
        meta = json.loads((tmp_path / "e.bin.meta.json").read_text())
        assert meta["function"] == "indicator:0.3"
        assert meta["spmv_products"] == 24
        assert meta["norm_estimate"] is None  # normalized adjacency skips it
        assert meta["d"] == 12 and meta["seed"] == 42
        assert meta["block_width"] == 12  # n = 80 runs all columns as one block

    def test_byte_identical_rerun(self, small_graph, tmp_path):
        out1, out2 = tmp_path / "e1.bin", tmp_path / "e2.bin"
        main(_embed_argv(small_graph, out1))
        main(_embed_argv(small_graph, out2))
        assert out1.read_bytes() == out2.read_bytes()

    def test_threads_do_not_change_bytes(self, small_graph, tmp_path):
        outs = []
        for w in (1, 4, 8):
            out = tmp_path / f"e_{w}.bin"
            main(["--threads", str(w)] + _embed_argv(small_graph, out))
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_block_width_does_not_change_bytes(self, small_graph, tmp_path, monkeypatch):
        import csemb.engine

        one = tmp_path / "one.bin"
        main(_embed_argv(small_graph, one))
        monkeypatch.setattr(csemb.engine, "BLOCK_BYTES", 1)  # 8-column blocks
        split = tmp_path / "split.bin"
        assert main(["--threads", "2"] + _embed_argv(small_graph, split)) == 0
        meta = json.loads((tmp_path / "split.bin.meta.json").read_text())
        assert meta["block_width"] == 8
        assert split.read_bytes() == one.read_bytes()

    def test_metadata_replay(self, small_graph, tmp_path):
        out = tmp_path / "e.bin"
        main(_embed_argv(small_graph, out))
        meta = json.loads((tmp_path / "e.bin.meta.json").read_text())
        replay = tmp_path / "replay.bin"
        argv = [
            "embed",
            "--input", meta["input"],
            "--format", meta["format"],
            "--matrix", meta["matrix"],
            "--function", meta["function"],
            "--L", str(meta["L"]),
            "--b", str(meta["b"]),
            "--d", str(meta["d"]),
            "--seed", str(meta["seed"]),
            "--output", str(replay),
        ]
        assert main(argv) == 0
        assert replay.read_bytes() == out.read_bytes()

    def test_default_dimension(self, small_graph, tmp_path):
        out = tmp_path / "e.bin"
        argv = _embed_argv(small_graph, out)
        i = argv.index("--d")
        del argv[i : i + 2]
        main(argv)
        assert read_embedding(out).shape == (80, int(np.ceil(6 * np.log(80))))

    def test_csv_escape_hatch(self, small_graph, tmp_path):
        out, csv_out = tmp_path / "e.bin", tmp_path / "e.csv"
        main(_embed_argv(small_graph, out, extra=("--output-csv", str(csv_out))))
        csv_vals = np.loadtxt(csv_out, delimiter=",")
        assert np.allclose(csv_vals, read_embedding(out))

    def test_raw_matrix_market_rescales(self, tmp_path):
        rng = np.random.default_rng(1)
        dense = rng.standard_normal((30, 30))
        dense = (dense + dense.T)  # norm well above 1
        p = tmp_path / "m.mtx"
        scipy.io.mmwrite(p, scipy.sparse.coo_array(dense))
        out = tmp_path / "e.bin"
        argv = [
            "embed", "--input", str(p), "--format", "matrix-market",
            "--matrix", "raw", "--function", "indicator:0.5",
            "--L", "16", "--d", "8", "--seed", "1", "--output", str(out),
        ]
        assert main(argv) == 0
        meta = json.loads((tmp_path / "e.bin.meta.json").read_text())
        true_norm = np.linalg.norm(dense, 2)
        assert meta["norm_estimate"] is not None
        assert meta["norm_estimate"] <= 1.01 * true_norm + 1e-9
        assert np.all(np.isfinite(read_embedding(out)))

    def test_dilation_writes_both_sides(self, tmp_path):
        rng = np.random.default_rng(2)
        dense = rng.standard_normal((7, 4))
        p = tmp_path / "a.mtx"
        scipy.io.mmwrite(p, scipy.sparse.coo_array(dense))
        rows_out, cols_out = tmp_path / "rows.bin", tmp_path / "cols.bin"
        argv = [
            "embed", "--input", str(p), "--format", "matrix-market",
            "--matrix", "dilation", "--function", "indicator:0.5",
            "--L", "16", "--d", "6", "--seed", "3",
            "--output", str(rows_out), "--output-cols", str(cols_out),
        ]
        assert main(argv) == 0
        assert read_embedding(rows_out).shape == (7, 6)
        assert read_embedding(cols_out).shape == (4, 6)

    def test_points_kernel_path(self, tmp_path):
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((25, 2))
        p = tmp_path / "pts.csv"
        np.savetxt(p, pts, delimiter=",")
        out = tmp_path / "e.bin"
        argv = [
            "embed", "--input", str(p), "--format", "points-csv",
            "--matrix", "raw", "--kernel", "gaussian", "--bandwidth", "1.0",
            "--function", "indicator:0.2", "--L", "12", "--d", "6",
            "--seed", "4", "--output", str(out),
        ]
        assert main(argv) == 0
        assert read_embedding(out).shape == (25, 6)


class TestErrors:
    def test_invalid_function_string_usage_error(self, small_graph, tmp_path):
        argv = _embed_argv(small_graph, tmp_path / "e.bin")
        argv[argv.index("indicator:0.3")] = "nosuch:1.0"
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "command, option, value",
        [
            ("embed", "--b", "5"),
            ("embed", "--L", "0"),
            ("embed", "--d", "0"),
            ("cluster", "--k", "0"),
            ("cluster", "--runs", "0"),
        ],
        ids=["embed-b-not-dividing-L", "embed-L-0", "embed-d-0", "cluster-k-0", "cluster-runs-0"],
    )
    def test_out_of_range_number_usage_error(self, small_graph, tmp_path, command, option, value):
        if command == "embed":
            argv = _embed_argv(small_graph, tmp_path / "e.bin")
        else:
            argv = ["cluster", "--input", str(small_graph), "--function", "indicator:0.3",
                    "--L", "16", "--b", "2", "--d", "10", "--k", "4", "--runs", "3"]
        argv[argv.index(option) + 1] = value
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_unparseable_input(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a graph\n")
        assert main(_embed_argv(bad, tmp_path / "e.bin")) == 3

    def test_missing_file(self, tmp_path):
        assert main(_embed_argv(tmp_path / "absent.txt", tmp_path / "e.bin")) == 3

    def test_eval_without_exact_source(self, small_graph, tmp_path):
        out = tmp_path / "e.bin"
        main(_embed_argv(small_graph, out))
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--approx", str(out), "--output-prefix", str(tmp_path / "r")])
        assert exc.value.code == 2

    def test_eval_bad_embedding_file(self, small_graph, tmp_path):
        fake = tmp_path / "fake.bin"
        fake.write_bytes(b"garbage")
        code = main(
            ["eval", "--approx", str(fake), "--input", str(small_graph),
             "--format", "edgelist", "--function", "indicator:0.3",
             "--output-prefix", str(tmp_path / "r")]
        )
        assert code == 3

    def test_oracle_cap_exit_code(self, tmp_path):
        n = 3200
        p = tmp_path / "big.txt"
        p.write_text("\n".join(f"{i} {i + 1}" for i in range(n - 1)) + "\n")
        emb = tmp_path / "e.bin"
        from csemb.io import write_embedding

        write_embedding(emb, np.zeros((n, 2)))
        code = main(
            ["eval", "--approx", str(emb), "--input", str(p), "--format",
             "edgelist", "--function", "indicator:0.5",
             "--output-prefix", str(tmp_path / "r")]
        )
        assert code == 5


class TestEvalCommand:
    def test_zero_deviation_for_oracle_embedding(self, tmp_path):
        # embed with the oracle itself, compare with the oracle: all zeros
        rng = np.random.default_rng(5)
        edges, _ = sbm(40, 2, 0.5, 0.1, rng)
        g = tmp_path / "g.txt"
        g.write_text("\n".join(f"{u} {v}" for u, v in edges) + "\n")
        from csemb import exact_embedding, indicator_above, normalized_adjacency
        from csemb.io import write_embedding

        adj = normalized_adjacency(edges, 40)
        ex = exact_embedding(adj.to_dense(), indicator_above(0.3))
        emb_path = tmp_path / "exact.bin"
        write_embedding(emb_path, ex.embedding)
        code = main(
            ["eval", "--approx", str(emb_path), "--input", str(g),
             "--format", "edgelist", "--function", "indicator:0.3",
             "--output-prefix", str(tmp_path / "r"), "--seed", "7"]
        )
        assert code == 0
        rows = (tmp_path / "r_percentiles.csv").read_text().strip().splitlines()[1:]
        assert all(abs(float(r.split(",")[1])) <= 1e-9 for r in rows)
        assert (tmp_path / "r_calibration.csv").exists()
        assert (tmp_path / "r_report.json").exists()

    def test_precomputed_exact_file(self, small_graph, tmp_path):
        out = tmp_path / "e.bin"
        main(_embed_argv(small_graph, out))
        code = main(
            ["eval", "--approx", str(out), "--exact", str(out),
             "--output-prefix", str(tmp_path / "r")]
        )
        assert code == 0


class TestClusterCommand:
    def test_labels_and_summary(self, small_graph, tmp_path):
        labels_out = tmp_path / "labels.csv"
        summary_out = tmp_path / "summary.json"
        code = main(
            ["cluster", "--input", str(small_graph), "--function", "indicator:0.3",
             "--L", "16", "--b", "2", "--d", "10", "--seed", "5",
             "--k", "4", "--runs", "3",
             "--labels-out", str(labels_out), "--summary-out", str(summary_out)]
        )
        assert code == 0
        lines = labels_out.read_text().strip().splitlines()
        assert len(lines) == 81  # header + one row per vertex
        summary = json.loads(summary_out.read_text())
        assert len(summary["run_scores"]) == 3
        assert summary["median_modularity"] == pytest.approx(
            float(np.median(summary["run_scores"]))
        )


class TestNormCommand:
    def test_identity(self, tmp_path):
        p = tmp_path / "i.mtx"
        scipy.io.mmwrite(p, scipy.sparse.identity(10, format="coo"))
        out = tmp_path / "norm.json"
        code = main(
            ["norm", "--input", str(p), "--format", "matrix-market",
             "--matrix", "raw", "--output", str(out)]
        )
        assert code == 0
        blob = json.loads(out.read_text())
        assert blob["norm_estimate"] == pytest.approx(1.01, abs=1e-12)

    def test_zero_matrix(self, tmp_path):
        p = tmp_path / "z.mtx"
        p.write_text("%%MatrixMarket matrix coordinate real general\n4 4 0\n")
        out = tmp_path / "norm.json"
        code = main(
            ["norm", "--input", str(p), "--format", "matrix-market",
             "--matrix", "raw", "--output", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["norm_estimate"] == 0.0

    def test_padded_diagonal(self, tmp_path):
        dense = np.zeros((50, 50))
        dense[0, 0], dense[1, 1] = 0.3, -0.9
        p = tmp_path / "d.mtx"
        scipy.io.mmwrite(p, scipy.sparse.coo_array(dense))
        out = tmp_path / "norm.json"
        main(["norm", "--input", str(p), "--format", "matrix-market",
              "--matrix", "raw", "--seed", "1", "--output", str(out)])
        est = json.loads(out.read_text())["norm_estimate"]
        assert 0.9 * (1 - 1e-6) <= est <= 0.909
