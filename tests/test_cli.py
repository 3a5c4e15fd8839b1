import json
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest
import scipy.io
import scipy.sparse

import csemb.cli
import csemb.cluster
from csemb.cli import main
from csemb.io import read_embedding, write_embedding
import csemb
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

    @pytest.mark.parametrize(
        "threads, env, workers",
        [(None, None, 3), ("1", None, 1), (None, "1", 3)],
        ids=["default", "flag", "env"],
    )
    def test_default_workers_are_the_usable_cpus(
        self, small_graph, tmp_path, monkeypatch, threads, env, workers
    ):
        # without --threads, as many workers as CPUs the process may run on;
        # a set CSEMB_THREADS is not read
        class Recorded(Exception):
            pass

        def record(*args, n_workers):
            raise Recorded(n_workers)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        monkeypatch.setattr(csemb.cli, "fast_embed_cascaded", record)
        if env is None:
            monkeypatch.delenv("CSEMB_THREADS", raising=False)
        else:
            monkeypatch.setenv("CSEMB_THREADS", env)
        argv = _embed_argv(small_graph, tmp_path / "e.bin")
        with pytest.raises(Recorded) as got:
            main(argv if threads is None else ["--threads", threads] + argv)
        assert got.value.args == (workers,)

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

    def test_metadata_holds_the_provenance(self, tmp_path, monkeypatch):
        real, made = csemb.cli.fast_embed_cascaded, []

        def kept(*args, **kwargs):
            made.append(real(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(csemb.cli, "fast_embed_cascaded", kept)
        p = tmp_path / "a.mtx"
        scipy.io.mmwrite(p, scipy.sparse.coo_array(np.random.default_rng(5).standard_normal((7, 4))))
        out = tmp_path / "rows.bin"
        assert main([
            "embed", "--input", str(p), "--format", "matrix-market", "--matrix", "dilation",
            "--function", "indicator:0.5", "--L", "16", "--b", "2", "--d", "6",
            "--output", str(out),
        ]) == 0
        meta = json.loads((tmp_path / "rows.bin.meta.json").read_text())
        provenance = made[0].provenance
        assert provenance["function"] == "indicator:0.5|odd"
        assert meta["function"] == "indicator:0.5"  # the text --function parses
        for key, value in provenance.items():
            if key != "function":
                assert meta[key] == value, key

    def test_dilation_of_signed_function_with_even_cascade(self, tmp_path):
        # |identity| has identity's row geometry, so the even cascade runs
        p = tmp_path / "a.mtx"
        scipy.io.mmwrite(p, scipy.sparse.coo_array(np.random.default_rng(6).standard_normal((7, 4))))
        out = tmp_path / "rows.bin"
        assert main([
            "embed", "--input", str(p), "--format", "matrix-market", "--matrix", "dilation",
            "--function", "identity", "--L", "16", "--b", "2", "--d", "6",
            "--output", str(out),
        ]) == 0
        rows = read_embedding(out)
        assert rows.shape == (7, 6) and np.all(np.isfinite(rows))

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


    def test_points_kernel_defaults(self, tmp_path):
        # without --kernel and --bandwidth a points-csv input is embedded with
        # a gaussian kernel of bandwidth 1, and the metadata says so
        p = tmp_path / "pts.csv"
        np.savetxt(p, np.random.default_rng(6).standard_normal((30, 2)), delimiter=",")
        argv = ["embed", "--input", str(p), "--format", "points-csv", "--matrix", "raw",
                "--function", "indicator:0.3", "--L", "12", "--d", "6"]
        assert main([*argv, "--output", str(tmp_path / "default.bin")]) == 0
        assert main([*argv, "--kernel", "gaussian", "--bandwidth", "1.0",
                     "--output", str(tmp_path / "explicit.bin")]) == 0
        default = (tmp_path / "default.bin").read_bytes()
        assert default == (tmp_path / "explicit.bin").read_bytes()
        meta = json.loads((tmp_path / "default.bin.meta.json").read_text())
        assert (meta["kernel"], meta["bandwidth"]) == ("gaussian", 1.0)

    def test_raw_array_matrix_market(self, tmp_path):
        # an array-format file takes the dense read; the CLI divides it by its
        # norm estimate and embeds it as the library does
        import csemb as cs
        from csemb.io import read_matrix_market

        a = np.random.default_rng(8).standard_normal((12, 12))
        p = tmp_path / "a.mtx"
        scipy.io.mmwrite(p, a + a.T)
        assert p.read_text().split()[2] == "array"
        out = tmp_path / "e.bin"
        assert main(["embed", "--input", str(p), "--format", "matrix-market", "--matrix", "raw",
                     "--function", "indicator:0.2", "--L", "16", "--b", "2", "--d", "5",
                     "--seed", "3", "--output", str(out)]) == 0
        M = read_matrix_market(p)
        nu = cs.estimate_spectral_norm(M)
        expected = cs.fast_embed_cascaded(cs.scale_values(M, 1.0 / nu), cs.indicator_above(0.2),
                                          cs.EmbedConfig(L=16, d=5, b=2, seed=3)).values
        assert read_embedding(out).tobytes() == expected.tobytes()
        assert json.loads((tmp_path / "e.bin.meta.json").read_text())["norm_estimate"] == nu


class TestErrors:
    def test_invalid_function_string_usage_error(self, small_graph, tmp_path):
        argv = _embed_argv(small_graph, tmp_path / "e.bin")
        argv[argv.index("indicator:0.3")] = "nosuch:1.0"
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "spec, shown",
        [("step:0.5", "valid kinds: indicator:<c>, commute:<eta>"), ("indicator:1.5", "[-1, 1]")],
        ids=["unknown-kind", "threshold-out-of-range"],
    )
    def test_function_error_names_the_fault(self, small_graph, tmp_path, capsys, spec, shown):
        argv = _embed_argv(small_graph, tmp_path / "e.bin")
        argv[argv.index("indicator:0.3")] = spec
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert shown in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["embed", "eval"])
    @pytest.mark.parametrize(
        "table, shown",
        [("0.5\n0.7\n", "two columns"), ("", "two columns"),
         ("-1,0\nnan,3\n1,1\n", "strictly increasing")],
        ids=["one-column", "empty", "nan-breakpoint"],
    )
    def test_bad_table_file_usage_error(self, small_graph, tmp_path, capsys, command, table,
                                        shown):
        # each is refused while the options are parsed, so eval writes no report
        path = tmp_path / "t.csv"
        path.write_text(table)
        if command == "embed":
            argv = _embed_argv(small_graph, tmp_path / "e2.bin")
            argv[argv.index("indicator:0.3")] = f"table:{path}"
        else:
            emb = tmp_path / "e.bin"
            main(_embed_argv(small_graph, emb))
            capsys.readouterr()
            argv = ["eval", "--approx", str(emb), "--input", str(small_graph),
                    "--format", "edgelist", "--function", f"table:{path}",
                    "--output-prefix", str(tmp_path / "r")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"bad function string 'table:{path}'" in err and shown in err
        assert not list(tmp_path.glob("r_*")) and not (tmp_path / "e2.bin").exists()

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

    @pytest.mark.parametrize("case", ["raw-not-square", "eval-size-mismatch", "edge-above-n"])
    def test_bad_input_usage_error(self, tmp_path, case):
        graph = tmp_path / "g.txt"
        graph.write_text("0 1\n1 2\n2 3\n")
        if case == "raw-not-square":
            mtx = tmp_path / "a.mtx"
            scipy.io.mmwrite(mtx, scipy.sparse.coo_array(np.arange(1.0, 7.0).reshape(3, 2)))
            argv = ["norm", "--input", str(mtx), "--format", "matrix-market", "--matrix", "raw"]
        elif case == "eval-size-mismatch":
            emb = tmp_path / "e.bin"
            from csemb.io import write_embedding

            write_embedding(emb, np.ones((3, 2)))
            argv = ["eval", "--approx", str(emb), "--input", str(graph), "--format",
                    "edgelist", "--function", "indicator:0.5",
                    "--output-prefix", str(tmp_path / "r")]
        else:
            argv = ["norm", "--input", str(graph), "--format", "edgelist", "--n", "2"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["embed", "norm", "eval"])
    def test_asymmetric_raw_rejected(self, tmp_path, command, capsys):
        # a directed 4-cycle of weight 0.9: square, ||A|| = 0.9, not symmetric
        mtx = tmp_path / "cycle.mtx"
        cycle = scipy.sparse.coo_array((np.full(4, 0.9), ([0, 1, 2, 3], [1, 2, 3, 0])))
        scipy.io.mmwrite(mtx, cycle)
        source = ["--input", str(mtx), "--format", "matrix-market", "--matrix", "raw"]
        if command == "embed":
            argv = ["embed", *source, "--function", "indicator:0.5", "--L", "8", "--d", "4",
                    "--output", str(tmp_path / "e.bin")]
        elif command == "norm":
            argv = ["norm", *source]
        else:
            emb = tmp_path / "e.bin"
            from csemb.io import write_embedding

            write_embedding(emb, np.ones((4, 2)))
            argv = ["eval", "--approx", str(emb), *source, "--function", "indicator:0.5",
                    "--output-prefix", str(tmp_path / "r")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--matrix dilation" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, fmt, extra, named",
        [
            ("embed", "matrix-market", ("--output-cols", "cols.bin"), "--output-cols"),
            ("embed", "matrix-market", ("--n", "30"), "--n"),
            ("embed", "points-csv", ("--n", "25"), "--n"),
            ("norm", "matrix-market", ("--n", "30"), "--n"),
        ],
        ids=["output-cols-without-dilation", "n-with-matrix-market", "n-with-points-csv",
             "norm-n-with-matrix-market"],
    )
    def test_ignored_option_usage_error(self, tmp_path, capsys, command, fmt, extra, named):
        # options that the input or matrix kind has no use for are refused,
        # not silently dropped
        rng = np.random.default_rng(1)
        if fmt == "matrix-market":
            p = tmp_path / "m.mtx"
            dense = rng.standard_normal((30, 30))
            scipy.io.mmwrite(p, scipy.sparse.coo_array(dense + dense.T))
        else:
            p = tmp_path / "pts.csv"
            np.savetxt(p, rng.standard_normal((25, 2)), delimiter=",")
        argv = [command, "--input", str(p), "--format", fmt, "--matrix", "raw", *extra]
        if command == "embed":
            argv += ["--function", "indicator:0.5", "--L", "8", "--d", "4",
                     "--output", str(tmp_path / "e.bin")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "e.bin").exists()

    @pytest.mark.parametrize("command", ["embed", "eval", "norm"])
    @pytest.mark.parametrize("fmt", ["edgelist", "matrix-market"])
    @pytest.mark.parametrize("option, value", [("--kernel", "indicator"), ("--bandwidth", "-3")])
    def test_kernel_option_needs_points_csv(self, tmp_path, capsys, command, fmt, option, value):
        # a kernel option is refused with any input but points-csv, not ignored
        if fmt == "edgelist":
            p = tmp_path / "g.txt"
            p.write_text("0 1\n1 2\n2 3\n")
            source = ["--input", str(p), "--format", fmt]
        else:
            p = tmp_path / "m.mtx"
            scipy.io.mmwrite(p, scipy.sparse.coo_array(np.eye(4)))
            source = ["--input", str(p), "--format", fmt, "--matrix", "raw"]
        if command == "embed":
            argv = ["embed", *source, "--function", "indicator:0.5", "--L", "8", "--d", "4",
                    "--output", str(tmp_path / "e.bin")]
        elif command == "eval":
            emb = tmp_path / "approx.bin"
            from csemb.io import write_embedding

            write_embedding(emb, np.ones((4, 2)))
            argv = ["eval", "--approx", str(emb), *source, "--function", "indicator:0.5",
                    "--output-prefix", str(tmp_path / "r")]
        else:
            argv = ["norm", *source]
        with pytest.raises(SystemExit) as exc:
            main([*argv, option, value])
        assert exc.value.code == 2
        assert f"{option} applies only to --format points-csv" in capsys.readouterr().err
        assert not (tmp_path / "e.bin").exists() and not (tmp_path / "r_report.json").exists()

    @pytest.mark.parametrize(
        "fmt, matrix, named",
        [("edgelist", "raw", "edge lists support only --matrix normalized-adjacency"),
         ("matrix-market", "normalized-adjacency", "requires --format edgelist")],
        ids=["edgelist-raw", "matrix-market-normalized-adjacency"],
    )
    def test_matrix_kind_must_fit_format(self, tmp_path, capsys, fmt, matrix, named):
        p = tmp_path / "in.txt"
        if fmt == "edgelist":
            p.write_text("0 1\n1 2\n")
        else:
            scipy.io.mmwrite(p, scipy.sparse.coo_array(np.eye(3)))
        with pytest.raises(SystemExit) as exc:
            main(["embed", "--input", str(p), "--format", fmt, "--matrix", matrix,
                  "--function", "indicator:0.5", "--L", "8", "--d", "2",
                  "--output", str(tmp_path / "e.bin")])
        assert exc.value.code == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["embed", "cluster"])
    def test_empty_edge_list_input_error(self, tmp_path, capsys, command):
        p = tmp_path / "g.txt"
        p.write_text("# no edges\n")
        argv = [command, "--input", str(p), "--function", "indicator:0.5", "--L", "8"]
        if command == "embed":
            argv += ["--format", "edgelist", "--output", str(tmp_path / "e.bin")]
        assert main(argv) == 3
        assert "empty graph" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "case, text, code",
        [("edgelist", "# no edges\n", 3), ("points-csv", "", 3), ("table", "", 2),
         ("matrix-market", "%%MatrixMarket matrix coordinate real general\n4 4 0\n", 0)],
        ids=["edgelist", "points-csv", "table", "matrix-market"],
    )
    def test_empty_input_shows_no_warning(self, tmp_path, case, text, code):
        # numpy's loadtxt warns on input that holds no data; the command's own
        # message is the only one shown
        p = tmp_path / "in.txt"
        p.write_text(text)
        graph = tmp_path / "g.txt"
        graph.write_text("0 1\n1 2\n2 0\n")
        embed = ["embed", "--format", "edgelist", "--L", "8", "--output", str(tmp_path / "e.bin")]
        argv = {
            "edgelist": [*embed, "--input", str(p), "--function", "indicator:0.5"],
            "points-csv": ["norm", "--input", str(p), "--format", "points-csv", "--matrix", "raw"],
            "table": [*embed, "--input", str(graph), "--function", f"table:{p}"],
            "matrix-market": ["norm", "--input", str(p), "--format", "matrix-market",
                              "--matrix", "raw"],
        }[case]
        env = dict(os.environ, PYTHONPATH=os.path.dirname(csemb.__path__[0]))
        run = subprocess.run([sys.executable, "-m", "csemb.cli", *argv], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == code, run.stderr
        assert "Warning" not in run.stderr

    @pytest.mark.parametrize("threads", ["0", "-3"], ids=["flag-zero", "flag-negative"])
    def test_bad_worker_count_usage_error(self, small_graph, tmp_path, capsys, threads):
        with pytest.raises(SystemExit) as exc:
            main(["--threads", threads] + _embed_argv(small_graph, tmp_path / "e.bin"))
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["0", "-3"])
    @pytest.mark.parametrize("command", ["embed", "eval", "norm", "cluster"])
    def test_vertex_count_below_one_usage_error(self, small_graph, tmp_path, capsys, command, n):
        # a bad option value, not an empty graph: the edge list is not empty
        write_embedding(tmp_path / "e.bin", np.zeros((80, 2)))  # eval's --approx
        common = ["--input", str(small_graph), "--n", n]
        edgelist = ["--format", "edgelist"]
        argv = {
            "embed": ["embed", *common, *edgelist, "--function", "indicator:0.5", "--L", "8",
                      "--output", str(tmp_path / "e.bin")],
            "eval": ["eval", *common, *edgelist, "--function", "indicator:0.5",
                     "--approx", str(tmp_path / "e.bin"), "--output-prefix", str(tmp_path / "r")],
            "norm": ["norm", *common, *edgelist],
            "cluster": ["cluster", *common, "--function", "indicator:0.5", "--L", "8"],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--n" in err and "empty graph" not in err

    def test_cluster_self_loops_only_refused_before_embed(self, tmp_path, monkeypatch, capsys):
        # no edge joins two distinct vertices, so there is no modularity to
        # score: the command exits 2 before it embeds, not after every restart
        def no_embed(*args, **kwargs):
            raise AssertionError("embedded a graph that cannot be scored")

        monkeypatch.setattr(csemb.cluster, "fast_embed_cascaded", no_embed)
        graph = tmp_path / "loops.txt"
        graph.write_text("0 0\n1 1\n")
        with pytest.raises(SystemExit) as exc:
            main(["cluster", "--input", str(graph), "--function", "indicator:0.5",
                  "--L", "4", "--k", "1", "--runs", "2"])
        assert exc.value.code == 2
        assert "at least one edge" in capsys.readouterr().err

    @pytest.mark.parametrize("k", [0, 4])
    def test_cluster_k_out_of_range_refused_before_embed(self, tmp_path, monkeypatch, capsys, k):
        # K = 0 and K = n + 1 on a 3-vertex ring exit 2 before the embed runs
        def no_embed(*args, **kwargs):
            raise AssertionError("embedded before checking K")

        monkeypatch.setattr(csemb.cluster, "fast_embed_cascaded", no_embed)
        graph = tmp_path / "ring.txt"
        graph.write_text("0 1\n1 2\n2 0\n")
        with pytest.raises(SystemExit) as exc:
            main(["cluster", "--input", str(graph), "--function", "indicator:0.5",
                  "--L", "4", "--k", str(k), "--runs", "2"])
        assert exc.value.code == 2
        assert f"K={k} must lie in [1, n=3]" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["pairs-zero", "pairs-negative", "one-vertex"])
    def test_empty_pair_sample_usage_error(self, tmp_path, capsys, case):
        from csemb.io import write_embedding

        rows = 1 if case == "one-vertex" else 5
        emb = tmp_path / "e.bin"
        write_embedding(emb, np.ones((rows, 2)))
        argv = ["eval", "--approx", str(emb), "--exact", str(emb),
                "--output-prefix", str(tmp_path / "r")]
        if case != "one-vertex":
            argv += ["--pairs", "0" if case == "pairs-zero" else "-5"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "at least one vertex pair" in capsys.readouterr().err

    def test_norm_short_of_sigma_max_exit_code(self, tmp_path, monkeypatch, capsys):
        # 5%-dense 2000 x 1000: the top of the spectrum is dense. The Lanczos
        # estimate reaches sigma_max, so even L = 120 stays within the growth
        # bound. An estimate 2% lower leaves ||S / nu|| > 1, and at L = 120 a
        # column grows past the bound: exit 4, no output.
        rng = np.random.default_rng(1)
        mask = rng.random((2000, 1000)) < 0.05
        i, j = np.nonzero(mask)
        A = scipy.sparse.coo_array((rng.standard_normal(len(i)), (i, j)), shape=(2000, 1000))
        mtx = tmp_path / "a.mtx"
        scipy.io.mmwrite(mtx, A)
        out = tmp_path / "e.bin"
        argv = ["embed", "--input", str(mtx), "--format", "matrix-market",
                "--matrix", "dilation", "--function", "indicator:0.5", "--d", "16",
                "--L", "120", "--output", str(out)]
        assert main(argv) == 0
        meta = json.loads((tmp_path / "e.bin.meta.json").read_text())
        assert meta["norm_estimate"] >= np.linalg.norm(A.toarray(), 2)
        assert np.abs(read_embedding(out)).max() < 2.0
        out.unlink()
        real = csemb.cli.estimate_spectral_norm
        monkeypatch.setattr(csemb.cli, "estimate_spectral_norm", lambda S: 0.98 * real(S))
        assert main(argv) == 4
        assert "spectral norm > 1" in capsys.readouterr().err
        assert not out.exists()

    def test_unparseable_input(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a graph\n")
        assert main(_embed_argv(bad, tmp_path / "e.bin")) == 3

    def test_non_finite_point_input_error(self, tmp_path, capsys):
        # a NaN point used to be left isolated, and norm exited 0
        p = tmp_path / "pts.csv"
        p.write_text("0.0,0.0\n0.5,0.1\nnan,1.0\n1.0,0.3\n")
        code = main(["norm", "--input", str(p), "--format", "points-csv", "--matrix", "raw",
                     "--output", str(tmp_path / "n.json")])
        assert code == 3
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["embed", "norm", "eval"])
    def test_unwritable_output_exit_code(self, small_graph, tmp_path, command):
        # a file that cannot be written is exit 3, one error line, no
        # traceback; embed meets it only after the engine has run
        missing = tmp_path / "absent" / "out"
        argv = {
            "embed": _embed_argv(small_graph, missing),
            "norm": ["norm", "--input", str(small_graph), "--format", "edgelist",
                     "--output", str(missing)],
            "eval": ["eval", "--approx", str(tmp_path / "e.bin"), "--input", str(small_graph),
                     "--format", "edgelist", "--function", "indicator:0.3",
                     "--output-prefix", str(missing)],
        }[command]
        if command == "eval":
            assert main(_embed_argv(small_graph, tmp_path / "e.bin")) == 0
        env = dict(os.environ, PYTHONPATH=os.path.dirname(csemb.__path__[0]))
        run = subprocess.run([sys.executable, "-m", "csemb.cli", *argv], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 3, run.stderr
        assert run.stderr.startswith("error: [Errno 2] ")
        assert len(run.stderr.splitlines()) == 1 and "Traceback" not in run.stderr

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

    def test_eval_row_mismatch_refused_before_oracle(self, small_graph, tmp_path, monkeypatch,
                                                     capsys):
        # an --approx of 81 rows against the 80-vertex graph exits 2 before
        # the oracle runs, not after it
        def no_oracle(*args, **kwargs):
            raise AssertionError("ran the oracle for a mismatched --approx")

        monkeypatch.setattr(csemb.cli, "exact_embedding", no_oracle)
        emb = tmp_path / "e.bin"
        write_embedding(emb, np.ones((81, 3)))
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--approx", str(emb), "--input", str(small_graph), "--format",
                  "edgelist", "--function", "indicator:0.3",
                  "--output-prefix", str(tmp_path / "r")])
        assert exc.value.code == 2
        assert "--approx has 81 rows, the matrix 80" in capsys.readouterr().err
        assert not list(tmp_path.glob("r_*"))

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

    def test_oracle_cap_before_dense_matrix(self, tmp_path):
        # a 100,000-vertex ring: its dense matrix would take 74.5 GiB, so the
        # cap has to fire before the oracle forms it
        n = 100_000
        p = tmp_path / "ring.txt"
        p.write_text("".join(f"{i} {(i + 1) % n}\n" for i in range(n)))
        emb = tmp_path / "e.bin"
        from csemb.io import write_embedding

        write_embedding(emb, np.zeros((2, 2)))
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
        ex = exact_embedding(adj, indicator_above(0.3))
        emb_path = tmp_path / "exact.bin"
        write_embedding(emb_path, ex)
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

    def test_exact_file_checks_the_options(self, small_graph, tmp_path, capsys):
        out = tmp_path / "e.bin"
        main(_embed_argv(small_graph, out))
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--approx", str(out), "--exact", str(out), "--format", "points-csv",
                  "--kernel", "indicator", "--bandwidth", "-3", "--n", "99",
                  "--output-prefix", str(tmp_path / "r")])
        assert exc.value.code == 2
        assert "--n applies only to --format edgelist" in capsys.readouterr().err

    @pytest.mark.parametrize("unused, named", [
        (("--input", "missing.txt"), "--input"),
        (("--function", "indicator:0.9"), "--function"),
        (("--input", "missing.txt", "--format", "edgelist", "--function", "indicator:0.9"),
         "--input and --function"),
    ], ids=["input", "function", "both"])
    def test_exact_file_refuses_oracle_options(self, small_graph, tmp_path, capsys, unused,
                                               named):
        # with --exact no matrix is read and no oracle runs, so the options
        # that would feed them are refused rather than ignored
        out = tmp_path / "e.bin"
        main(_embed_argv(small_graph, out))
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--approx", str(out), "--exact", str(out), *unused,
                  "--output-prefix", str(tmp_path / "r")])
        assert exc.value.code == 2
        assert f"{named} cannot be used with --exact" in capsys.readouterr().err
        assert not list(tmp_path.glob("r_*"))

    @pytest.mark.parametrize("extra", [(), ("--format", "edgelist", "--n", "80")],
                             ids=["bare", "consistent"])
    def test_exact_file_report(self, small_graph, tmp_path, extra):
        # options that fit the format pass; the files are the library's report
        from csemb import distortion_percentiles
        from csemb.oracle import write_report

        out = tmp_path / "e.bin"
        main(_embed_argv(small_graph, out))
        assert main(["eval", "--approx", str(out), "--exact", str(out), *extra, "--seed", "2",
                     "--output-prefix", str(tmp_path / "cli")]) == 0
        emb = read_embedding(out)
        write_report(distortion_percentiles(emb, emb, seed=2), tmp_path / "lib")
        for suffix in ("_percentiles.csv", "_calibration.csv", "_report.json"):
            expected = (tmp_path / ("lib" + suffix)).read_bytes()
            assert (tmp_path / ("cli" + suffix)).read_bytes() == expected

    def test_one_distortion_pass(self, small_graph, tmp_path, monkeypatch):
        import csemb.cli

        calls = []
        real = csemb.cli.distortion_percentiles

        def counted(*args, **kwargs):
            calls.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(csemb.cli, "distortion_percentiles", counted)
        out = tmp_path / "e.bin"
        main(_embed_argv(small_graph, out))
        code = main(
            ["eval", "--approx", str(out), "--input", str(small_graph), "--format",
             "edgelist", "--function", "indicator:0.3", "--output-prefix", str(tmp_path / "r")]
        )
        assert code == 0
        assert len(calls) == 1
        for suffix in ("_percentiles.csv", "_calibration.csv", "_report.json"):
            assert (tmp_path / ("r" + suffix)).stat().st_size > 0

    def test_approx_payload_read_after_oracle(self, small_graph, tmp_path, monkeypatch):
        # --approx's header is checked before the oracle, its payload read after
        out = tmp_path / "e.bin"
        assert main(_embed_argv(small_graph, out)) == 0
        calls = []

        def recorded(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        recorded(csemb.io, "embedding_shape")
        recorded(csemb.io, "read_embedding")
        recorded(csemb.cli, "exact_embedding")
        assert main(["eval", "--approx", str(out), "--input", str(small_graph), "--format",
                     "edgelist", "--function", "indicator:0.3",
                     "--output-prefix", str(tmp_path / "r")]) == 0
        assert calls == ["embedding_shape", "exact_embedding", "read_embedding"]

    def test_identity_takes_the_full_eigh(self, small_graph, tmp_path, monkeypatch):
        # identity keeps every eigenpair, so the oracle runs np.linalg.eigh;
        # the report files equal the library's report of the same oracle
        from csemb import distortion_percentiles, exact_embedding, identity, normalized_adjacency
        from csemb.io import read_edgelist
        from csemb.oracle import write_report

        out = tmp_path / "e.bin"
        assert main(_embed_argv(small_graph, out)) == 0
        shapes = []
        eigh = np.linalg.eigh

        def counted(a):
            shapes.append(a.shape)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        assert main(["eval", "--approx", str(out), "--input", str(small_graph), "--format",
                     "edgelist", "--function", "identity", "--seed", "3",
                     "--output-prefix", str(tmp_path / "cli")]) == 0
        assert shapes == [(80, 80)]
        edges, n = read_edgelist(small_graph)
        exact = exact_embedding(normalized_adjacency(edges, n), identity())
        write_report(distortion_percentiles(exact, read_embedding(out), seed=3), tmp_path / "lib")
        for suffix in ("_percentiles.csv", "_calibration.csv", "_report.json"):
            expected = (tmp_path / ("lib" + suffix)).read_bytes()
            assert (tmp_path / ("cli" + suffix)).read_bytes() == expected


class TestOperator:
    def test_eval_raw_compares_scaled_operator(self, tmp_path):
        # embed applies f_L to S / nu; eval must compare with f(S / nu), not
        # f(S), or most pairs deviate by more than 1. 300 points in three
        # well-separated clusters.
        rng = np.random.default_rng(0)
        centers = np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0]])
        pts = tmp_path / "pts.csv"
        np.savetxt(pts, np.concatenate([c + rng.standard_normal((100, 2)) for c in centers]),
                   delimiter=",")
        source = ["--input", str(pts), "--format", "points-csv", "--matrix", "raw"]
        out = tmp_path / "e.bin"
        assert main(["embed", *source, "--function", "indicator:0.5", "--L", "120",
                     "--b", "2", "--d", "80", "--output", str(out)]) == 0
        assert main(["eval", "--approx", str(out), *source, "--function", "indicator:0.5",
                     "--output-prefix", str(tmp_path / "r")]) == 0
        report = json.loads((tmp_path / "r_report.json").read_text())
        assert all(abs(v) <= 0.15 for v in report["percentiles"].values())

    @pytest.mark.parametrize("b", [1, 2])
    def test_library_recipe_matches_cli(self, tmp_path, b):
        # a rectangular input is an operator, not a second entry point: its
        # dilation over the norm estimate, embedded with the odd extension of
        # f; the first n rows embed the columns
        import csemb as cs
        from csemb.io import read_matrix_market, write_embedding

        mtx = tmp_path / "a.mtx"
        scipy.io.mmwrite(mtx, scipy.sparse.coo_array(
            np.random.default_rng(4).standard_normal((9, 5))))
        assert main(["embed", "--input", str(mtx), "--format", "matrix-market",
                     "--matrix", "dilation", "--function", "indicator:0.5",
                     "--L", "16", "--b", str(b), "--d", "6", "--seed", "7",
                     "--output", str(tmp_path / "rows.bin"),
                     "--output-cols", str(tmp_path / "cols.bin")]) == 0

        A = read_matrix_market(mtx)
        S = cs.dilate(A)
        S = cs.scale_values(S, 1.0 / cs.estimate_spectral_norm(S))
        cfg = cs.EmbedConfig(L=16, d=6, b=b, seed=7)
        f = cs.odd_extension(cs.indicator_above(0.5))
        values = cs.fast_embed_cascaded(S, f, cfg).values
        write_embedding(tmp_path / "lib_rows.bin", values[A.n_cols:])
        write_embedding(tmp_path / "lib_cols.bin", values[:A.n_cols])
        for side in ("rows", "cols"):
            expected = (tmp_path / f"{side}.bin").read_bytes()
            assert (tmp_path / f"lib_{side}.bin").read_bytes() == expected

    @pytest.mark.parametrize("command", ["embed-dilation", "eval-raw"])
    def test_one_call_per_benchmark_span(self, tmp_path, monkeypatch, command):
        # the benchmark times these names in csemb.cli; each runs once
        import csemb.cli

        calls = []
        for name in ("estimate_spectral_norm", "fast_embed_cascaded"):
            def counted(*args, _real=getattr(csemb.cli, name), _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(csemb.cli, name, counted)
        if command == "embed-dilation":
            mtx = tmp_path / "a.mtx"
            dense = np.random.default_rng(2).standard_normal((7, 4))
            scipy.io.mmwrite(mtx, scipy.sparse.coo_array(dense))
            assert main(["embed", "--input", str(mtx), "--format", "matrix-market",
                         "--matrix", "dilation", "--function", "indicator:0.5", "--L", "16",
                         "--d", "6", "--output", str(tmp_path / "rows.bin"),
                         "--output-cols", str(tmp_path / "cols.bin")]) == 0
            assert calls == ["estimate_spectral_norm", "fast_embed_cascaded"]
        else:
            pts = tmp_path / "pts.csv"
            np.savetxt(pts, np.random.default_rng(3).standard_normal((25, 2)), delimiter=",")
            emb = tmp_path / "e.bin"
            from csemb.io import write_embedding

            write_embedding(emb, np.ones((25, 2)))
            assert main(["eval", "--approx", str(emb), "--input", str(pts),
                         "--format", "points-csv", "--matrix", "raw", "--function",
                         "indicator:0.5", "--output-prefix", str(tmp_path / "r")]) == 0
            assert calls == ["estimate_spectral_norm"]


    @pytest.mark.parametrize("command, checks", [("norm", 1), ("embed", 2)])
    def test_raw_symmetry_checked_once_per_layer(self, tmp_path, monkeypatch, command,
                                                 checks):
        # the norm estimate's check stands for the CLI's; embed adds the engine's
        from csemb import SparseMatrix

        calls = []
        real = SparseMatrix.is_symmetric

        def counted(self):
            calls.append(self.shape)
            return real(self)

        monkeypatch.setattr(SparseMatrix, "is_symmetric", counted)
        dense = np.random.default_rng(5).standard_normal((12, 12))
        mtx = tmp_path / "s.mtx"
        scipy.io.mmwrite(mtx, scipy.sparse.coo_array(dense + dense.T))
        argv = [command, "--input", str(mtx), "--format", "matrix-market", "--matrix", "raw"]
        if command == "embed":
            argv += ["--function", "indicator:0.5", "--L", "8", "--d", "4",
                     "--output", str(tmp_path / "e.bin")]
        assert main(argv) == 0
        assert len(calls) == checks


class TestProjectionNotFormed:
    def test_embed_and_cluster_draw_omega_in_the_engine(self, small_graph, tmp_path,
                                                        monkeypatch):
        # each column block draws its own signs; no command forms the n x d Omega
        import csemb.engine

        expected = tmp_path / "expected.bin"
        assert main(["--threads", "2"] + _embed_argv(small_graph, expected)) == 0

        def refuse(*args, **kwargs):
            raise AssertionError("the n x d projection was formed")

        monkeypatch.setattr(csemb.engine, "sample_projection", refuse)
        monkeypatch.setattr(csemb.cli, "sample_projection", refuse, raising=False)
        out = tmp_path / "e.bin"
        assert main(["--threads", "2"] + _embed_argv(small_graph, out)) == 0
        assert out.read_bytes() == expected.read_bytes()
        assert main(["cluster", "--input", str(small_graph), "--function", "indicator:0.3",
                     "--L", "16", "--b", "2", "--d", "10", "--k", "4", "--runs", "3",
                     "--summary-out", str(tmp_path / "summary.json")]) == 0


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

    def test_no_edge_list_held_through_the_embed(self, small_graph, tmp_path, monkeypatch):
        # only normalized_adjacency sees the edge array, and S's values are
        # released once the embed is done, before the k-means restarts
        refs = {}
        read_edgelist, embed, kmeans = (csemb.io.read_edgelist, csemb.cluster.fast_embed_cascaded,
                                        csemb.cluster.kmeans)

        def reading(path):
            edges, n = read_edgelist(path)
            refs["edges"] = weakref.ref(edges)
            return edges, n

        def embedding(S, *args, **kwargs):
            assert refs["edges"]() is None, "the edge list is held through the embed"
            refs["values"] = weakref.ref(S.values)
            return embed(S, *args, **kwargs)

        def clustering(*args, **kwargs):
            if sys.version_info >= (3, 11):  # the call takes over the caller's S from 3.11 on
                assert refs["values"]() is None, "S's values are held through the restarts"
            return kmeans(*args, **kwargs)

        monkeypatch.setattr(csemb.io, "read_edgelist", reading)
        monkeypatch.setattr(csemb.cluster, "fast_embed_cascaded", embedding)
        monkeypatch.setattr(csemb.cluster, "kmeans", clustering)
        assert main(["cluster", "--input", str(small_graph), "--function", "indicator:0.3",
                     "--L", "8", "--d", "6", "--k", "4", "--runs", "2",
                     "--summary-out", str(tmp_path / "s.json")]) == 0
        assert set(refs) == {"edges", "values"}


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

    def test_edgelist_estimates_on_the_adjacency(self, tmp_path):
        # the normalized adjacency is not rescaled, so norm estimates it here
        from csemb import estimate_spectral_norm, normalized_adjacency
        from csemb.io import read_edgelist

        graph = tmp_path / "g.txt"
        graph.write_text("".join(f"{i} {(i + 1) % 12}\n{i} {(i + 5) % 12}\n" for i in range(12)))
        out = tmp_path / "norm.json"
        assert main(["norm", "--input", str(graph), "--format", "edgelist",
                     "--output", str(out)]) == 0
        est = json.loads(out.read_text())["norm_estimate"]
        edges, _ = read_edgelist(graph)
        assert est == estimate_spectral_norm(normalized_adjacency(edges, 12))
        assert est == pytest.approx(1.01, abs=1e-12)

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
              "--matrix", "raw", "--output", str(out)])
        est = json.loads(out.read_text())["norm_estimate"]
        assert 0.9 * (1 - 1e-6) <= est <= 0.909
