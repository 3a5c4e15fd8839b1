"""The package's public surface and its internal import discipline."""

import ast
import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import csemb

PACKAGE_DIR = pathlib.Path(csemb.__file__).parent
BENCH_CHILD = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "child.py"

PUBLIC = [
    "ApproximationReport",
    "ClusterAssignment",
    "ClusterExperiment",
    "CsembError",
    "DistortionReport",
    "DivergenceError",
    "EmbedConfig",
    "EmbeddingMatrix",
    "InputFormatError",
    "LegendreExpansion",
    "ModularityScore",
    "ORACLE_CAP",
    "OracleCapError",
    "OracleError",
    "SparseMatrix",
    "SpectralFunction",
    "approximation_report",
    "cluster_experiment",
    "commute_time",
    "constant",
    "default_dimension",
    "dilate",
    "distance_bound_audit",
    "distortion_percentiles",
    "estimate_spectral_norm",
    "exact_embedding",
    "expansion_eval",
    "fast_embed_cascaded",
    "fold_seed",
    "identity",
    "indicator_above",
    "kernel_matrix",
    "kmeans",
    "legendre_coefficients",
    "legendre_table",
    "modularity",
    "normalized_adjacency",
    "odd_extension",
    "parse_function",
    "root_function",
    "sample_pairs",
    "sample_projection",
    "scale_values",
    "spmv_multi",
    "tabulated",
]


def test_all_is_pinned():
    assert PUBLIC == sorted(PUBLIC)
    assert csemb.__all__ == PUBLIC


def test_every_public_name_resolves():
    for name in csemb.__all__:
        assert getattr(csemb, name, None) is not None, name


def test_no_private_names_imported_across_modules():
    offenders = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            internal = node.level > 0 or (node.module or "").split(".")[0] == "csemb"
            if not internal:
                continue
            offenders += [
                f"{path.name}: {alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    assert offenders == []


def test_benchmark_untraced_names_resolve():
    # The benchmark's setup_s and embed_s time the CLI's calls under these
    # names. The dilation path embeds through fast_embed_cascaded, and the
    # engine draws the projection itself, so the CLI imports neither
    # fast_embed_general nor sample_projection.
    spec = importlib.util.spec_from_file_location("perfbench_child", BENCH_CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    unresolved = [
        f"{module_name}.{attr}"
        for module_name, attrs in child.UNTRACED
        for attr in attrs
        if getattr(importlib.import_module(module_name), attr, None) is None
    ]
    assert unresolved == ["csemb.cli.sample_projection", "csemb.cli.fast_embed_general"]


def test_cli_commands_import_neither_scipy_sparse_nor_scipy_io(tmp_path):
    # Start-up cost: each command runs in a fresh process, and importing
    # scipy.sparse and scipy.io costs about 0.3 s of CPU there. Loading the
    # Matrix Market core costs 1.5 ms and 1.6 MB, so only a Matrix Market
    # read loads it. Loading LAPACK's extension adds about 2.5 MB of RSS, so
    # only eval loads it, and no command runs the scipy.linalg package.
    graph = tmp_path / "g.txt"
    graph.write_text("".join(f"{i} {(i + 1) % 12}\n{i} {(i + 5) % 12}\n" for i in range(12)))
    mtx = tmp_path / "a.mtx"
    mtx.write_text(
        "%%MatrixMarket matrix coordinate real general\n% a comment\n5 3 6\n"
        "1 1 0.5\n2 2 -1.25\n3 3 2.0\n4 1 1.0\n5 2 0.75\n5 3 -0.5\n"
    )
    emb = tmp_path / "e.bin"
    graph_args = ["--input", str(graph), "--function", "indicator:0.3", "--L", "12", "--d", "6"]
    # the edge-list commands first: they must not load the Matrix Market core
    commands = [
        ["embed", *graph_args, "--format", "edgelist", "--output", str(emb)],
        ["cluster", *graph_args, "--k", "2", "--runs", "2",
         "--labels-out", str(tmp_path / "l.csv"), "--summary-out", str(tmp_path / "s.json")],
        ["eval", "--approx", str(emb), "--input", str(graph), "--format", "edgelist",
         "--function", "indicator:0.3", "--output-prefix", str(tmp_path / "r")],
        ["embed", "--input", str(mtx), "--format", "matrix-market", "--matrix", "dilation",
         "--function", "indicator:0.5", "--L", "12", "--d", "4",
         "--output", str(tmp_path / "rows.bin"), "--output-cols", str(tmp_path / "cols.bin")],
        ["norm", "--input", str(mtx), "--format", "matrix-market", "--matrix", "dilation",
         "--output", str(tmp_path / "n.json")],
    ]
    code = (
        "import json, sys\n"
        "import csemb.io, csemb.oracle\n"
        "from csemb.cli import main\n"
        "codes, core_loaded, lapack_loaded = [], [], []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    csemb.oracle._flapack.cache_clear()\n"
        "    codes.append(main(argv))\n"
        "    core_loaded.append(csemb.io._fmm_core.cache_info().currsize == 1)\n"
        "    lapack_loaded.append(csemb.oracle._flapack.cache_info().currsize == 1)\n"
        "loaded = [m for m in ('scipy.sparse', 'scipy.io', 'scipy.linalg') if m in sys.modules]\n"
        "print(json.dumps([codes, core_loaded, lapack_loaded, loaded]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    run = subprocess.run(
        [sys.executable, "-c", code, json.dumps(commands)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    codes, core_loaded, lapack_loaded, loaded = json.loads(run.stdout.strip().splitlines()[-1])
    assert codes == [0] * len(commands)
    assert core_loaded == [False, False, False, True, True]
    assert lapack_loaded == [False, False, True, False, False]  # each command on its own
    assert loaded == []
