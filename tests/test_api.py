"""The package's public surface and its internal import discipline."""

import ast
import hashlib
import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import numpy as np

import csemb

PACKAGE_DIR = pathlib.Path(csemb.__file__).parent
BENCH_CHILD = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

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


def test_readme_library_sketch_runs():
    # the README's example uses the public names, so renaming or removing
    # one fails here rather than leaving the example broken
    sketch = README.read_text().split("## Library sketch", 1)[1]
    sketch = sketch.split("```python\n", 1)[1].split("```", 1)[0]
    rng = np.random.default_rng(0)
    n = 60
    dense = rng.standard_normal((8, 8))
    scope = {
        "edges": [(i, (i + k) % n) for i in range(n) for k in (1, 7)],
        "n": n,
        "A": csemb.SparseMatrix.from_dense(rng.standard_normal((9, 5))),
        "M": csemb.SparseMatrix.from_dense(dense + dense.T),
    }
    exec(compile(sketch, str(README), "exec"), scope)
    assert scope["emb"].values.shape == (n, csemb.default_dimension(n))
    assert scope["cols"].shape[0] == 5 and scope["rows"].shape[0] == 9
    assert 0.0 <= scope["rate"] <= 1.0 and scope["norm"] > 0.0
    assert isinstance(scope["q"], float)


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
    # scipy.sparse and scipy.io costs about 0.3 s of CPU there. csemb loads
    # two private extensions from their files: sparse._sparsetools at import,
    # and linalg._flapack, which adds about 2.5 MB of RSS, in eval alone. No
    # command runs the scipy.linalg package. The README's "Known limits" lists
    # the same two. No command loads numpy.random either (about 6 MB of RSS):
    # every random draw is a SplitMix64 hash of (seed, position). Nor does one
    # load concurrent.futures (0.64-0.74 MB with its thread pool, logging and
    # queue: the engine starts bare threads) or numpy.polynomial (0.60-0.68 MB:
    # the Gauss-Legendre rule is a pinned table), and csv (0.07 MB) comes only
    # with eval's report. (RSS added after numpy, one process, 2-vCPU VM.)
    graph = tmp_path / "g.txt"
    graph.write_text("".join(f"{i} {(i + 1) % 12}\n{i} {(i + 5) % 12}\n" for i in range(12)))
    mtx = tmp_path / "a.mtx"
    mtx.write_text(
        "%%MatrixMarket matrix coordinate real general\n% a comment\n5 3 6\n"
        "1 1 0.5\n2 2 -1.25\n3 3 2.0\n4 1 1.0\n5 2 0.75\n5 3 -0.5\n"
    )
    emb = tmp_path / "e.bin"
    graph_args = ["--input", str(graph), "--function", "indicator:0.3", "--L", "12", "--d", "6"]
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
    # every load_scipy_extension call, wherever a csemb module holds the loader
    code = (
        "import json, sys\n"
        "import csemb.oracle, csemb.sparse\n"
        "from csemb.cli import main\n"
        "codes, calls, rand, load = [], [], [], csemb.sparse.load_scipy_extension\n"
        "spare = ('concurrent.futures', 'logging', 'numpy.polynomial', 'csv')\n"
        "loads, csv_at_report, report = [], [], csemb.cli.write_report\n"
        "def reporting(*args):\n"
        "    csv_at_report.append('csv' in sys.modules)\n"
        "    return report(*args)\n"
        "csemb.cli.write_report = reporting\n"
        "def recording(module, *args):\n"
        "    calls[-1].append(module)\n"
        "    return load(module, *args)\n"
        "for name, m in list(sys.modules.items()):\n"
        "    if name.startswith('csemb.') and hasattr(m, 'load_scipy_extension'):\n"
        "        m.load_scipy_extension = recording\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    csemb.oracle._flapack.cache_clear()\n"
        "    calls.append([])\n"
        "    codes.append(main(argv))\n"
        "    rand.append('numpy.random' in sys.modules)\n"
        "    loads.append([m for m in spare if m in sys.modules])\n"
        "at_import = csemb.sparse._sparsetools.__name__\n"
        "loaded = [m for m in ('scipy.sparse', 'scipy.io', 'scipy.linalg') if m in sys.modules]\n"
        "print(json.dumps([codes, calls, at_import, loaded, rand, loads, csv_at_report]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    run = subprocess.run(
        [sys.executable, "-c", code, json.dumps(commands)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    codes, calls, at_import, loaded, rand, loads, csv_at_report = json.loads(
        run.stdout.strip().splitlines()[-1]
    )
    assert codes == [0] * len(commands)
    assert at_import == "scipy.sparse._sparsetools"
    assert calls == [[], [], ["linalg._flapack"], [], []]  # each command on its own
    assert loaded == []
    assert rand == [False] * len(commands)
    # csv arrives with eval's report, the third command, and stays loaded
    assert loads == [[], [], ["csv"], ["csv"], ["csv"]]
    assert csv_at_report == [False]


def test_embed_and_norm_never_load_openssl(tmp_path):
    # hashlib's import loads OpenSSL's libcrypto, 3.4 MB resident, so the
    # coefficient digest is taken with CPython's own SHA-256; it must still
    # equal hashlib's
    graph = tmp_path / "g.txt"
    graph.write_text("".join(f"{i} {(i + 1) % 12}\n{i} {(i + 5) % 12}\n" for i in range(12)))
    mtx = tmp_path / "a.mtx"
    mtx.write_text(
        "%%MatrixMarket matrix coordinate real general\n5 3 6\n"
        "1 1 0.5\n2 2 -1.25\n3 3 2.0\n4 1 1.0\n5 2 0.75\n5 3 -0.5\n"
    )
    commands = [
        ["embed", "--input", str(graph), "--format", "edgelist", "--function", "indicator:0.3",
         "--L", "12", "--b", "2", "--d", "6", "--output", str(tmp_path / "g.bin")],
        ["embed", "--input", str(mtx), "--format", "matrix-market", "--matrix", "dilation",
         "--function", "indicator:0.5", "--L", "12", "--d", "4",
         "--output", str(tmp_path / "a.bin")],
        ["norm", "--input", str(mtx), "--format", "matrix-market", "--matrix", "dilation",
         "--output", str(tmp_path / "n.json")],
    ]
    code = (
        "import json, sys\n"
        "from csemb.cli import main\n"
        "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps([codes, '_hashlib' in sys.modules]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    run = subprocess.run(
        [sys.executable, "-c", code, json.dumps(commands)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    codes, openssl_loaded = json.loads(run.stdout.strip().splitlines()[-1])
    assert codes == [0] * len(commands)
    assert not openssl_loaded
    for output, f in [("g.bin", csemb.parse_function("indicator:0.3")),
                      ("a.bin", csemb.odd_extension(csemb.parse_function("indicator:0.5")))]:
        meta = json.loads((tmp_path / (output + ".meta.json")).read_text())
        coeffs = csemb.legendre_coefficients(
            csemb.root_function(f, meta["b"]), meta["stage_order"]
        ).coeffs
        assert meta["coeffs_sha256"] == hashlib.sha256(coeffs.tobytes()).hexdigest()
