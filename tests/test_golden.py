"""Golden digests of small ``csemb`` CLI outputs.

Any change that moves an output bit fails here, so a refactor that claims
byte-identical output is checked, and one that does not has to update the
digests and say by how much the values moved.

The digests were computed with numpy 2.4.6, scipy 1.17.1 and
scipy-openblas 0.3.31 on x86-64. Another BLAS or another scipy sparse kernel
may round differently; regenerate the digests there before trusting a
mismatch.
"""

import hashlib

import numpy as np
import pytest

from csemb.cli import main
from helpers import sbm


def _write_graph(path):
    edges, _ = sbm(80, 4, 0.4, 0.03, np.random.default_rng(0))
    path.write_text("".join(f"{u} {v}\n" for u, v in edges))


def _write_mtx(path, dense):
    rows, cols = np.nonzero(dense)
    lines = [
        "%%MatrixMarket matrix coordinate real general",
        f"{dense.shape[0]} {dense.shape[1]} {len(rows)}",
    ]
    lines += [f"{i + 1} {j + 1} {float(dense[i, j])!r}" for i, j in zip(rows, cols)]
    path.write_text("\n".join(lines) + "\n")


def _write_symmetric(path):
    a = np.random.default_rng(1).standard_normal((30, 30))
    _write_mtx(path, a + a.T)


def _write_rectangular(path):
    _write_mtx(path, np.random.default_rng(2).standard_normal((7, 4)))


def _write_points(path):
    pts = np.random.default_rng(3).standard_normal((25, 2))
    path.write_text("".join(f"{x!r},{y!r}\n" for x, y in pts.tolist()))


def _embed(input_name, fmt, matrix, function, L, b, d, seed, extra=()):
    return [
        "embed", "--input", input_name, "--format", fmt, "--matrix", matrix,
        "--function", function, "--L", str(L), "--b", str(b), "--d", str(d),
        "--seed", str(seed), "--output", "out.bin", *extra,
    ]


def _norm(input_name, matrix):
    return [
        "norm", "--input", input_name, "--format", "matrix-market", "--matrix", matrix,
        "--output", "norm.json",
    ]


GRAPH_B1 = _embed("graph.txt", "edgelist", "normalized-adjacency", "indicator:0.3", 24, 1, 12, 42)

# name -> (input writer, input file, [argv, ...], {output file: sha256})
CASES = {
    "graph-b1": (
        _write_graph, "graph.txt",
        [GRAPH_B1],
        {"out.bin": "602307110dfe664c3409e61e2660dcfa123dd53eaa239b6b9d3a8725cbb45120"},
    ),
    "graph-b2": (
        _write_graph, "graph.txt",
        [_embed("graph.txt", "edgelist", "normalized-adjacency", "indicator:0.3", 24, 2, 12, 42)],
        {"out.bin": "349cca686e906d7093c84465ba0df93d854a5426d08f8694c9f9fa4b83082e53"},
    ),
    "raw": (
        _write_symmetric, "m.mtx",
        [_embed("m.mtx", "matrix-market", "raw", "indicator:0.5", 16, 1, 8, 1)],
        {"out.bin": "660476dd890062a6cf00cf132f9909a07de60a923479f10993cbfcb48e0de6d2"},
    ),
    "dilation-b1": (
        _write_rectangular, "a.mtx",
        [_embed("a.mtx", "matrix-market", "dilation", "indicator:0.5", 16, 1, 6, 3,
                ("--output-cols", "cols.bin"))],
        {
            "out.bin": "b2d3f1cc5c925afd3b55f8331c7975e97da839df4c5763e5785c14f0ae0bc754",
            "cols.bin": "fcb216820ada50c82b7c842d7cb8fdc57801104864ef29a9bd06da179bfdc31b",
        },
    ),
    "dilation-b2": (
        _write_rectangular, "a.mtx",
        [_embed("a.mtx", "matrix-market", "dilation", "indicator:0.5", 16, 2, 6, 3,
                ("--output-cols", "cols.bin"))],
        {
            "out.bin": "39de7863d1eedf16c757251e5d2cce3a498345752c2ddd5a1f79915b95932df4",
            "cols.bin": "2e038c78fba5651666b20fbbd80ca312c9ee2f3e2415cb2d44453b7d1be8fed4",
        },
    ),
    "points": (
        _write_points, "pts.csv",
        [_embed("pts.csv", "points-csv", "raw", "indicator:0.2", 12, 1, 6, 4,
                ("--kernel", "gaussian", "--bandwidth", "1.0"))],
        {"out.bin": "3472962829b2f1fdb8362a6781b65ee5596233857c917cef5121c088215d0141"},
    ),
    "cluster": (
        _write_graph, "graph.txt",
        [["cluster", "--input", "graph.txt", "--function", "indicator:0.3", "--L", "16",
          "--b", "2", "--d", "10", "--seed", "5", "--k", "4", "--runs", "3",
          "--labels-out", "labels.csv", "--summary-out", "summary.json"]],
        {
            "labels.csv": "9063065d76ab60bbfb83546fce0ebfdc8a706557297de2f2cf2be6f70235981d",
            "summary.json": "a3d5cc51f4e3379dc74390a8819900ca37d8ccb9aa81eba1fda65d3ddd009a58",
        },
    ),
    # --pairs 1000 of the 3160 vertex pairs, so sample_pairs draws a random subset
    "eval": (
        _write_graph, "graph.txt",
        [GRAPH_B1,
         ["eval", "--approx", "out.bin", "--input", "graph.txt", "--format", "edgelist",
          "--function", "indicator:0.3", "--pairs", "1000", "--output-prefix", "rep"]],
        {
            "rep_percentiles.csv": "88ea66be8835ba4d7e3a761e85b03c4deb721982c8c0faece45c42f39382f0c5",
            "rep_calibration.csv": "e4fb14b708786afb63d0a38eb3074517bf4f1fdd70dfef36a3182d680fdf53ff",
            "rep_report.json": "966a308adc2b6f19668f1a65204642f49176ac00e035c0c4a22c033f52e0edab",
        },
    ),
    "norm-raw": (
        _write_symmetric, "m.mtx", [_norm("m.mtx", "raw")],
        {"norm.json": "f5de38290a412cddf1a49a481a78b6a33aba54839062044fae5b97a9e698bcfb"},
    ),
    "norm-dilation": (
        _write_rectangular, "a.mtx", [_norm("a.mtx", "dilation")],
        {"norm.json": "3ede09bfde6c2015b08d5fa720907db9e7066a5e014a145a31f0c5800be5bcce"},
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_digest(name, tmp_path, monkeypatch):
    write_input, input_name, steps, expected = CASES[name]
    write_input(tmp_path / input_name)
    monkeypatch.chdir(tmp_path)
    for argv in steps:
        assert main(argv) == 0
    got = {
        out: hashlib.sha256((tmp_path / out).read_bytes()).hexdigest() for out in expected
    }
    assert got == expected
