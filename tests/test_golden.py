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
        {"out.bin": "9132c0d8bc8feece2ee21e221fea97cc64a401ab56b203f6e1f7166dad8b5d80"},
    ),
    "graph-b2": (
        _write_graph, "graph.txt",
        [_embed("graph.txt", "edgelist", "normalized-adjacency", "indicator:0.3", 24, 2, 12, 42)],
        {"out.bin": "694d988d762ad1ee418d174ad90fffc20ce1a6b7c164b65a4215e8bb7cd67cb6"},
    ),
    "raw": (
        _write_symmetric, "m.mtx",
        [_embed("m.mtx", "matrix-market", "raw", "indicator:0.5", 16, 1, 8, 1)],
        {"out.bin": "a62e95797c93feba86f66504595015462ff3589c771fdcce16d5080351aeaf07"},
    ),
    "dilation-b1": (
        _write_rectangular, "a.mtx",
        [_embed("a.mtx", "matrix-market", "dilation", "indicator:0.5", 16, 1, 6, 3,
                ("--output-cols", "cols.bin"))],
        {
            "out.bin": "09850bdaed14a92f96272bf04d5d2754679b979c701777e54ddad6515384f07e",
            "cols.bin": "ab9f61f7912955b4b406891eaf916fa0b92a6e757337c7cd9264037161b845b8",
        },
    ),
    "dilation-b2": (
        _write_rectangular, "a.mtx",
        [_embed("a.mtx", "matrix-market", "dilation", "indicator:0.5", 16, 2, 6, 3,
                ("--output-cols", "cols.bin"))],
        {
            "out.bin": "d99943c8644bc49c94b4d37eec11461acb8b20ed0bbbb6b2d431a8d113a17ecf",
            "cols.bin": "17744547034b60a2197a7297a572f752cd7e58c73b2bf2a24e444732944e972f",
        },
    ),
    "points": (
        _write_points, "pts.csv",
        [_embed("pts.csv", "points-csv", "raw", "indicator:0.2", 12, 1, 6, 4,
                ("--kernel", "gaussian", "--bandwidth", "1.0"))],
        {"out.bin": "b62fe77a590447d8e8215c136b9f53a77ad7bc2a4edbc8248788b3c9dcb9b968"},
    ),
    "cluster": (
        _write_graph, "graph.txt",
        [["cluster", "--input", "graph.txt", "--function", "indicator:0.3", "--L", "16",
          "--b", "2", "--d", "10", "--seed", "5", "--k", "4", "--runs", "3",
          "--labels-out", "labels.csv", "--summary-out", "summary.json"]],
        {
            "labels.csv": "50bfc8ee6dbc03dedca27918d06a5521fbeb0c4c218723673827a2f581ecfb29",
            "summary.json": "dc61c295da412320fe89df0ebe2a58eb3455f6136ea14e51411f2a25c66dd2b2",
        },
    ),
    # --pairs 1000 of the 3160 vertex pairs, so sample_pairs draws a random subset
    "eval": (
        _write_graph, "graph.txt",
        [GRAPH_B1,
         ["eval", "--approx", "out.bin", "--input", "graph.txt", "--format", "edgelist",
          "--function", "indicator:0.3", "--pairs", "1000", "--output-prefix", "rep"]],
        {
            "rep_percentiles.csv": "a063d2ba3f490650a16a71ad453d9fe32c94eaef005bad638ebf2867a490e100",
            "rep_calibration.csv": "2d12394e06c8bbd746ec65ca885dfe5517481b339c9b7dc56036d17d10093579",
            "rep_report.json": "189b9d7ab3caace90c7a98b49d3faa85047497a376d8e05ac6efd3e7c13fd0f6",
        },
    ),
    "norm-raw": (
        _write_symmetric, "m.mtx", [_norm("m.mtx", "raw")],
        {"norm.json": "141c77b9ac9ddb3f930148b465cb868cd280285316c3f7be63f9c62254aec5a8"},
    ),
    "norm-dilation": (
        _write_rectangular, "a.mtx", [_norm("a.mtx", "dilation")],
        {"norm.json": "690dfbf37d8ed25325c65b06c566e990fecb241008d968f5205118030c6cc15e"},
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
