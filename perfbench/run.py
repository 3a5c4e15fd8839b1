#!/usr/bin/env python3
"""Benchmark of the csemb CLI: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload embed-graph --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The inputs are generated from ``--seed``;
the program sees only the generated files. Each iteration runs the
workload's CLI commands as fresh Python processes, one at a time, then
checks their outputs; iterations repeat until ``--seconds`` have passed.
``--trace 0`` prints the end-to-end metrics (medians over iterations);
``--trace 1`` interleaves untraced and traced iterations and prints the
per-layer metrics. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a readable table and an ``info`` object (machine, inputs,
quality, digests, per-function self times). See README.md in this directory.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"  # pinned in this process and in every child
os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
os.environ["OMP_NUM_THREADS"] = BLAS_THREADS

import argparse  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import numpy as np  # noqa: E402
import scipy.sparse as sp  # noqa: E402

import inputs  # noqa: E402
from checks import (  # noqa: E402
    check_cluster, check_columns, check_embedding, check_eval, check_products, deviations,
    dilation, exact_rows, newman_modularity, normalized_adjacency, plain_filter, read_json,
    read_labels)

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
CHILD_TIMEOUT_S = 100.0  # a command normally takes a few seconds
RUN_CAP_S = 150.0  # no new iteration starts after this much of a run

EMBED_SPANS = ("engine.estimate_spectral_norm", "engine.sample_projection",
               "engine.fast_embed_cascaded", "engine.fast_embed_general")
FAST_EMBED_SPANS = ("engine.fast_embed_cascaded", "engine.fast_embed_general")
SETUP_END_SPANS = EMBED_SPANS + ("oracle.exact_embedding",)

# The times gated here are CPU seconds of the commands' processes (user +
# system, all threads). This machine is a 2-vCPU virtual machine on a shared
# host: the host takes a vCPU away for stretches ("steal", up to 17% of the
# time in one measured minute), which moved the same run's wall time by 20-30%
# between minutes while its CPU time moved by a few percent, because stolen
# time is not charged to the process. Wall times are printed and kept in
# ``info`` (ALSO_REPORTED).
END_TO_END = {  # name -> (unit, better)
    "cpu_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "embed_s": ("s", "lower"),
    "ns_per_nnz_d_L": ("ns", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# Wall-clock and workload-specific seconds (lower is better), in ``info``.
ALSO_REPORTED = ("wall_s", "setup_wall_s", "embed_wall_s", "cluster_s", "eval_wall_s")

PER_LAYER = {
    "io.read_s": ("s", "lower"),
    "io.write_s": ("s", "lower"),
    "io.bytes_in": ("B", "lower"),
    "io.bytes_out": ("B", "lower"),
    "sparse.build_s": ("s", "lower"),
    "sparse.dilate_calls": ("count", "lower"),
    "sparse.spmv_multi_s": ("s", "lower"),
    "sparse.spmv_multi_calls": ("count", "lower"),
    "sparse.spmv_cols": ("count", "lower"),
    "sparse.spmv_ns_per_nnz_col": ("ns", "lower"),
    "sparse.spmv_bytes_computed": ("B", "lower"),
    "engine.embed_s": ("s", "lower"),
    "engine.self_s": ("s", "lower"),
    "engine.update_share": ("share", "lower"),
    "engine.products": ("count", "lower"),
    "engine.sample_projection_s": ("s", "lower"),
    "engine.norm_estimate_share": ("share", "lower"),
    "engine.parallel_eff": ("ratio", "higher"),
    "legendre.coefficients_s": ("s", "lower"),
    "legendre.nodes": ("count", "lower"),
    "legendre.delta_sup": ("abs", "lower"),
    "cluster.kmeans_share": ("share", "lower"),
    "cluster.modularity_share": ("share", "lower"),
    "cluster.kmeans_calls": ("count", "lower"),
    "cluster.lloyd_iters": ("count", "lower"),
    "oracle.exact_embedding_share": ("share", "lower"),
    "oracle.distortion_percentiles_share": ("share", "lower"),
    "oracle.pairs": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# Which end-to-end metric each layer metric should move, and where.
LAYER_MAP = {
    "io.*": "setup_s, cpu_s; largest on embed-dilation",
    "sparse.build_s": "setup_s on embed-graph, cluster-sbm, embed-dilation",
    "sparse.dilate_calls": "setup_s, embed_s on embed-dilation",
    "sparse.spmv_*": "embed_s, ns_per_nnz_d_L, cpu_s; dominant on embed-graph",
    "engine.*": "embed_s, cpu_s; norm_estimate_share on embed-dilation only",
    "legendre.*": "embed_s; predicted no end-to-end effect",
    "cluster.*": "cpu_s on cluster-sbm only",
    "oracle.*": "cpu_s on eval-desk only",
    "cli.self_s": "cpu_s on all workloads",
}

DESIGNATED = {  # the layer expected to have the largest self time
    "embed-graph": ("sparse.spmv_multi", "engine.fast_embed_cascaded"),
    "cluster-sbm": ("cluster.kmeans",),
    "embed-dilation": ("engine.estimate_spectral_norm",),
    "eval-desk": ("oracle.exact_embedding",),
}


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# -- workloads ----------------------------------------------------------------


class Workload:
    """Inputs, commands and output checks of one workload.

    ``prepare`` generates the inputs into the work directory and keeps what
    the checks need; ``commands`` lists the CLI invocations of one iteration;
    ``check`` inspects their outputs and returns failure messages.
    """

    name = ""
    why = ""
    outputs: tuple[str, ...] = ()

    def __init__(self, size: dict):
        self.size = size
        self.info: dict = {}
        self.quality: dict = {}

    def threads(self, nproc: int) -> int:
        return nproc


class GraphEmbedCheck:
    """Shared check of a graph embedding: metadata, shape and two columns."""

    def check_graph_embedding(self, cs, path, meta_path, edges, n, spec):
        values = _read_embedding(cs, path)
        failures = check_products(read_json(meta_path), spec["L"])
        failures += check_embedding(values, n, spec["d"])
        if not failures:
            if self._reference is None:
                S = normalized_adjacency(edges, n)
                self._reference = reference_columns(cs, S, spec, n, self.columns)
            failures += check_columns(values, self._reference, path)
        return failures, values


class EmbedGraph(Workload, GraphEmbedCheck):
    name = "embed-graph"
    why = ("the recursion (SpMM and dense update) is nearly all of the run; "
           "norm estimation and k-means are bypassed")
    outputs = ("emb.bin",)
    spec = {"function": "indicator:0.98", "L": 60, "b": 2, "d": 80}

    def prepare(self, work, seed):
        self.edges = inputs.uniform_graph(self.size["n"], self.size["m"], seed)
        self.n = self.size["n"]
        inputs.write_edgelist(os.path.join(work, "graph.txt"), self.edges)
        self.columns = column_pick(seed, self.spec["d"])
        self._reference = None
        self.info = {"n": self.n, "edges": len(self.edges), "nnz": 2 * len(self.edges),
                     **self.spec, "input_sha256": inputs.sha256_of(os.path.join(work, "graph.txt"))}

    def commands(self, threads):
        s = self.spec
        return [("embed", ["--threads", str(threads), "embed", "--input", "graph.txt",
                           "--format", "edgelist", "--matrix", "normalized-adjacency",
                           "--function", s["function"], "--L", str(s["L"]), "--b", str(s["b"]),
                           "--d", str(s["d"]), "--n", str(self.n), "--output", "emb.bin"])]

    def check(self, cs, work):
        failures, _ = self.check_graph_embedding(
            cs, os.path.join(work, "emb.bin"), os.path.join(work, "emb.bin.meta.json"),
            self.edges, self.n, self.spec)
        return failures


class ClusterSBM(Workload):
    name = "cluster-sbm"
    why = ("k-means restarts do most of the work and the engine little; "
           "modularity is deterministic per seed")
    outputs = ("labels.csv", "summary.json")
    spec = {"function": "indicator:0.5", "L": 20, "b": 1}

    def prepare(self, work, seed):
        z = self.size
        self.n = z["n"]
        self.edges, planted = inputs.planted_blocks(z["n"], z["blocks"], z["deg_in"],
                                                    z["deg_out"], seed)
        inputs.write_edgelist(os.path.join(work, "graph.txt"), self.edges)
        self.K, self.runs = z["blocks"], z["runs"]
        self.info = {"n": self.n, "edges": len(self.edges), "nnz": 2 * len(self.edges),
                     "blocks": z["blocks"], "K": self.K, "runs": self.runs, **self.spec,
                     "planted_modularity": newman_modularity(self.edges, planted),
                     "input_sha256": inputs.sha256_of(os.path.join(work, "graph.txt"))}

    def commands(self, threads):
        s = self.spec
        return [("cluster", ["--threads", str(threads), "cluster", "--input", "graph.txt",
                             "--n", str(self.n), "--function", s["function"],
                             "--L", str(s["L"]), "--b", str(s["b"]), "--k", str(self.K),
                             "--runs", str(self.runs), "--labels-out", "labels.csv",
                             "--summary-out", "summary.json"])]

    def check(self, cs, work):
        summary = read_json(os.path.join(work, "summary.json"))
        labels = read_labels(os.path.join(work, "labels.csv"))
        failures = check_cluster(summary, labels, self.edges, self.n, self.K, self.runs)
        if not failures:
            q = self.quality["modularity"] = summary["median_modularity"]
            floor = self.size["min_planted_share"] * self.info["planted_modularity"]
            if q < floor:
                failures.append(f"modularity {q:.4f} below {floor:.4f}")
        return failures


class EmbedDilation(Workload):
    name = "embed-dilation"
    why = ("rectangular Matrix Market input through the dilation, single thread; "
           "norm estimation is the largest layer")
    outputs = ("rows.bin", "cols.bin")
    spec = {"function": "indicator:0.5", "L": 20, "b": 1, "d": 64}

    def threads(self, nproc):
        return 1

    def prepare(self, work, seed):
        z = self.size
        self.m, self.n = z["m"], z["n"]
        rows, cols, vals = inputs.heavy_tailed_matrix(self.m, self.n, z["nnz"], seed)
        self.A = sp.csr_array((vals, (rows, cols)), shape=(self.m, self.n))
        path = os.path.join(work, "matrix.mtx")
        inputs.write_matrix_market(path, self.m, self.n, rows, cols, vals)
        self.columns = column_pick(seed, self.spec["d"])
        self._reference = None
        self.info = {"m": self.m, "n": self.n, "nnz": len(vals),
                     "max_col_degree": int(np.bincount(cols).max()), **self.spec,
                     "input_sha256": inputs.sha256_of(path)}

    def commands(self, threads):
        s = self.spec
        return [("embed", ["--threads", str(threads), "embed", "--input", "matrix.mtx",
                           "--format", "matrix-market", "--matrix", "dilation",
                           "--function", s["function"], "--L", str(s["L"]), "--b", str(s["b"]),
                           "--d", str(s["d"]), "--output", "rows.bin",
                           "--output-cols", "cols.bin"])]

    def check(self, cs, work):
        s = self.spec
        meta = read_json(os.path.join(work, "rows.bin.meta.json"))
        rows = _read_embedding(cs, os.path.join(work, "rows.bin"))
        cols = _read_embedding(cs, os.path.join(work, "cols.bin"))
        failures = check_products(meta, s["L"])
        failures += check_embedding(rows, self.m, s["d"])
        failures += check_embedding(cols, self.n, s["d"])
        norm = meta.get("norm_estimate") if meta else None
        if not failures and not (isinstance(norm, float) and norm > 0):
            failures.append(f"norm estimate {norm!r} is not positive")
        if failures:
            return failures
        if self._reference is None:
            scaled = self.A.copy()
            scaled.data = scaled.data * (1.0 / norm)
            f = cs.odd_extension(cs.parse_function(s["function"]))
            self._reference = reference_columns(cs, dilation(scaled), {**s, "f": f},
                                                self.m + self.n, self.columns)
            self._norm = norm
        if norm != self._norm:
            return [f"norm estimate changed between iterations: {norm!r} != {self._norm!r}"]
        both = np.vstack([cols, rows])
        return check_columns(both, self._reference, "dilation")


class EvalDesk(Workload, GraphEmbedCheck):
    name = "eval-desk"
    why = "the only workload that runs the dense oracle; supplies the accuracy figures"
    outputs = ("emb.bin", "rep_report.json", "rep_percentiles.csv", "rep_calibration.csv")
    spec = {"function": "indicator:0.5", "L": 180, "b": 2, "d": 80}

    def prepare(self, work, seed):
        z = self.size
        self.n = z["n"]
        self.edges, _ = inputs.planted_blocks(z["n"], z["blocks"], z["deg_in"], z["deg_out"], seed)
        inputs.write_edgelist(os.path.join(work, "graph.txt"), self.edges)
        self.columns = column_pick(seed, self.spec["d"])
        self._reference = None
        self._exact = None
        self.info = {"n": self.n, "edges": len(self.edges), "nnz": 2 * len(self.edges),
                     "blocks": z["blocks"], **self.spec,
                     "input_sha256": inputs.sha256_of(os.path.join(work, "graph.txt"))}

    def commands(self, threads):
        s = self.spec
        return [("embed", ["--threads", str(threads), "embed", "--input", "graph.txt",
                           "--format", "edgelist", "--function", s["function"],
                           "--L", str(s["L"]), "--b", str(s["b"]), "--d", str(s["d"]),
                           "--n", str(self.n), "--output", "emb.bin"]),
                ("eval", ["--threads", str(threads), "eval", "--approx", "emb.bin",
                          "--input", "graph.txt", "--format", "edgelist", "--n", str(self.n),
                          "--function", s["function"], "--output-prefix", "rep"])]

    def check(self, cs, work):
        failures, values = self.check_graph_embedding(
            cs, os.path.join(work, "emb.bin"), os.path.join(work, "emb.bin.meta.json"),
            self.edges, self.n, self.spec)
        if failures:
            return failures
        if self._exact is None:
            dense = normalized_adjacency(self.edges, self.n).toarray()
            self._exact = exact_rows(dense, cs.parse_function(self.spec["function"]))
            self._pairs = cs.sample_pairs(self.n, None, 0)  # what `csemb eval` samples
        report = read_json(os.path.join(work, "rep_report.json"))
        failures = check_eval(report, deviations(self._exact, values, self._pairs))
        if not failures:
            dev = deviations(self._exact, values)
            levels = sorted(report["percentiles"], key=float)
            shift = np.percentile(dev, [float(k) for k in levels]) - np.asarray(
                [report["percentiles"][k] for k in levels])
            within = self.quality["dev_within_0.2"] = float(np.mean(np.abs(dev) <= 0.2))
            p99 = self.quality["dev_abs_p99"] = float(np.percentile(np.abs(dev), 99))
            self.quality["eval_sample_shift"] = float(np.max(np.abs(shift)))
            if within < self.size["min_within"]:
                failures.append(f"dev_within_0.2 {within:.4f} below {self.size['min_within']}")
            if p99 > self.size["max_p99"]:
                failures.append(f"dev_abs_p99 {p99:.4f} above {self.size['max_p99']}")
        return failures


WORKLOADS = {w.name: w for w in (EmbedGraph, ClusterSBM, EmbedDilation, EvalDesk)}

# Input sizes, and the quality floors that go with them: a change that makes
# the embedding worse fails the run. At the default sizes, seeds 1-10 gave a
# modularity of 0.92-0.95 times the planted partition's, dev_within_0.2 of
# 0.922-0.948 and dev_abs_p99 of 0.25-0.29.
SIZES = {
    "embed-graph": {"n": 20_000, "m": 100_000},
    "cluster-sbm": {"n": 8_000, "blocks": 40, "deg_in": 16.0, "deg_out": 4.0, "runs": 5,
                    "min_planted_share": 0.85},
    "embed-dilation": {"m": 12_500, "n": 6_250, "nnz": 125_000},
    "eval-desk": {"n": 1_500, "blocks": 20, "deg_in": 20.0, "deg_out": 5.0,
                  "min_within": 0.85, "max_p99": 0.35},
}

TINY_SIZES = {  # for selftest.py
    "embed-graph": {"n": 300, "m": 1_500},
    "cluster-sbm": {"n": 300, "blocks": 5, "deg_in": 12.0, "deg_out": 2.0, "runs": 3,
                    "min_planted_share": 0.7},
    "embed-dilation": {"m": 200, "n": 120, "nnz": 1_500},
    "eval-desk": {"n": 200, "blocks": 4, "deg_in": 14.0, "deg_out": 3.0,
                  "min_within": 0.7, "max_p99": 0.45},
}


def column_pick(seed: int, d: int) -> list[int]:
    rng = np.random.default_rng(seed)
    return sorted(int(j) for j in rng.choice(d, size=2, replace=False))


def stage_function(cs, spec):
    f = spec.get("f") or cs.parse_function(spec["function"])
    return cs.root_function(f, spec["b"])


def reference_columns(cs, S, spec, n, columns):
    """Columns of f_L(S) @ omega by the plain recursion, b stages."""
    coeffs = cs.legendre_coefficients(stage_function(cs, spec), spec["L"] // spec["b"]).coeffs
    omega = cs.sample_projection(n, spec["d"], 0)
    out = {}
    for j in columns:
        x = omega[:, j].copy()
        for _ in range(spec["b"]):
            x = plain_filter(S, coeffs, x)
        out[j] = x
    return out


def _read_embedding(cs, path):
    try:
        return cs.io.read_embedding(path)
    except (cs.InputFormatError, OSError, ValueError):
        return None


# -- running commands ----------------------------------------------------------


@dataclass
class Command:
    tag: str
    wall: float
    cpu: float
    rss_kb: int
    code: int
    record: dict
    t0: float

    def spans(self, names=None):
        spans = self.record.get("spans", [])
        return spans if names is None else [s for s in spans if s["name"] in names]

    def setup(self, wall: bool) -> float:
        """From spawn to the first compute call: wall or process CPU seconds."""
        first = min(self.spans(SETUP_END_SPANS), key=lambda s: s["start"], default=None)
        if wall:
            return (first["start"] if first else self.t0 + self.wall) - self.t0
        return first["cpu_start"] if first else self.cpu


@dataclass
class Iteration:
    traced: bool
    threads: int
    commands: list[Command] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    digests: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(c.wall for c in self.commands)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("CSEMB_")}
    env.pop("PYTHONPATH", None)
    env["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    env["OMP_NUM_THREADS"] = BLAS_THREADS
    return env


def run_command(work, tag, argv, traced) -> Command:
    spans_path = os.path.join(work, f"{tag}.spans.json")
    if os.path.exists(spans_path):
        os.remove(spans_path)
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, os.path.join(work, f"{tag}.stdout"), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, os.path.join(work, f"{tag}.stderr"), flags, 0o644)]
    args = [sys.executable, CHILD, spans_path, "1" if traced else "0", *argv]
    cwd = os.getcwd()
    os.chdir(work)
    try:
        t0 = now()
        pid = os.posix_spawn(sys.executable, args, child_env(), file_actions=actions)
    finally:
        os.chdir(cwd)
    killer = threading.Timer(CHILD_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
    killer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        killer.cancel()
    wall = now() - t0
    record = read_json(spans_path) or {}
    for span in record.get("spans", []):  # ids restart in every process
        span["id"] = f"{tag}:{span['id']}"
        if span["parent"] is not None:
            span["parent"] = f"{tag}:{span['parent']}"
    rss_kb = record.get("peak_rss_kb") or usage.ru_maxrss
    return Command(tag, wall, usage.ru_utime + usage.ru_stime, rss_kb, os.waitstatus_to_exitcode(status), record, t0)


def run_iteration(cs, wl: Workload, work, threads, traced, tamper=None) -> Iteration:
    it = Iteration(traced, threads)
    for name in wl.outputs:
        path = os.path.join(work, name)
        if os.path.exists(path):
            os.remove(path)
    for tag, argv in wl.commands(threads):
        cmd = run_command(work, tag, argv, traced)
        it.commands.append(cmd)
        if cmd.code != 0:
            with open(os.path.join(work, f"{tag}.stderr")) as fh:
                tail = fh.read()[-300:].strip()
            it.failures.append(f"{tag} exited {cmd.code}: {tail}")
            return it
    if tamper is not None:
        tamper(work)
    it.digests = {name: inputs.sha256_of(os.path.join(work, name)) for name in wl.outputs}
    it.failures += wl.check(cs, work)
    return it


# -- metrics ------------------------------------------------------------------


def outermost(spans, names):
    """Spans named in ``names`` with no ancestor also named in ``names``."""
    by_id = {s["id"]: s for s in spans}
    out = []
    for s in spans:
        if s["name"] not in names:
            continue
        p = by_id.get(s["parent"])
        while p is not None and p["name"] not in names:
            p = by_id.get(p["parent"])
        if p is None:
            out.append(s)
    return out


def union_length(intervals) -> float:
    total, end = 0.0, -float("inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def self_times(spans) -> dict[str, float]:
    """Per span name: duration minus the time its direct children cover."""
    children: dict = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out: dict[str, float] = {}
    for s in spans:
        covered = union_length(
            (max(a, s["start"]), min(b, s["end"])) for a, b in children.get(s["id"], ()))
        out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) - covered
    return out


def inclusive_times(spans) -> dict[str, float]:
    """Per span name: summed durations of its outermost spans."""
    out: dict[str, float] = {}
    for name in {s["name"] for s in spans}:
        out[name] = dur(outermost(spans, (name,)))
    return out


def dur(spans) -> float:
    return sum(s["end"] - s["start"] for s in spans)


def cpu(spans) -> float:
    return sum(s["cpu_end"] - s["cpu_start"] for s in spans)


def end_to_end(it: Iteration) -> dict:
    """END_TO_END and ALSO_REPORTED figures of one untraced iteration."""
    spans = [s for c in it.commands for s in c.spans()]
    embeds = outermost(spans, FAST_EMBED_SPANS)
    work = sum(s["nnz"] * s["d"] * s["L"] for s in embeds)
    out = {
        "cpu_s": sum(c.cpu for c in it.commands),
        "setup_s": sum(c.setup(wall=False) for c in it.commands),
        "embed_s": cpu(outermost(spans, EMBED_SPANS)),
        "ns_per_nnz_d_L": cpu(embeds) * 1e9 / work if work else float("nan"),
        "peak_rss_mb": max(c.rss_kb for c in it.commands) / 1024.0,
        "wall_s": it.wall,
        "setup_wall_s": sum(c.setup(wall=True) for c in it.commands),
        "embed_wall_s": dur(outermost(spans, EMBED_SPANS)),
    }
    clusters = [s for s in spans if s["name"] == "cluster.cluster_experiment"]
    if clusters and embeds:
        out["cluster_s"] = clusters[0]["end"] - max(s["end"] for s in embeds)
    for c in it.commands:
        if c.tag == "eval":
            out["eval_wall_s"] = c.wall
    return out


def layer_metrics(it: Iteration) -> dict:
    spans = [s for c in it.commands for s in c.spans()]
    named = lambda *names: [s for s in spans if s["name"] in names]  # noqa: E731
    embeds = outermost(spans, FAST_EMBED_SPANS)
    embed_ids = {s["id"] for s in embeds}
    by_id = {s["id"]: s for s in spans}

    def inside_embed(s):
        p = by_id.get(s["parent"])
        while p is not None:
            if p["id"] in embed_ids:
                return True
            p = by_id.get(p["parent"])
        return False

    embed_s = dur(embeds)
    engine_self = 0.0
    for e in embeds:
        kids = [(s["start"], s["end"]) for s in spans
                if s["id"] != e["id"] and s["name"] not in FAST_EMBED_SPANS and inside_embed(s)
                and e["start"] <= s["start"] <= e["end"]]
        engine_self += (e["end"] - e["start"]) - union_length(kids)
    spmv = named("sparse.spmv_multi")
    spmv_s = dur(spmv)
    nnz_cols = sum(s["nnz"] * s["cols"] for s in spmv)
    d = embeds[0]["d"] if embeds else 1
    wall = it.wall
    self_by_name = self_times(spans)
    return {
        "io.read_s": dur(named("io.read_edgelist", "io.read_matrix_market")),
        "io.write_s": dur(named("io.write_embedding", "io.write_labels_csv")),
        "io.bytes_in": sum(s.get("bytes_in", 0) for s in spans),
        "io.bytes_out": sum(s.get("bytes_out", 0) for s in spans),
        "sparse.build_s": dur(named("sparse.normalized_adjacency", "sparse.dilate")),
        "sparse.dilate_calls": len(named("sparse.dilate")),
        "sparse.spmv_multi_s": spmv_s,
        "sparse.spmv_multi_calls": len(spmv),
        "sparse.spmv_cols": sum(s["cols"] for s in spmv),
        "sparse.spmv_ns_per_nnz_col": spmv_s * 1e9 / nnz_cols if nnz_cols else float("nan"),
        "sparse.spmv_bytes_computed": sum(s["bytes"] for s in spmv),
        "engine.embed_s": embed_s,
        "engine.self_s": engine_self,
        "engine.update_share": engine_self / embed_s if embed_s else float("nan"),
        "engine.products": sum(s["cols"] for s in spmv if inside_embed(s)) / d,
        "engine.sample_projection_s": dur(named("engine.sample_projection")),
        "engine.norm_estimate_share": dur(named("engine.estimate_spectral_norm")) / wall,
        "legendre.coefficients_s": dur(named("legendre.legendre_coefficients")),
        "legendre.nodes": sum(s.get("nodes", 0) for s in named("legendre.legendre_coefficients")),
        "cluster.kmeans_share": dur(named("cluster.kmeans")) / wall,
        "cluster.modularity_share": dur(named("cluster.modularity")) / wall,
        "cluster.kmeans_calls": len(named("cluster.kmeans")),
        "cluster.lloyd_iters": sum(s["lloyd_iters"] for s in named("cluster.kmeans")),
        "oracle.exact_embedding_share": dur(named("oracle.exact_embedding")) / wall,
        "oracle.distortion_percentiles_share": dur(named("oracle.distortion_percentiles")) / wall,
        "oracle.pairs": max((s["pairs"] for s in named("oracle.distortion_percentiles")),
                            default=0),
        "cli.self_s": self_by_name.get("cli.main", 0.0),
        "_self": self_by_name,
        "_abs": {
            "engine.norm_estimate_s": dur(named("engine.estimate_spectral_norm")),
            "sparse.dilate_s": dur(named("sparse.dilate")),
            "cluster.kmeans_s": dur(named("cluster.kmeans")),
            "cluster.modularity_s": dur(named("cluster.modularity")),
            "oracle.exact_embedding_s": dur(named("oracle.exact_embedding")),
            "oracle.distortion_percentiles_s": dur(named("oracle.distortion_percentiles")),
        },
    }


def high_percentile(values):
    """The highest of p50..p99 with at least ten samples beyond it, or None."""
    n = len(values)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return None


def summarize(samples: dict[str, list[float]]) -> dict:
    out = {}
    for name, values in samples.items():
        values = [v for v in values if v == v]
        if not values:
            continue
        hp = high_percentile(values)
        out[name] = {"median": statistics.median(values), "n": len(values),
                     "high": {"p": hp[0], "value": hp[1]} if hp else None}
    return out


# -- the run -------------------------------------------------------------------


def machine_facts() -> dict:
    import numpy
    import scipy

    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(index, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(index, "size")) as fh:
                caches[f"L{level}-{kind}"] = fh.read().strip()
        except OSError:
            continue
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "caches": caches,
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas_version,
            "openblas_num_threads": BLAS_THREADS}


def import_package():
    if not os.path.isfile(os.path.join(SRC, "csemb", "__init__.py")):
        raise SystemExit(f"error: no csemb package under {SRC}; run from a checkout")
    sys.path.insert(0, SRC)
    import csemb
    import csemb.io

    return csemb


def run(workload: str, seed: int, seconds: float, trace: bool, sizes=None,
        tamper=None) -> dict:
    """One benchmark run; returns the result object printed as the last line.

    ``sizes`` replaces SIZES and ``tamper(work_dir)``, called after the
    commands and before the checks, lets a test corrupt the outputs.
    """
    cs = import_package()
    nproc = len(os.sched_getaffinity(0))
    wl = WORKLOADS[workload]((sizes or SIZES)[workload])
    work = os.path.join(WORK_ROOT, f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        t_gen = now()
        wl.prepare(work, seed)
        gen_s = now() - t_gen
        warm = run_command(work, "warmup", ["--help"], False)  # compiles bytecode
        if warm.code != 0:
            raise SystemExit("error: the csemb CLI does not start")

        threads = wl.threads(nproc)
        other = 1 if threads > 1 else nproc
        cycle = [(False, threads)] if not trace else [
            (False, threads), (True, threads), (True, other)]
        iterations: list[Iteration] = []
        started = now()
        deadline = started + seconds
        longest = 0.0
        while True:
            for traced, t in cycle:
                t_it = now()
                iterations.append(run_iteration(cs, wl, work, t, traced, tamper))
                longest = max(longest, now() - t_it)
            elapsed = now()
            if elapsed + longest * len(cycle) > deadline or elapsed - started > RUN_CAP_S:
                break
        return report(cs, wl, iterations, trace, threads, nproc, gen_s, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass


def report(cs, wl, iterations, trace, threads, nproc, gen_s, seconds) -> dict:
    failed = [it for it in iterations if it.failures]
    failures = [f for it in failed for f in it.failures]
    digests = {}
    for it in iterations:
        for name, digest in it.digests.items():
            digests.setdefault(name, set()).add(digest)
    drift = sorted(k for k, v in digests.items() if len(v) > 1)
    if drift:
        # every iteration, any thread count, traced or not, must write the same bytes
        failures.append(f"outputs differ between iterations: {drift}")
    ok = [it for it in iterations if not it.failures]

    plain = [end_to_end(it) for it in ok if not it.traced and it.threads == threads]
    e2e = summarize({k: [m[k] for m in plain] for k in END_TO_END})
    info = {"workload": wl.name, "why": wl.why, "inputs": wl.info, "quality": wl.quality,
            "threads": threads, "generate_s": gen_s, "seconds": seconds,
            "machine": machine_facts(),
            "output_sha256": {k: sorted(v, key=str)[0] for k, v in digests.items()},
            "end_to_end": e2e,
            "also_reported": summarize(
                {k: [m.get(k, float("nan")) for m in plain] for k in ALSO_REPORTED}),
            "fail_ratio": len(failed) / len(iterations) if iterations else 1.0,
            # names child.py could not wrap, so their spans and metrics are absent
            "unwrapped": sorted({name for it in iterations for c in it.commands
                                 for name in c.record.get("missing", ())})}
    if trace:
        values, info["trace"] = trace_metrics(cs, wl, ok, threads, nproc, failures)
        metrics = {k: {"value": values.get(k, float("nan")), "unit": unit}
                   for k, (unit, _) in PER_LAYER.items()}
    else:
        metrics = {k: {"value": e2e[k]["median"] if k in e2e else float("nan"), "unit": unit}
                   for k, (unit, _) in END_TO_END.items()}

    info["failures"] = failures[:10]
    correct = not failures and bool(ok) and all(
        math.isfinite(v["value"]) for v in metrics.values())
    for v in metrics.values():
        if not math.isfinite(v["value"]):
            v["value"] = 0.0  # only when the run is not correct; keeps the line valid JSON
    return {"correct": correct, "attempted": len(iterations),
            "failed": len(failed) if failed or correct else 1,
            "metrics": metrics, "_info": info}


def trace_metrics(cs, wl, ok, threads, nproc, failures):
    """PER_LAYER values and the ``info.trace`` object of a traced run;
    appends to ``failures`` when a traced run's product count is not L."""
    med = lambda xs: statistics.median(xs) if xs else float("nan")  # noqa: E731
    traced = [it for it in ok if it.traced and it.threads == threads]
    layers = [layer_metrics(it) for it in traced]
    one = [layer_metrics(it) for it in ok if it.traced and it.threads == 1]
    many = [layer_metrics(it) for it in ok if it.traced and it.threads == nproc]
    values = {k: med([m[k] for m in layers]) for k in PER_LAYER if layers and k in layers[0]}
    values["engine.self_s"] = med([m["engine.self_s"] for m in one])
    values["engine.update_share"] = med([m["engine.update_share"] for m in one])
    tn = med([m["engine.embed_s"] for m in many])
    t1 = med([m["engine.embed_s"] for m in one])
    values["engine.parallel_eff"] = t1 / (nproc * tn) if tn else float("nan")
    spec = wl.spec
    f = cs.parse_function(spec["function"])
    if isinstance(wl, EmbedDilation):
        f = cs.odd_extension(f)
    g = stage_function(cs, {**spec, "f": f})
    expansion = cs.legendre_coefficients(g, spec["L"] // spec["b"])
    values["legendre.delta_sup"] = cs.approximation_report(g, expansion).delta_sup
    values["trace.overhead_s"] = (med([it.wall for it in traced])
                                  - med([it.wall for it in ok if not it.traced]))
    wrong = [m["engine.products"] for m in layers if m["engine.products"] != spec["L"]]
    if wrong:
        failures.append(f"engine.products {wrong[0]} != L {spec['L']}")

    selfs, inclusive = {}, {}
    for m in layers:
        for name, v in m["_self"].items():
            selfs.setdefault(name, []).append(v)
    for it in traced:
        for name, v in inclusive_times([s for c in it.commands for s in c.spans()]).items():
            inclusive.setdefault(name, []).append(v)
    self_med = {k: med(v) for k, v in selfs.items()}
    designated = DESIGNATED[wl.name]
    return values, {
        "self_s": dict(sorted(self_med.items(), key=lambda kv: -kv[1])),
        "inclusive_s": {k: med(v) for k, v in sorted(inclusive.items())},
        "workload_specific_s": {k: med([m["_abs"][k] for m in layers])
                                for k in (layers[0]["_abs"] if layers else ())},
        "designated": list(designated),
        "designated_s": sum(self_med.get(k, 0.0) for k in designated),
        "largest_other": max((v for k, v in self_med.items() if k not in designated),
                             default=0.0),
        "largest_single": max(self_med, key=self_med.get) if self_med else None,
        "overhead_s": values["trace.overhead_s"],
        "layer_map": LAYER_MAP,
        "iterations": {"untraced": len([it for it in ok if not it.traced]),
                       "traced": len(traced), "traced_1_thread": len(one),
                       "traced_nproc": len(many)},
    }


def print_result(result: dict, trace: bool) -> None:
    info = result.pop("_info")
    print(f"workload {info['workload']} ({info['why']})")
    print(f"inputs {json.dumps(info['inputs'])}")
    table = PER_LAYER if trace else END_TO_END
    stats = info["end_to_end"]
    for name, (unit, better) in table.items():
        value = result["metrics"][name]["value"]
        line = f"  {name:<38} {value:>14.6g} {unit:<6} {better:<6}"
        if not trace and name in stats:
            s = stats[name]
            high = f"p{s['high']['p']}={s['high']['value']:.6g}" if s["high"] else "p-hi n/a"
            line += f" median of n={s['n']}, {high}"
        print(line)
    for name, s in info["also_reported"].items():
        print(f"  {name:<38} {s['median']:>14.6g} s      lower  median of n={s['n']} (info)")
    for name, v in info["quality"].items():
        print(f"  {name:<38} {v:>14.6g}        (quality, checked each iteration)")
    print(f"  fail_ratio {info['fail_ratio']:.3f} ({result['failed']}/{result['attempted']})")
    for f in info["failures"]:
        print(f"  FAILED: {f}")
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps(result))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(result, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
