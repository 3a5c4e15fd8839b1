#!/usr/bin/env python3
"""Fast self-test of the benchmark at tiny input sizes (about a minute).

    python3 perfbench/selftest.py

Checks, for every workload and both trace modes, that the result line names
every metric of BENCHMARK.json with its unit and that the unmodified program
passes every output check; that a corrupted output makes the run fail; and
that run.py refuses to run without the program's sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import struct
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

SECONDS = 0.1  # one iteration (one cycle when traced)


def result_of(workload, trace, tamper=None, seed=3):
    """The result object and the readable table printed before it."""
    result = run.run(workload, seed, SECONDS, trace, sizes=run.TINY_SIZES, tamper=tamper)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run.print_result(result, trace)
    lines = buf.getvalue().strip().splitlines()
    return json.loads(lines[-1]), "\n".join(lines[:-2])


def flip_last_row(name):
    """Overwrite the last row of an embedding file with ones."""
    def tamper(work):
        path = os.path.join(work, name)
        with open(path, "r+b") as fh:
            fh.seek(16)
            d = struct.unpack("<Q", fh.read(8))[0]
            fh.seek(-8 * d, os.SEEK_END)
            fh.write(struct.pack(f"<{d}d", *([1.0] * d)))
    return tamper


def relabel(work):
    path = os.path.join(work, "labels.csv")
    with open(path) as fh:
        lines = fh.read().splitlines()
    vertex, cluster = lines[1].split(",")
    lines[1] = f"{vertex},{(int(cluster) + 1) % 2}"
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    for trace, declared in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
        want = {m["name"]: m["unit"] for m in declared}
        for workload in run.WORKLOADS:
            result, table = result_of(workload, trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{workload} trace={trace}: keys {sorted(result)}")
            if got != want:
                problems.append(f"{workload} trace={trace}: metrics {got} != {want}")
            missing = [name for name, unit in want.items()
                       if not any(f" {name} " in f" {line} " and f" {unit} " in line
                                  for line in table.splitlines())]
            if missing:
                problems.append(f"{workload} trace={trace}: table lacks {missing}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace={trace}: unmodified program failed:\n{table}")
            print(f"ok {workload} trace={int(trace)} attempted={result['attempted']}")

    for workload, tamper in (("embed-graph", flip_last_row("emb.bin")),
                             ("embed-dilation", flip_last_row("cols.bin")),
                             ("eval-desk", flip_last_row("emb.bin")),
                             ("cluster-sbm", relabel)):
        result, _ = result_of(workload, False, tamper)
        if result["correct"] or not result["failed"] > 0:
            problems.append(f"{workload}: corrupted output passed the checks")
        print(f"ok {workload} corrupted output: failed={result['failed']}/{result['attempted']}")

    bare = os.path.join(run.WORK_ROOT, "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "embed-graph",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=120)
        if done.returncode == 0 or done.stdout.strip():
            problems.append(f"run.py without sources: exit {done.returncode}, "
                            f"stdout {done.stdout[-200:]!r}")
        print(f"ok without sources: exit {done.returncode}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(run.WORK_ROOT)

    for p in problems:
        print("PROBLEM:", p)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
