"""Run one ``csemb`` command in this process and record spans around it.

    python3 child.py <spans.json> <0|1> <csemb arguments...>

The package is imported from the checkout's ``src/``. With 0, only the
top-level compute calls of the CLI are timed (one span each, a handful per
command), which is what the untraced end-to-end metrics need. With 1, every
public function named in ``TRACED`` is wrapped at the module attribute its
caller looks it up under. The program's files are not modified. Spans are
kept in memory and written as JSON when the command ends; the exit code is
the command's own.
"""

from __future__ import annotations

import time

T_START = time.clock_gettime(time.CLOCK_MONOTONIC)
CPU_START = time.process_time()

import functools  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# (module, attribute) pairs wrapped in a traced run.
TRACED = (
    ("csemb.io", ("read_edgelist", "read_matrix_market", "write_embedding", "write_labels_csv")),
    ("csemb.cli", ("normalized_adjacency", "dilate", "estimate_spectral_norm", "sample_projection",
                   "fast_embed_cascaded", "fast_embed_general", "cluster_experiment",
                   "exact_embedding", "distortion_percentiles")),
    ("csemb.engine", ("spmv_multi", "legendre_coefficients", "dilate", "fast_embed_cascaded",
                      "sample_projection")),
    ("csemb.cluster", ("normalized_adjacency", "fast_embed_cascaded", "kmeans", "modularity")),
)

# The calls an untraced run times: the embedding phase and the work after it.
UNTRACED = (
    ("csemb.cli", ("estimate_spectral_norm", "sample_projection", "fast_embed_cascaded",
                   "fast_embed_general", "cluster_experiment", "exact_embedding")),
    ("csemb.cluster", ("fast_embed_cascaded",)),
)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _embed_attrs(args, kwargs, result):
    S, cfg = args[0], _arg(args, kwargs, 2, "cfg")
    return {"nnz": S.nnz, "n": S.n_rows, "d": cfg.d, "L": cfg.L}


def _general_attrs(args, kwargs, result):
    A, cfg = args[0], _arg(args, kwargs, 2, "cfg")
    return {"nnz": 2 * A.nnz, "n": A.n_rows + A.n_cols, "d": cfg.d, "L": cfg.L}


def _spmv_attrs(args, kwargs, result):
    S, X = args[0], args[1]
    cols = X.shape[1] if getattr(X, "ndim", 1) == 2 else 1
    computed = (S.values.nbytes + S.col_indices.nbytes + S.row_offsets.nbytes
                + X.nbytes + result.nbytes)
    return {"nnz": S.nnz, "cols": cols, "bytes": int(computed)}


ATTRS = {
    "fast_embed_cascaded": _embed_attrs,
    "fast_embed_general": _general_attrs,
    "spmv_multi": _spmv_attrs,
    "read_edgelist": lambda a, k, r: {"bytes_in": _file_size(a[0])},
    "read_matrix_market": lambda a, k, r: {"bytes_in": _file_size(a[0])},
    "write_embedding": lambda a, k, r: {"bytes_out": _file_size(a[0])},
    "write_labels_csv": lambda a, k, r: {"bytes_out": _file_size(a[0])},
    "kmeans": lambda a, k, r: {"lloyd_iters": int(r.n_iters)},
    "distortion_percentiles": lambda a, k, r: {"pairs": int(r.pair_sample_size)},
}


class _CountingFunction:
    """Stands in for the weighting function handed to legendre_coefficients
    and counts the points it is evaluated at (the quadrature nodes)."""

    def __init__(self, f):
        self._f = f
        self.points = 0

    def __call__(self, x):
        self.points += int(getattr(x, "size", 1))
        return self._f(x)

    def __getattr__(self, name):
        return getattr(self._f, name)


class Recorder:
    """Spans with name, start, end, parent span and thread id, kept in memory.

    Each span also carries the process CPU time (all threads) at its ends.

    A span opened in a worker thread with nothing open in that thread gets
    the innermost span open in the main thread as its parent, which is the
    call that started the workers.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, fn, attrs=None, count_nodes=False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            sid = next(self._ids)
            probe = None
            if count_nodes:
                probe = _CountingFunction(args[0])
                args = (probe,) + tuple(args[1:])
            stack.append(sid)
            cpu_start, start = time.process_time(), now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end, cpu_end = now(), time.process_time()
                stack.pop()
            record = {"id": sid, "name": name, "start": start, "end": end,
                      "cpu_start": cpu_start, "cpu_end": cpu_end,
                      "parent": parent, "thread": threading.get_ident()}
            if attrs is not None:
                record.update(attrs(args, kwargs, result))
            if probe is not None:
                record["nodes"] = probe.points
            self.spans.append(record)
            return result

        return wrapper


def install(recorder: Recorder, table) -> list[str]:
    """Wrap each named attribute; returns the names that do not exist."""
    import importlib

    missing = []
    for module_name, attrs in table:
        module = importlib.import_module(module_name)
        for attr in attrs:
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(f"{module_name}.{attr}")
                continue
            layer = fn.__module__.rsplit(".", 1)[-1]
            name = f"{layer}.{fn.__name__}"
            setattr(module, attr, recorder.span(
                name, fn, ATTRS.get(fn.__name__),
                count_nodes=fn.__name__ == "legendre_coefficients"))
    return missing


def peak_rss_kb() -> int | None:
    """This process's own peak resident set size (VmHWM). The ru_maxrss that
    wait4 reports is not used: it also counts the parent's resident set at
    the moment the child was spawned."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return None


def main() -> int:
    out_path, traced, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import csemb.cli

    t_imported = now()
    recorder = Recorder()
    missing = install(recorder, TRACED if traced else UNTRACED)
    cli_main = recorder.span("cli.main", csemb.cli.main) if traced else csemb.cli.main
    code = 1
    try:
        code = cli_main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        with open(out_path, "w") as fh:
            json.dump({"t_start": T_START, "cpu_start": CPU_START,
                       "t_imported": t_imported, "t_end": now(),
                       "exit_code": code, "missing": missing, "peak_rss_kb": peak_rss_kb(),
                       "spans": recorder.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
