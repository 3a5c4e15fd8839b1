"""Command-line driver: embed / eval / cluster / norm.

Exit codes: 0 success, 2 usage, 3 input parse or a file that cannot be read
or written, 4 numeric failure (a cascade stage outgrew the ||S|| <= 1 bound),
5 dense-oracle cap exceeded.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import asdict

from . import io as cio
from .cluster import cluster_experiment
from .engine import (
    NORM_SAFETY,
    NORM_STEPS,
    EmbedConfig,
    default_dimension,
    estimate_spectral_norm,
    fast_embed_cascaded,
)
from .errors import DivergenceError, InputFormatError, OracleCapError, OracleError
from .functions import odd_extension, parse_function
from .oracle import ORACLE_CAP, distortion_percentiles, exact_embedding, write_report
from .sparse import dilate, kernel_matrix, normalized_adjacency, scale_values

EXIT_OK = 0
EXIT_PARSE = 3
EXIT_NUMERIC = 4
EXIT_CAP = 5


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set, where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _function(text: str):
    try:
        return parse_function(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _add_matrix_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="input file")
    p.add_argument(
        "--format",
        required=True,
        choices=("edgelist", "matrix-market", "points-csv"),
        help="input file format",
    )
    p.add_argument(
        "--matrix",
        default="normalized-adjacency",
        choices=("normalized-adjacency", "raw", "dilation"),
        help="matrix construction applied to the input",
    )
    p.add_argument("--n", type=_positive_int, help="vertex count override (edgelist)")
    p.add_argument("--kernel", choices=("gaussian", "indicator"),
                   help="kernel (points-csv; default gaussian)")
    p.add_argument("--bandwidth", type=float, help="kernel bandwidth (points-csv; default 1.0)")


def _add_embed_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--function", required=True, type=_function, metavar="SPEC",
                   help="weighting function, e.g. indicator:0.98")
    p.add_argument("--L", required=True, type=int, help="total polynomial order")
    p.add_argument("--b", type=int, default=1, help="cascade factor (divides L)")
    p.add_argument("--d", type=int, default=None, help="embedding dimension (default ceil(6 ln n))")
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="csemb", description=__doc__)
    ap.add_argument("--threads", type=_positive_int, default=_usable_cpus(),
                    help="worker cap, default the CPUs this process may use "
                         "(results are identical for any value)")
    sub = ap.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("embed", help="compute a compressive embedding")
    _add_matrix_args(pe)
    _add_embed_args(pe)
    pe.add_argument("--output", required=True, help="binary embedding output")
    pe.add_argument("--output-cols", default=None,
                    help="column-side embedding output (dilation only)")
    pe.add_argument("--output-csv", default=None, help="also write rows as CSV")
    pe.add_argument("--metadata", default=None, help="metadata JSON (default OUTPUT.meta.json)")

    pv = sub.add_parser("eval", help="compare an embedding against the dense oracle")
    pv.add_argument("--approx", required=True, help="embedding file to evaluate")
    pv.add_argument("--exact", default=None, help="precomputed exact embedding file")
    pv.add_argument("--input", default=None)
    pv.add_argument("--format", choices=("edgelist", "matrix-market", "points-csv"), default=None)
    pv.add_argument("--matrix", choices=("normalized-adjacency", "raw"), default="normalized-adjacency")
    pv.add_argument("--n", type=_positive_int, default=None)
    pv.add_argument("--kernel", choices=("gaussian", "indicator"))
    pv.add_argument("--bandwidth", type=float)
    pv.add_argument("--function", type=_function, default=None, metavar="SPEC")
    pv.add_argument("--pairs", type=int, default=None)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--output-prefix", required=True)

    pc = sub.add_parser("cluster", help="embed, cluster, and score by modularity")
    pc.add_argument("--input", required=True)
    pc.add_argument("--n", type=_positive_int, default=None)
    _add_embed_args(pc)
    pc.add_argument("--k", type=int, default=200)
    pc.add_argument("--runs", type=int, default=25)
    pc.add_argument("--labels-out", default=None)
    pc.add_argument("--summary-out", default=None)

    pn = sub.add_parser("norm", help="estimate the spectral norm of a matrix")
    _add_matrix_args(pn)
    pn.add_argument("--output", default=None)
    return ap


def _read_graph(args):
    """The edge list and vertex count of a graph input (``--n`` overrides)."""
    edges, inferred = cio.read_edgelist(args.input)
    n = args.n if args.n is not None else inferred
    if n < 1:
        raise InputFormatError(f"empty graph in {args.input}")
    return edges, n


def _refuse_options_off_format(args) -> None:
    for option, value, fmt in [("--n", args.n, "edgelist"), ("--kernel", args.kernel, "points-csv"),
                               ("--bandwidth", args.bandwidth, "points-csv")]:
        if value is not None and args.format != fmt:
            raise ValueError(f"{option} applies only to --format {fmt}")


def _operator(args):
    """The symmetric operator S that f is applied to, and the norm estimate
    S was divided by: None for the normalized adjacency, whose spectrum
    already lies in [-1, 1]. ``--matrix dilation`` makes S the dilation
    [0 A^T; A 0] of the input, an operator over A's own arrays. points-csv
    gets its kernel defaults here."""
    _refuse_options_off_format(args)
    if args.format == "edgelist":
        if args.matrix != "normalized-adjacency":
            raise ValueError("edge lists support only --matrix normalized-adjacency")
        return normalized_adjacency(*_read_graph(args)), None
    if args.matrix == "normalized-adjacency":
        raise ValueError("--matrix normalized-adjacency requires --format edgelist")
    if args.format == "points-csv":
        args.kernel = args.kernel or "gaussian"
        args.bandwidth = 1.0 if args.bandwidth is None else args.bandwidth
        mat = kernel_matrix(cio.read_points_csv(args.input), args.kernel, args.bandwidth)
    else:
        mat = cio.read_matrix_market(args.input)
    S = dilate(mat) if args.matrix == "dilation" else mat
    try:
        norm_estimate = estimate_spectral_norm(S)
    except ValueError:  # its exact symmetry check; only a raw Matrix Market input fails it
        raise ValueError("--matrix raw requires a square symmetric matrix; embed and norm take "
                         "a rectangular or asymmetric one with --matrix dilation") from None
    if norm_estimate > 0:
        S = scale_values(S, 1.0 / norm_estimate)
    return S, norm_estimate


def _make_config(args, n: int) -> EmbedConfig:
    d = args.d if args.d is not None else default_dimension(n)
    return EmbedConfig(L=args.L, d=d, b=args.b, seed=args.seed)


def cmd_embed(args) -> int:
    if args.output_cols and args.matrix != "dilation":
        raise ValueError("--output-cols requires --matrix dilation")
    t0 = time.perf_counter()
    S, norm_estimate = _operator(args)
    f = odd_extension(args.function) if args.matrix == "dilation" else args.function
    cfg = _make_config(args, S.n_rows)
    emb = fast_embed_cascaded(S, f, cfg, n_workers=args.threads)
    rows = emb.values
    if args.matrix == "dilation":
        # the dilation's first n rows embed the columns, the rest the rows
        cols, rows = rows[: S.A.n_cols], rows[S.A.n_cols :]
        if args.output_cols:
            cio.write_embedding(args.output_cols, cols)

    cio.write_embedding(args.output, rows)
    if args.output_csv:
        cio.write_embedding_csv(args.output_csv, rows)

    meta = {
        **emb.provenance,
        "command": "embed",
        "input": args.input,
        "format": args.format,
        "matrix": args.matrix,
        "kernel": args.kernel,  # None unless points-csv
        "bandwidth": args.bandwidth,
        "n_override": args.n,
        "function": args.function.describe(),  # as --function reads it, not its odd extension
        "norm_estimate": norm_estimate,
        "n_rows": rows.shape[0],
        "wall_time_s": time.perf_counter() - t0,
        "output": args.output,
    }
    cio.write_json(meta, args.metadata or (args.output + ".meta.json"))
    print(f"embedded {rows.shape[0]} rows into {cfg.d} dimensions -> {args.output}")
    return EXIT_OK


def cmd_eval(args) -> int:
    _refuse_options_off_format(args)
    rows = cio.embedding_shape(args.approx)[0]  # its payload is read once the oracle is done
    if args.exact:
        exact = cio.read_embedding(args.exact)
    else:
        if not (args.input and args.format and args.function):
            raise ValueError("eval needs either --exact or --input/--format/--function")
        S = _operator(args)[0]
        if S.n_rows != rows and S.n_rows <= ORACLE_CAP:  # past the cap, the oracle's exit 5
            raise ValueError(f"--approx has {rows} rows, the matrix {S.n_rows}")
        exact = exact_embedding(S, args.function)
    report = distortion_percentiles(exact, cio.read_embedding(args.approx),
                                    n_pairs=args.pairs, seed=args.seed)
    write_report(report, args.output_prefix)
    print(
        "deviation percentiles: "
        + ", ".join(f"p{p}={v:+.4f}" for p, v in report.percentiles.items())
    )
    return EXIT_OK


def cmd_cluster(args) -> int:
    # only normalized_adjacency sees the edges, and no name holds S during
    # the call (from CPython 3.11 a call takes over its arguments), so the
    # call's release of S after the embed frees its values before k-means
    held = [normalized_adjacency(*_read_graph(args))]
    n = held[0].n_rows
    cfg = _make_config(args, n)
    result = cluster_experiment(held.pop(), args.function, cfg, K=args.k, runs=args.runs,
                                n_workers=args.threads)
    if args.labels_out:
        cio.write_labels_csv(args.labels_out, result.median_labels)
    summary = {
        "command": "cluster",
        "input": args.input,
        "n": n,
        "function": args.function.describe(),
        **asdict(cfg),
        "k": args.k,
        "runs": args.runs,
        "median_modularity": result.median_modularity,
        "run_scores": list(result.run_scores),
    }
    print(cio.write_json(summary, args.summary_out), end="")
    return EXIT_OK


def cmd_norm(args) -> int:
    S, estimate = _operator(args)
    if estimate is None:
        estimate = estimate_spectral_norm(S)
    out = {
        "n": S.n_rows,
        "matrix": args.matrix,
        "norm_estimate": estimate,
        "safety": NORM_SAFETY,
        "steps": NORM_STEPS,
    }
    print(cio.write_json(out, args.output), end="")
    return EXIT_OK


_HANDLERS = {"embed": cmd_embed, "eval": cmd_eval, "cluster": cmd_cluster, "norm": cmd_norm}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ValueError as exc:
        parser.error(str(exc))
    except (InputFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (DivergenceError, OracleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OracleCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
