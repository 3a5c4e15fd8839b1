"""Command-line driver: embed / eval / cluster / norm.

Exit codes: 0 success, 2 usage, 3 input parse, 4 numeric failure (iteration
blow-up), 5 dense-oracle cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time

import numpy as np

from . import io as cio
from .cluster import cluster_experiment
from .engine import (
    NORM_ITERS,
    NORM_SAFETY,
    NORM_VECTORS_FACTOR,
    EmbedConfig,
    SpmvCounter,
    default_dimension,
    estimate_spectral_norm,
    fast_embed_cascaded,
    sample_projection,
    split_dilation,
)
from .errors import DivergenceError, InputFormatError, OracleCapError, OracleError
from .functions import odd_extension, parse_function
from .oracle import (
    distortion_percentiles,
    exact_embedding,
    write_calibration_csv,
    write_percentiles_csv,
    write_report_json,
)
from .sparse import KernelSpec, dilate, kernel_matrix, normalized_adjacency, scale_values

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_NUMERIC = 4
EXIT_CAP = 5


def _default_threads() -> int:
    try:
        return max(1, int(os.environ.get("CSEMB_THREADS", "1")))
    except ValueError:
        return 1


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
    p.add_argument("--n", type=int, default=None, help="vertex count override (edgelist)")
    p.add_argument("--kernel", choices=("gaussian", "indicator"), default="gaussian")
    p.add_argument("--bandwidth", type=float, default=1.0, help="kernel bandwidth")


def _add_embed_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--function", required=True, type=parse_function, metavar="SPEC",
                   help="weighting function, e.g. indicator:0.98")
    p.add_argument("--L", required=True, type=int, help="total polynomial order")
    p.add_argument("--b", type=int, default=1, help="cascade factor (divides L)")
    p.add_argument("--d", type=int, default=None, help="embedding dimension (default ceil(6 ln n))")
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="csemb", description=__doc__)
    ap.add_argument("--threads", type=int, default=_default_threads(),
                    help="worker cap (results are identical for any value)")
    ap.add_argument("--verbose", action="store_true", help="per-iteration audit log")
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
    pv.add_argument("--n", type=int, default=None)
    pv.add_argument("--kernel", choices=("gaussian", "indicator"), default="gaussian")
    pv.add_argument("--bandwidth", type=float, default=1.0)
    pv.add_argument("--function", type=parse_function, default=None, metavar="SPEC")
    pv.add_argument("--pairs", type=int, default=None)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--output-prefix", required=True)

    pc = sub.add_parser("cluster", help="embed, cluster, and score by modularity")
    pc.add_argument("--input", required=True)
    pc.add_argument("--n", type=int, default=None)
    _add_embed_args(pc)
    pc.add_argument("--k", type=int, default=200)
    pc.add_argument("--runs", type=int, default=25)
    pc.add_argument("--labels-out", default=None)
    pc.add_argument("--summary-out", default=None)

    pn = sub.add_parser("norm", help="estimate the spectral norm of a matrix")
    _add_matrix_args(pn)
    pn.add_argument("--seed", type=int, default=0)
    pn.add_argument("--output", default=None)
    return ap


def _load_matrix(args, parser):
    """Build the working matrix; returns (matrix, kind, extra) where extra
    carries edge data for graph inputs."""
    if args.format == "edgelist":
        if args.matrix != "normalized-adjacency":
            parser.error("edge lists support only --matrix normalized-adjacency")
        edges, inferred = cio.read_edgelist(args.input)
        n = args.n if args.n is not None else inferred
        if n < 1:
            raise InputFormatError(f"empty graph in {args.input}")
        return normalized_adjacency(edges, n), "normalized-adjacency", {"edges": edges, "n": n}
    if args.format == "matrix-market":
        mat = cio.read_matrix_market(args.input)
        if args.matrix == "normalized-adjacency":
            parser.error("--matrix normalized-adjacency requires --format edgelist")
        return mat, args.matrix, {}
    pts = cio.read_points_csv(args.input)
    if args.matrix == "normalized-adjacency":
        parser.error("--matrix normalized-adjacency requires --format edgelist")
    mat = kernel_matrix(pts, KernelSpec(args.kernel, args.bandwidth))
    return mat, args.matrix, {}


def _make_config(args, n: int, parser) -> EmbedConfig:
    d = args.d if args.d is not None else default_dimension(n)
    try:
        return EmbedConfig(L=args.L, d=d, b=args.b, seed=args.seed)
    except ValueError as exc:
        parser.error(str(exc))


def cmd_embed(args, parser) -> int:
    mat, kind, _ = _load_matrix(args, parser)
    t0 = time.perf_counter()
    counter = SpmvCounter()
    norm_estimate = None
    f = args.function

    if kind == "dilation":
        S = dilate(mat)
        f = odd_extension(f)
    elif mat.n_rows != mat.n_cols:
        parser.error("--matrix raw requires a square matrix; use --matrix dilation")
    else:
        S = mat
    cfg = _make_config(args, S.n_rows, parser)
    if kind != "normalized-adjacency":
        norm_estimate = estimate_spectral_norm(S, cfg)
        if norm_estimate > 0:
            S = scale_values(S, 1.0 / norm_estimate)
    omega = sample_projection(S.n_rows, cfg.d, cfg.seed)
    emb = fast_embed_cascaded(S, f, cfg, omega, n_workers=args.threads, counter=counter)
    if kind == "dilation":
        emb, cols_emb = split_dilation(emb, mat.n_cols)
        if args.output_cols:
            cio.write_embedding(args.output_cols, cols_emb.values)

    cio.write_embedding(args.output, emb.values)
    if args.output_csv:
        cio.write_embedding_csv(args.output_csv, emb.values)

    meta = {
        "command": "embed",
        "input": args.input,
        "format": args.format,
        "matrix": kind,
        "kernel": args.kernel if args.format == "points-csv" else None,
        "bandwidth": args.bandwidth if args.format == "points-csv" else None,
        "n_override": args.n,
        "function": args.function.describe(),
        "L": cfg.L,
        "b": cfg.b,
        "d": cfg.d,
        "block_width": emb.provenance["block_width"],
        "seed": cfg.seed,
        "norm_estimate": norm_estimate,
        "spmv_products": counter.products,
        "coeffs_sha256": emb.provenance.get("coeffs_sha256"),
        "n_rows": emb.n_rows,
        "wall_time_s": time.perf_counter() - t0,
        "output": args.output,
    }
    meta_path = args.metadata or (args.output + ".meta.json")
    with open(meta_path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"embedded {emb.n_rows} rows into {cfg.d} dimensions -> {args.output}")
    return EXIT_OK


def cmd_eval(args, parser) -> int:
    approx = cio.read_embedding(args.approx)
    if args.exact:
        exact = cio.read_embedding(args.exact)
    else:
        if not (args.input and args.format and args.function):
            parser.error("eval needs either --exact or --input/--format/--function")
        mat, kind, _ = _load_matrix(args, parser)
        exact = exact_embedding(mat.to_dense(), args.function)
    dev = distortion_percentiles(exact, approx, n_pairs=args.pairs, seed=args.seed)
    cal = distortion_percentiles(
        exact, approx, n_pairs=args.pairs, seed=args.seed, mode="calibration"
    )
    write_percentiles_csv(dev, f"{args.output_prefix}_percentiles.csv")
    write_calibration_csv(cal, f"{args.output_prefix}_calibration.csv")
    write_report_json(dev, f"{args.output_prefix}_report.json")
    print(
        "deviation percentiles: "
        + ", ".join(f"p{p}={v:+.4f}" for p, v in dev.percentiles.items())
    )
    return EXIT_OK


def cmd_cluster(args, parser) -> int:
    edges, inferred = cio.read_edgelist(args.input)
    n = args.n if args.n is not None else inferred
    if n < 1:
        raise InputFormatError(f"empty graph in {args.input}")
    cfg = _make_config(args, n, parser)
    try:
        result = cluster_experiment(
            edges, n, args.function, cfg, K=args.k, runs=args.runs, n_workers=args.threads
        )
    except ValueError as exc:
        parser.error(str(exc))
    if args.labels_out:
        cio.write_labels_csv(args.labels_out, result.median_labels)
    summary = {
        "command": "cluster",
        "input": args.input,
        "n": n,
        "function": args.function.describe(),
        "L": cfg.L,
        "b": cfg.b,
        "d": cfg.d,
        "seed": cfg.seed,
        "k": args.k,
        "runs": args.runs,
        "median_modularity": result.median_modularity,
        "run_scores": list(result.run_scores),
    }
    text = json.dumps(summary, indent=2, sort_keys=True)
    if args.summary_out:
        with open(args.summary_out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return EXIT_OK


def cmd_norm(args, parser) -> int:
    mat, kind, _ = _load_matrix(args, parser)
    if kind == "dilation":
        mat = dilate(mat)
    cfg = EmbedConfig(L=1, d=1, seed=args.seed)
    estimate = estimate_spectral_norm(mat, cfg)
    out = {
        "n": mat.n_rows,
        "matrix": kind,
        "norm_estimate": estimate,
        "iterations": NORM_ITERS,
        "start_vectors_factor": NORM_VECTORS_FACTOR,
        "safety": NORM_SAFETY,
        "seed": args.seed,
    }
    text = json.dumps(out, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return EXIT_OK


_HANDLERS = {"embed": cmd_embed, "eval": cmd_eval, "cluster": cmd_cluster, "norm": cmd_norm}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(name)s %(message)s",
    )
    try:
        return _HANDLERS[args.command](args, parser)
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
