"""The package's public surface and its internal import discipline."""

import ast
import importlib
import importlib.util
import pathlib

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
    "ExactEmbedding",
    "InputFormatError",
    "KernelSpec",
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
    # names; the dilation path embeds through fast_embed_cascaded, so
    # fast_embed_general is the one name the CLI does not import.
    spec = importlib.util.spec_from_file_location("perfbench_child", BENCH_CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    unresolved = [
        f"{module_name}.{attr}"
        for module_name, attrs in child.UNTRACED
        for attr in attrs
        if getattr(importlib.import_module(module_name), attr, None) is None
    ]
    assert unresolved == ["csemb.cli.fast_embed_general"]
