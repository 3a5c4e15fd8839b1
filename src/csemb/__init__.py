"""csemb: compressive spectral embeddings of sparse matrices.

Approximates the pairwise geometry of eigenvector embeddings
E = [f(l1) v1 ... f(ln) vn] without any eigendecomposition, by applying a
finite Legendre expansion of f to the matrix and projecting onto random
sign vectors. Includes a desk-scale dense oracle and a clustering harness
for validation.
"""

from .cluster import (
    ClusterAssignment,
    ClusterExperiment,
    cluster_experiment,
    kmeans,
    modularity,
)
from .engine import (
    EmbedConfig,
    EmbeddingMatrix,
    default_dimension,
    estimate_spectral_norm,
    fast_embed_cascaded,
    fold_seed,
    sample_projection,
)
from .errors import (
    CsembError,
    DivergenceError,
    InputFormatError,
    OracleCapError,
    OracleError,
)
from .functions import (
    SpectralFunction,
    commute_time,
    constant,
    identity,
    indicator_above,
    odd_extension,
    parse_function,
    root_function,
    tabulated,
)
from .legendre import (
    ApproximationReport,
    LegendreExpansion,
    approximation_report,
    expansion_eval,
    legendre_coefficients,
    legendre_table,
)
from .oracle import (
    DistortionReport,
    ORACLE_CAP,
    distance_bound_audit,
    distortion_percentiles,
    exact_embedding,
    sample_pairs,
)
from .sparse import (
    SparseMatrix,
    dilate,
    kernel_matrix,
    normalized_adjacency,
    scale_values,
    spmv_multi,
)

__version__ = "0.1.0"

__all__ = [
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
