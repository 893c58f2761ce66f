"""Discrete determinantal point processes approximating continuous ensembles.

Build admissible kernel matrices over sampled point clouds (Gram
restrictions, orthonormal-polynomial projections, graph-harmonic surrogates,
thresholded random-graph estimates), sample them exactly, compute linear
statistics with exact expectations, check determinant stability bounds, and
run the benchmark experiments from configuration files.
"""

from .dpp_engine import (
    IndexSample,
    ValidatedDpp,
    enumerate_pmf,
    random_valid_kernel,
    sample_dpp,
    sample_dpp_many,
    validate_kernel,
)
from .estimators import (
    coreset_estimates,
    draw_with_replacement,
    loss_on_grid,
    quantile_relative_error,
    sensitivity_scores,
    sphere_integrals,
)
from .kernel_builders import (
    AdjacencyMatrix,
    ContinuousKernel,
    HarmonicDetails,
    KernelMatrix,
    constant_kernel,
    gaussian_kernel,
    graded_monomials,
    gram_kernel,
    harmonic_kernel,
    harmonic_kernel_details,
    harmonic_kernel_family,
    kde_density,
    latent_graph,
    normalized_indicator_profile,
    ope_kernel,
    orthonormalize_columns,
    squared_distances,
    usvt_kernel,
    usvt_retained_rank,
)
from .point_cloud import (
    PointCloud,
    sample_uniform_cube,
    sample_uniform_sphere,
)
from .rng import SeededRng
from .statistics import (
    TestFunction,
    det_bound_frobenius,
    det_bound_max,
    expected_linear_statistic,
    expected_statistic_continuous,
    kernel_error,
    linear_statistic,
    measure_error,
)

__all__ = [
    "AdjacencyMatrix",
    "ContinuousKernel",
    "HarmonicDetails",
    "IndexSample",
    "KernelMatrix",
    "PointCloud",
    "SeededRng",
    "TestFunction",
    "ValidatedDpp",
    "constant_kernel",
    "coreset_estimates",
    "det_bound_frobenius",
    "det_bound_max",
    "draw_with_replacement",
    "enumerate_pmf",
    "expected_linear_statistic",
    "expected_statistic_continuous",
    "gaussian_kernel",
    "graded_monomials",
    "gram_kernel",
    "harmonic_kernel",
    "harmonic_kernel_details",
    "harmonic_kernel_family",
    "kde_density",
    "kernel_error",
    "latent_graph",
    "linear_statistic",
    "loss_on_grid",
    "measure_error",
    "normalized_indicator_profile",
    "ope_kernel",
    "orthonormalize_columns",
    "quantile_relative_error",
    "random_valid_kernel",
    "sample_dpp",
    "sample_dpp_many",
    "sample_uniform_cube",
    "sample_uniform_sphere",
    "sensitivity_scores",
    "sphere_integrals",
    "squared_distances",
    "usvt_kernel",
    "usvt_retained_rank",
    "validate_kernel",
]
