"""Bayesian density learning with density operators and wavelet embeddings.

The package splits into small modules: `discrete` for exact
finite-dimensional states and measurements, `basis` for scaling-function
families on an interval, `embedding` for weighted basis embeddings, their
kernel and their traces, `learn` for the posterior functionals and the
kernel-trick MAP estimator, `target` for the beta target and its seeded
sampler, and `cli`/`config`/`oracles` for the deterministic command-line
experiments.
"""

from .basis import (
    BasisSpec,
    DAUB4_TAPS,
    Grid,
    Interval,
    band_to_dense,
    basis_matrix,
    coefficient_band,
    coefficient_vector,
    gram_check,
    linear_form,
    quadratic_form,
    scaling_values_daub4,
    wavelet_approximation,
)
from .config import ExperimentConfig, load_config, parse_config
from .discrete import (
    DensityMatrix,
    DiscreteDistribution,
    UnitaryBasis,
    WaveFunction,
    born_probability,
    change_basis,
    ensemble_from_distribution,
    probability_from_coefficients,
    wavefunction_from_distribution,
)
from .embedding import (
    EmbeddingOperator,
    kernel_diag,
    kernel_eval,
    trace_k_map,
    trace_k_rho,
)
from .learn import (
    DensityCurve,
    MapCoefficients,
    SampleSet,
    embedded_density_exact,
    embedded_density_map,
    log_posterior_coefficients,
    log_posterior_discrete,
    map_coefficients,
    normalized_ratio,
)
from .target import (
    BetaTarget,
    load_samples,
    regularized_incomplete_beta,
)

__version__ = "0.1.0"

__all__ = [
    "BasisSpec",
    "BetaTarget",
    "DAUB4_TAPS",
    "DensityCurve",
    "DensityMatrix",
    "DiscreteDistribution",
    "EmbeddingOperator",
    "ExperimentConfig",
    "Grid",
    "Interval",
    "MapCoefficients",
    "SampleSet",
    "UnitaryBasis",
    "WaveFunction",
    "band_to_dense",
    "basis_matrix",
    "born_probability",
    "change_basis",
    "coefficient_band",
    "coefficient_vector",
    "embedded_density_exact",
    "embedded_density_map",
    "ensemble_from_distribution",
    "gram_check",
    "kernel_diag",
    "kernel_eval",
    "linear_form",
    "load_config",
    "load_samples",
    "log_posterior_coefficients",
    "log_posterior_discrete",
    "map_coefficients",
    "normalized_ratio",
    "parse_config",
    "probability_from_coefficients",
    "quadratic_form",
    "regularized_incomplete_beta",
    "scaling_values_daub4",
    "trace_k_map",
    "trace_k_rho",
    "wavefunction_from_distribution",
    "wavelet_approximation",
]
