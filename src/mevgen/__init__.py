"""Multivariate extreme value models with prescribed pairwise tail dependence.

The package builds max-mixture specs whose bivariate tail-dependence
coefficients hit a prescribed symmetric target (exactly when feasible,
proportionally otherwise), evaluates their joint CDF and extreme-value
copula in closed form, draws reproducible Monte Carlo samples, and checks
the closed-form coefficients against empirical estimates.
"""

from .errors import (
    CsvFormatError,
    DomainError,
    InfeasibleTargetError,
    MevError,
    ProvenanceError,
    ShapeError,
    SpecValidationError,
)
from .estimation import (
    DEFAULT_U_GRID,
    Z_95,
    EstimateReport,
    ThresholdComparison,
    estimate_tail_dep,
    finite_u_tail_dep,
    ks_statistic,
    theoretical_vs_empirical,
)
from .model import (
    FEASIBILITY_TOL,
    ModelSpec,
    TailDepMatrix,
    copula,
    extremal_matrix,
    joint_cdf,
    log_copula,
    log_joint_cdf,
    marginal_cdf,
    multivariate_extremal_coeff,
    require_valid_spec,
    require_valid_tail_dep_matrix,
    tail_dep_matrix,
)
from .plotting import pair_scatter_svg
from .sampling import SampleBatch, sample_batch, sample_chunks
from .synthesis import SynthesisResult, synthesize

__version__ = "0.1.0"

__all__ = [
    "CsvFormatError",
    "DomainError",
    "InfeasibleTargetError",
    "MevError",
    "ProvenanceError",
    "ShapeError",
    "SpecValidationError",
    "DEFAULT_U_GRID",
    "Z_95",
    "EstimateReport",
    "ThresholdComparison",
    "estimate_tail_dep",
    "finite_u_tail_dep",
    "ks_statistic",
    "theoretical_vs_empirical",
    "FEASIBILITY_TOL",
    "ModelSpec",
    "TailDepMatrix",
    "copula",
    "extremal_matrix",
    "joint_cdf",
    "log_copula",
    "log_joint_cdf",
    "marginal_cdf",
    "multivariate_extremal_coeff",
    "require_valid_spec",
    "require_valid_tail_dep_matrix",
    "tail_dep_matrix",
    "pair_scatter_svg",
    "SampleBatch",
    "sample_batch",
    "sample_chunks",
    "SynthesisResult",
    "synthesize",
    "__version__",
]
