"""Multivariate extreme value models with prescribed pairwise tail dependence.

The package builds max-mixture specs whose bivariate tail-dependence
coefficients hit a prescribed symmetric target (exactly when feasible,
proportionally otherwise), evaluates their joint CDF and extreme-value
copula in closed form, draws reproducible Monte Carlo samples, and checks
the closed-form coefficients against empirical estimates.
"""

from importlib import import_module as _import_module

#: The module that defines each public name; each is imported on first use
#: (PEP 562), so a subcommand loads only the modules it runs.
_HOMES = {
    "errors": (
        "CsvFormatError",
        "DomainError",
        "FormatError",
        "InfeasibleTargetError",
        "MevError",
        "ProvenanceError",
        "ShapeError",
        "SpecValidationError",
    ),
    "estimation": (
        "DEFAULT_U_GRID",
        "Z_95",
        "EstimateReport",
        "ThresholdComparison",
        "estimate_tail_dep",
        "finite_u_tail_dep",
        "ks_statistic",
        "theoretical_vs_empirical",
    ),
    "model": (
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
    ),
    "plotting": ("pair_scatter_svg",),
    "sampling": ("SampleBatch", "sample_batch", "sample_chunks"),
    "synthesis": ("SynthesisResult", "synthesize"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
_MODULES = {*_HOMES, "_csvfmt", "cli", "fileio"}


def __getattr__(name: str):
    if name in _MODULES:
        return _import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_MODULES})


__version__ = "0.1.0"

__all__ = [*_HOME, "__version__"]
