"""Empirical tail dependence estimation and comparison to closed forms.

The pairwise estimator is the conditional exceedance proportion at a finite
threshold u: margins are transformed to uniform scale (empirical ranks, or
the exact Fréchet CDF when the scale constant is known) and

    lambda_hat[s, k] = #{F_s > u and F_k > u} / #{F_k > u}.

Columns condition, rows respond; the matrix is asymmetric at finite u but
rank margins make it exactly symmetric because every margin then has the
same number of exceedances.  The model's exact value at finite u for a pair
with limit coefficient ``lam`` follows from the pair copula diagonal
``u ** (2 - lam)``:

    (1 - 2u + u**(2 - lam)) / (1 - u)  ->  lam   as u -> 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, ProvenanceError
from .model import ModelSpec, tail_dep_matrix
from .sampling import SampleBatch

#: Two-sided 95% normal quantile used for binomial-proportion half-widths.
Z_95 = 1.959963984540054

#: Thresholds used by comparison runs when the caller gives none.
DEFAULT_U_GRID = (0.90, 0.95, 0.99)


@dataclass(frozen=True, eq=False)
class EstimateReport:
    """Pairwise conditional exceedance estimates at one threshold.

    Entries whose conditioning margin has no exceedances are NaN (undefined,
    never 0) and serialize as null.  Diagonals are pinned: 1 for the
    estimates, 0 for the half-widths.  ``counts[s, k]`` is the joint
    exceedance count; its diagonal holds the per-margin exceedance counts.
    """

    u: float
    n: int
    margins: str
    lambda_hat: np.ndarray
    lambda_hat_sym: np.ndarray
    counts: np.ndarray
    half_width: np.ndarray

    @property
    def d(self) -> int:
        return self.lambda_hat.shape[0]

    def to_json_dict(
        self,
        exact_finite_u: np.ndarray | None = None,
        lambda_limit: np.ndarray | None = None,
    ) -> dict:
        return {
            "u": self.u,
            "n": self.n,
            "d": self.d,
            "margins": self.margins,
            "lambda_hat": _matrix_json(self.lambda_hat),
            "lambda_hat_sym": _matrix_json(self.lambda_hat_sym),
            "counts": self.counts.tolist(),
            "half_width": _matrix_json(self.half_width),
            "exact_finite_u": None if exact_finite_u is None else _matrix_json(exact_finite_u),
            "lambda_limit": None if lambda_limit is None else _matrix_json(lambda_limit),
        }


@dataclass(frozen=True, eq=False)
class ThresholdComparison:
    """Empirical vs. exact finite-u vs. limiting coefficients at one threshold.

    ``flagged`` lists the (row, column) pairs whose estimate deviates from
    the exact finite-u value by more than three half-widths.
    """

    u: float
    report: EstimateReport
    exact_finite_u: np.ndarray
    lambda_limit: np.ndarray
    flagged: tuple[tuple[int, int], ...]

    def to_json_dict(self) -> dict:
        out = self.report.to_json_dict(
            exact_finite_u=self.exact_finite_u, lambda_limit=self.lambda_limit
        )
        out["flagged_pairs"] = [[s + 1, k + 1] for s, k in self.flagged]
        return out


def _matrix_json(arr: np.ndarray) -> list:
    out = arr.astype(object)
    out[~np.isfinite(arr)] = None
    return out.tolist()


def _rank_uniforms(data: np.ndarray) -> np.ndarray:
    """Per-column empirical transform rank / (n + 1), ranks ordinal from 1."""
    n = data.shape[0]
    order = np.argsort(data, axis=0, kind="stable")
    ranks = np.empty_like(data)
    np.put_along_axis(
        ranks, order, np.broadcast_to(np.arange(1.0, n + 1.0)[:, None], data.shape), axis=0
    )
    return ranks / (n + 1.0)


def estimate_tail_dep(
    batch: SampleBatch, u: float, margins: str = "rank", scale: float | None = None
) -> EstimateReport:
    """Estimate all pairwise tail dependence coefficients at threshold u.

    Parameters
    ----------
    batch : SampleBatch
        Nonempty observations.
    u : float
        Threshold in (0, 1); useful estimates need n * (1 - u) well above 1
        (20 or more exceedances recommended).
    margins : {"rank", "known"}
        Uniform transform: empirical ranks, or the exact marginal CDF
        ``exp(-scale / x)``.
    scale : float, optional
        Fréchet scale constant; required with ``margins="known"``.
    """
    if batch.n == 0:
        raise DomainError("cannot estimate from an empty batch")
    if not 0.0 < u < 1.0:
        raise DomainError(f"threshold must lie in (0, 1), got {u!r}")
    if margins == "rank":
        unif = _rank_uniforms(batch.data)
    elif margins == "known":
        if scale is None or not scale > 0:
            raise DomainError("margins='known' requires a positive scale constant")
        unif = np.exp(-scale / batch.data)
    else:
        raise DomainError(f"margins must be 'rank' or 'known', got {margins!r}")

    # float64 matmul goes through BLAS; the counts stay below 2**53, so exact
    exceed = (unif > u).astype(np.float64)
    counts = (exceed.T @ exceed).astype(np.int64)
    n_cond = np.diagonal(counts).astype(np.float64)

    with np.errstate(divide="ignore", invalid="ignore"):
        lam_hat = counts / n_cond[None, :]
        pair_floor = np.minimum(n_cond[:, None], n_cond[None, :])
        lam_sym = counts / pair_floor
        half = Z_95 * np.sqrt(lam_hat * (1.0 - lam_hat) / n_cond[None, :])
    lam_hat[:, n_cond == 0] = np.nan
    lam_sym[pair_floor == 0] = np.nan
    half[:, n_cond == 0] = np.nan
    np.fill_diagonal(lam_hat, 1.0)
    np.fill_diagonal(lam_sym, 1.0)
    np.fill_diagonal(half, 0.0)
    return EstimateReport(
        u=float(u),
        n=batch.n,
        margins=margins,
        lambda_hat=lam_hat,
        lambda_hat_sym=lam_sym,
        counts=counts,
        half_width=half,
    )


def finite_u_tail_dep(u: float, lam):
    """Exact conditional exceedance probability at finite threshold u.

    ``(1 - 2u + u**(2 - lam)) / (1 - u)`` for a pair with limiting
    coefficient ``lam``; equals 1 - u under independence and 1 under
    complete dependence, and converges to ``lam`` as u increases to 1.
    Vectorized over ``lam``.
    """
    if not 0.0 < u < 1.0:
        raise DomainError(f"threshold must lie in (0, 1), got {u!r}")
    lam_arr = np.asarray(lam, dtype=np.float64)
    out = (1.0 - 2.0 * u + u ** (2.0 - lam_arr)) / (1.0 - u)
    return float(out) if lam_arr.ndim == 0 else out


def theoretical_vs_empirical(
    spec: ModelSpec,
    batch: SampleBatch,
    u_grid: Sequence[float] = DEFAULT_U_GRID,
) -> list[ThresholdComparison]:
    """Compare empirical estimates against the model's exact values.

    The batch must carry the fingerprint of ``spec``; estimates use known
    margins with the spec's scale constant.  Each threshold yields one
    comparison; a pair is flagged when its estimate misses the exact
    finite-u value by more than three half-widths.
    """
    if batch.spec_fingerprint != spec.fingerprint():
        raise ProvenanceError(
            "batch fingerprint does not match the spec it is compared against"
        )
    lam_limit = tail_dep_matrix(spec).values
    comparisons = []
    for u in u_grid:
        report = estimate_tail_dep(batch, u, margins="known", scale=spec.C)
        exact = finite_u_tail_dep(u, lam_limit)
        np.fill_diagonal(exact, 1.0)
        dev = np.abs(report.lambda_hat - exact)
        with np.errstate(invalid="ignore"):
            bad = dev > 3.0 * report.half_width
        bad &= ~np.eye(spec.d, dtype=bool)
        bad &= np.isfinite(report.lambda_hat)
        flagged = tuple((int(s), int(k)) for s, k in np.argwhere(bad))
        comparisons.append(
            ThresholdComparison(
                u=float(u),
                report=report,
                exact_finite_u=exact,
                lambda_limit=lam_limit,
                flagged=flagged,
            )
        )
    return comparisons


def ks_statistic(sample, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """Kolmogorov-Smirnov sup-distance between a sample and a CDF.

    ``cdf`` must accept a sorted array and return pointwise probabilities.
    """
    xs = np.sort(np.asarray(sample, dtype=np.float64))
    n = xs.size
    if n == 0:
        raise DomainError("KS statistic needs a nonempty sample")
    f = np.asarray(cdf(xs), dtype=np.float64)
    upper = np.max(np.arange(1, n + 1) / n - f)
    lower = np.max(f - np.arange(0, n) / n)
    return float(max(upper, lower))
