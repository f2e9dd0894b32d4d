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

Rank margins need only which ranks pass u, the top K of each column, so
those are selected, not sorted.  A comparison against a spec confirms
provenance through the batch's spec digest, in O(nnz).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, ProvenanceError, ShapeError
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


def _rank_exceedances(data: np.ndarray, u: float) -> np.ndarray:
    """Per column, whether rank / (n + 1) > u, ranks stable ordinal from 1.

    Stable ordinal ranks order a column by value and break ties by row
    index.  The ranks that pass are the top K, K = #{r in 1..n : r / (n + 1)
    > u}, so each column needs only its K-th largest value, found by
    ``np.partition``: every row above it passes, and of the rows equal to
    it, those with the highest indices.  Values must not be NaN.
    """
    n = data.shape[0]
    k = int(np.count_nonzero(np.arange(1.0, n + 1.0) / (n + 1.0) > u))
    if k == 0:
        return np.zeros(data.shape, dtype=bool)
    kth = np.partition(data, n - k, axis=0)[n - k]
    exceed = data >= kth
    # fewer than k rows lie above kth, so a surplus is made of ties at kth
    surplus = np.count_nonzero(exceed, axis=0) - k
    for j in np.flatnonzero(surplus):
        tied = np.flatnonzero(data[:, j] == kth[j])
        exceed[tied[: surplus[j]], j] = False
    return exceed


def _joint_counts(exceed: np.ndarray) -> np.ndarray:
    """``exceed.T @ exceed`` of an (n, d) bool matrix as int64, without BLAS.

    In some processes OpenBLAS's threaded product of the 0/1 matrix took 20-100 times its
    usual time.  Each column is packed into 64-bit words instead, and each entry on and above
    the diagonal counts the set bits of the AND of two columns' words by a SWAR popcount.
    """
    d = exceed.shape[1]
    # (d, ceil(n / 8)), the bits past n zero; packing contiguous rows is about 3 times faster
    packed = np.packbits(np.ascontiguousarray(exceed.T), axis=1)
    words = np.zeros((d, -(-packed.shape[1] // 8) * 8), np.uint8)
    words[:, : packed.shape[1]] = packed
    words = words.view(np.uint64)  # (d, w)
    counts = np.empty((d, d), np.int64)
    fives, threes, fifteens, ones = (np.uint64(b * 0x0101010101010101) for b in (0x55, 0x33, 15, 1))
    step = max(1, 2**16 // (d * words.shape[1]))  # rows per block: temporaries of 512 KiB
    for lo in range(0, d, step):  # the rows from lo against the columns from lo, then mirror
        v = words[lo : lo + step, None, :] & words[None, lo:, :]
        v -= (v >> np.uint64(1)) & fives  # each 2 bits hold their count, then each 4, each 8
        v = (v & threes) + ((v >> np.uint64(2)) & threes)
        v += v >> np.uint64(4)
        v &= fifteens
        v *= ones  # the top byte sums the eight
        v >>= np.uint64(56)
        counts[lo : lo + step, lo:] = v.sum(axis=2)
    lower = np.tril_indices(d, -1)
    counts[lower] = counts.T[lower]
    return counts


def estimate_tail_dep(
    batch: SampleBatch, u: float, margins: str = "rank", scale: float | None = None
) -> EstimateReport:
    """Estimate all pairwise tail dependence coefficients at threshold u.

    Parameters
    ----------
    batch : SampleBatch
        Nonempty observations, none NaN; with ``margins="known"`` all
        positive, the domain of the Fréchet CDF.
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
    data = batch.data
    if np.isnan(data).any():
        raise DomainError("observations must not be NaN")
    if margins == "rank":
        exceed = _rank_exceedances(data, u)
    elif margins == "known":
        if scale is None or not scale > 0:
            raise DomainError("margins='known' requires a positive scale constant")
        if not (data > 0).all():
            raise DomainError(
                f"margins='known' requires positive observations, found {float(data.min())!r}"
            )
        exceed = np.exp(-scale / data) > u
    else:
        raise DomainError(f"margins must be 'rank' or 'known', got {margins!r}")

    counts = _joint_counts(exceed)
    n_cond = np.diagonal(counts).astype(np.float64)

    with np.errstate(divide="ignore", invalid="ignore"):
        lam_hat = counts / n_cond[None, :]
        half = Z_95 * np.sqrt(lam_hat * (1.0 - lam_hat) / n_cond[None, :])
    lam_hat[:, n_cond == 0] = np.nan
    half[:, n_cond == 0] = np.nan
    np.fill_diagonal(lam_hat, 1.0)
    np.fill_diagonal(half, 0.0)
    return EstimateReport(
        u=float(u),
        n=batch.n,
        margins=margins,
        lambda_hat=lam_hat,
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

    The spec is validated first (SpecValidationError), then the batch must
    have one column per margin (ShapeError) and carry the digest of
    ``spec``, :meth:`ModelSpec.digest` (ProvenanceError).  Estimates use
    known margins with the spec's scale constant.  Each threshold yields
    one comparison; a pair is flagged when its estimate misses the exact
    finite-u value by more than three half-widths.
    """
    lam_limit = tail_dep_matrix(spec).values
    if batch.d != spec.d:
        raise ShapeError(f"data has {batch.d} columns but spec has dimension {spec.d}")
    if batch.spec_digest != spec.digest():
        raise ProvenanceError(
            "batch spec hash does not match the spec it is compared against"
        )
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
