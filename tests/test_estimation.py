"""Empirical tail-dependence estimation against hand-computed and exact values."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import mevgen as mg
from mevgen.errors import DomainError, ProvenanceError, ShapeError
from mevgen.estimation import _joint_counts, _rank_exceedances

from conftest import EX3_LAMBDA


def _batch(data, seed=0) -> mg.SampleBatch:
    return mg.SampleBatch(data=np.asarray(data, float), seed=seed)


def _rank_uniforms(data: np.ndarray) -> np.ndarray:
    """Oracle: per-column empirical transform rank / (n + 1), ranks ordinal from 1."""
    n = data.shape[0]
    order = np.argsort(data, axis=0, kind="stable")
    ranks = np.empty_like(data)
    np.put_along_axis(
        ranks, order, np.broadcast_to(np.arange(1.0, n + 1.0)[:, None], data.shape), axis=0
    )
    return ranks / (n + 1.0)


#: Values with many ties, -0.0 beside 0.0, and both infinities.
_TIE_VALUES = st.sampled_from([-0.0, 0.0, 1.0, 2.0, 2.0**-1074, np.inf, -np.inf])


@st.composite
def _data_and_threshold(draw):
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 4))
    elements = st.one_of(_TIE_VALUES, st.floats(-1e300, 1e300, allow_nan=False))
    data = draw(arrays(np.float64, (n, d), elements=elements))
    # thresholds on the grid r / (n + 1) and one float either side of it
    # reach K = 0 and K = n and every boundary in between
    r = draw(st.integers(0, n + 1))
    grid = r / (n + 1.0)
    near = [grid, float(np.nextafter(grid, 0.0)), float(np.nextafter(grid, 1.0))]
    u = draw(st.one_of(st.sampled_from(near), st.floats(0.0, 1.0)))
    return data, min(max(u, 5e-324), 1.0 - 2.0**-53)  # u inside (0, 1)


class TestRankTransform:
    def test_small_column(self):
        # ranks 3, 1, 2 of n = 3 give uniforms 0.75, 0.25, 0.5
        data = np.array([[3.0], [1.0], [2.0]])
        for u, passed in ((0.2, [1, 1, 1]), (0.25, [1, 0, 1]), (0.6, [1, 0, 0]), (0.75, [0, 0, 0])):
            assert _rank_exceedances(data, u)[:, 0].tolist() == [bool(p) for p in passed]

    def test_columns_independent(self):
        data = np.array([[3.0, 10.0], [1.0, 30.0], [2.0, 20.0]])
        assert _rank_exceedances(data, 0.6).tolist() == [[True, False], [False, True], [False, False]]

    def test_ties_go_to_the_highest_row_indices(self):
        data = np.array([[1.0], [5.0], [5.0], [5.0], [0.0]])
        # K = 2 of n = 5: the two 5.0 with the highest stable ranks, rows 2 and 3
        assert _rank_exceedances(data, 0.6)[:, 0].tolist() == [False, False, True, True, False]

    @given(
        data=arrays(
            np.float64,
            (25, 3),
            elements=st.floats(0.01, 100.0, allow_nan=False),
            unique=True,
        ),
        u=st.floats(0.01, 0.99),
    )
    def test_each_column_passes_its_k_largest(self, data, u):
        k = sum(r / 26.0 > u for r in range(1, 26))
        exceed = _rank_exceedances(data, u)
        for j in range(3):
            assert sorted(data[exceed[:, j], j]) == sorted(data[:, j])[25 - k :]

    @settings(max_examples=300, deadline=None)
    @given(case=_data_and_threshold())
    def test_selection_equals_sorted_ranks(self, case):
        data, u = case
        expected = _rank_uniforms(data) > u
        assert np.array_equal(_rank_exceedances(data, u), expected)

    def test_rank_estimate_does_not_sort(self, ex3_spec, monkeypatch):
        batch = mg.sample_batch(ex3_spec, 2000, seed=3)
        expected = _rank_uniforms(batch.data) > 0.9

        def refuse(*args, **kwargs):
            raise AssertionError("the rank step sorted")

        for name in ("sort", "argsort", "lexsort"):
            monkeypatch.setattr(np, name, refuse)
        report = mg.estimate_tail_dep(batch, 0.9, margins="rank")
        exceed = expected.astype(np.int64)
        assert np.array_equal(report.counts, exceed.T @ exceed)


class TestJointCounts:
    @pytest.mark.parametrize(
        "n, d", [(1, 2), (1, 5), (7, 2), (63, 3), (65, 4), (129, 2), (1001, 17), (3000, 70)]
    )
    def test_equal_the_integer_product(self, n, d):
        # n off multiples of 8 and 64 leaves zero bits past the last row in the packed words
        rng = np.random.default_rng(n * d)
        for share in (0.0, 0.05, 0.5, 1.0):
            exceed = rng.random((n, d)) < share
            ints = exceed.astype(np.int64)
            counts = _joint_counts(exceed)
            assert counts.dtype == np.int64
            assert np.array_equal(counts, ints.T @ ints)


class TestEstimateTailDep:
    def test_hand_computed_known_margins(self):
        # with scale 1, margins exp(-1/x); at u = 0.5 the exceedances are
        # margin 0: rows {0, 2}, margin 1: rows {0, 3}; joint: row 0 only
        data = [[2.0, 2.0], [0.5, 0.5], [3.0, 0.4], [0.6, 4.0]]
        report = mg.estimate_tail_dep(_batch(data), 0.5, margins="known", scale=1.0)
        assert report.counts.tolist() == [[2, 1], [1, 2]]
        assert report.lambda_hat.tolist() == [[1.0, 0.5], [0.5, 1.0]]
        expect_half = mg.Z_95 * math.sqrt(0.5 * 0.5 / 2.0)
        assert report.half_width[0, 1] == pytest.approx(expect_half, abs=1e-15)
        assert report.half_width[0, 0] == 0.0

    def test_undefined_entries_are_nan_not_zero(self):
        # margin 1 never exceeds, so conditioning on it is undefined while
        # conditioning on margin 0 gives an honest zero
        data = [[10.0, 0.1], [20.0, 0.1]]
        report = mg.estimate_tail_dep(_batch(data), 0.9, margins="known", scale=1.0)
        assert math.isnan(report.lambda_hat[0, 1])
        assert report.lambda_hat[1, 0] == 0.0
        assert report.counts[1, 1] == 0
        obj = report.to_json_dict()
        assert obj["lambda_hat"][0][1] is None
        assert obj["lambda_hat"][1][0] == 0.0

    def test_comonotone_batch_has_unit_estimates(self):
        spec = mg.ModelSpec(alpha=[[1.0], [1.0]], C=1.0)
        batch = mg.sample_batch(spec, 5000, seed=3)
        report = mg.estimate_tail_dep(batch, 0.9, margins="known", scale=1.0)
        assert report.lambda_hat[0, 1] == 1.0
        assert report.lambda_hat[1, 0] == 1.0

    def test_rank_margins_give_symmetric_estimates(self, ex3_spec):
        batch = mg.sample_batch(ex3_spec, 4000, seed=17)
        report = mg.estimate_tail_dep(batch, 0.95, margins="rank")
        assert np.array_equal(report.lambda_hat, report.lambda_hat.T)

    def test_counts_bounded_by_exceedance_budget(self, ex3_spec):
        n, u = 4000, 0.95
        batch = mg.sample_batch(ex3_spec, n, seed=17)
        report = mg.estimate_tail_dep(batch, u, margins="rank")
        assert report.counts.max() <= math.floor(n * (1 - u)) + ex3_spec.d

    def test_estimates_within_unit_interval(self, ex3_spec):
        batch = mg.sample_batch(ex3_spec, 2000, seed=29)
        for margins in ("rank", "known"):
            report = mg.estimate_tail_dep(
                batch, 0.9, margins=margins, scale=1.0 if margins == "known" else None
            )
            vals = report.lambda_hat[np.isfinite(report.lambda_hat)]
            assert np.all((vals >= 0.0) & (vals <= 1.0))
            assert np.all(np.diagonal(report.lambda_hat) == 1.0)

    def test_rank_and_known_agree_on_large_batches(self, ex3_spec):
        batch = mg.sample_batch(ex3_spec, 50_000, seed=5)
        rank = mg.estimate_tail_dep(batch, 0.95, margins="rank")
        known = mg.estimate_tail_dep(batch, 0.95, margins="known", scale=1.0)
        gap = np.abs(rank.lambda_hat - known.lambda_hat)
        assert np.all(gap <= 2.0 * known.half_width + 1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        pattern=st.integers(1, 6).flatmap(
            lambda d: arrays(np.bool_, st.tuples(st.integers(1, 300), st.just(d)))
        )
    )
    def test_counts_equal_integer_product(self, pattern):
        # with known margins at scale 1 and u = 0.5, x exceeds iff x > 1/ln 2
        pattern = np.column_stack(
            [pattern, np.zeros(len(pattern), bool), np.ones(len(pattern), bool)]
        )
        batch = _batch(np.where(pattern, 10.0, 0.5))
        report = mg.estimate_tail_dep(batch, 0.5, margins="known", scale=1.0)
        expected = pattern.T.astype(np.int64) @ pattern.astype(np.int64)
        assert report.counts.dtype == np.int64
        assert np.array_equal(report.counts, expected)
        assert report.counts[-2, -2] == 0
        assert report.counts[-1, -1] == len(pattern)

    def test_json_matches_elementwise_reference(self):
        def reference(arr):
            return [[float(v) if np.isfinite(v) else None for v in row] for row in arr]

        lam = np.array([[1.0, np.nan, -0.0], [np.inf, 1.0, 5e-324], [-np.inf, 0.1, 1.0]])
        counts = np.array([[7, 0, 2], [0, 3, 1], [2, 1, 9]], dtype=np.int64)
        report = mg.EstimateReport(
            u=0.9, n=10, margins="rank", lambda_hat=lam, counts=counts,
            half_width=np.zeros((3, 3)),
        )
        obj = report.to_json_dict(exact_finite_u=lam * 2.0, lambda_limit=None)
        assert obj["lambda_hat"] == reference(lam)
        assert obj["lambda_hat"][0][1] is None and obj["lambda_hat"][2][0] is None
        assert json.dumps(obj["lambda_hat"]) == json.dumps(reference(lam))
        assert obj["exact_finite_u"] == reference(lam * 2.0)
        assert obj["counts"] == [[7, 0, 2], [0, 3, 1], [2, 1, 9]]
        assert all(type(v) is int for row in obj["counts"] for v in row)
        assert all(type(v) in (float, type(None)) for row in obj["lambda_hat"] for v in row)

    def test_bad_arguments(self, ex3_spec):
        batch = mg.sample_batch(ex3_spec, 100, seed=1)
        with pytest.raises(DomainError):
            mg.estimate_tail_dep(batch, 1.0)
        with pytest.raises(DomainError):
            mg.estimate_tail_dep(batch, 0.0)
        with pytest.raises(DomainError):
            mg.estimate_tail_dep(batch, 0.9, margins="known")  # scale missing
        with pytest.raises(DomainError):
            mg.estimate_tail_dep(batch, 0.9, margins="parametric")
        with pytest.raises(DomainError):
            mg.estimate_tail_dep(_batch(np.empty((0, 2))), 0.9)

    @pytest.mark.parametrize("margins", ["rank", "known"])
    def test_nan_observation_rejected(self, margins):
        batch = _batch([[1.0, 2.0], [np.nan, 3.0], [2.0, 1.0], [3.0, 4.0]])
        with pytest.raises(DomainError, match="NaN"):
            mg.estimate_tail_dep(batch, 0.5, margins=margins, scale=1.0)

    @pytest.mark.parametrize("value", [0.0, -0.0, -1.0])
    def test_known_margins_need_positive_observations(self, value):
        # exp(-C / x) is 1 for x < 0 and divides by zero at x = 0
        batch = _batch([[1.0, 2.0], [value, 3.0]])
        with pytest.raises(DomainError, match="positive observations"):
            mg.estimate_tail_dep(batch, 0.5, margins="known", scale=1.0)
        assert mg.estimate_tail_dep(batch, 0.5, margins="rank").counts.tolist() == [[1, 0], [0, 1]]


class TestFiniteThresholdCurve:
    def test_independence_value(self):
        for u in (0.5, 0.9, 0.99):
            assert mg.finite_u_tail_dep(u, 0.0) == pytest.approx(1.0 - u, abs=1e-12)

    def test_complete_dependence_value(self):
        for u in (0.5, 0.9, 0.99):
            assert mg.finite_u_tail_dep(u, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_vectorized_over_limits(self):
        lam = np.array([[1.0, 0.2], [0.2, 1.0]])
        out = mg.finite_u_tail_dep(0.99, lam)
        assert out.shape == (2, 2)
        assert out[0, 1] == pytest.approx(mg.finite_u_tail_dep(0.99, 0.2))

    @given(lam=st.floats(0.0, 1.0, allow_nan=False))
    def test_bounded_and_decreasing_toward_limit(self, lam):
        grid = np.linspace(0.05, 0.999, 40)
        vals = np.array([mg.finite_u_tail_dep(u, lam) for u in grid])
        assert np.all(vals <= 1.0 + 1e-12)
        assert np.all(vals >= (1.0 - grid) - 1e-12)
        assert np.all(vals >= lam - 1e-12)
        assert np.all(np.diff(vals) <= 1e-12)  # monotone down toward the limit

    def test_limit_recovered_near_one(self):
        assert mg.finite_u_tail_dep(1 - 1e-9, 0.37) == pytest.approx(0.37, abs=1e-6)

    def test_threshold_domain(self):
        for u in (0.0, 1.0, -1.0, 2.0):
            with pytest.raises(DomainError):
                mg.finite_u_tail_dep(u, 0.5)


class TestTheoreticalVsEmpirical:
    def test_comparison_recovers_reference_model_three(self, ex3_spec):
        batch = mg.sample_batch(ex3_spec, 100_000, seed=31)
        comparisons = mg.theoretical_vs_empirical(ex3_spec, batch)
        assert [c.u for c in comparisons] == list(mg.DEFAULT_U_GRID)
        for comp in comparisons:
            assert np.allclose(comp.lambda_limit, EX3_LAMBDA, atol=1e-12)
            expect = mg.finite_u_tail_dep(comp.u, np.array(EX3_LAMBDA))
            np.fill_diagonal(expect, 1.0)
            assert np.allclose(comp.exact_finite_u, expect, atol=1e-12)
            assert comp.flagged == ()

    def test_estimates_tighten_with_sample_size(self, ex3_spec):
        # consistency at fixed threshold: the 3 half-width band around the
        # exact finite-u value holds while the band itself shrinks
        u = 0.95
        widths = []
        for n in (10_000, 100_000):
            batch = mg.sample_batch(ex3_spec, n, seed=101)
            comp = mg.theoretical_vs_empirical(ex3_spec, batch, u_grid=[u])[0]
            assert comp.flagged == ()
            widths.append(comp.report.half_width[0, 1])
        assert widths[1] < widths[0] / 2.0

    def test_provenance_mismatch_rejected(self, ex3_spec, ex1_spec):
        batch = mg.sample_batch(ex1_spec, 100, seed=1)
        with pytest.raises(ProvenanceError):
            mg.theoretical_vs_empirical(ex3_spec, batch)

    def test_a_batch_without_provenance_is_refused(self, ex3_spec):
        with pytest.raises(ProvenanceError):
            mg.theoretical_vs_empirical(ex3_spec, _batch(np.ones((5, 3))))

    def test_column_count_checked_before_provenance(self, ex3_spec):
        batch = _batch(np.ones((5, 2)))  # and the digest of no spec
        with pytest.raises(ShapeError, match="data has 2 columns but spec has dimension 3"):
            mg.theoretical_vs_empirical(ex3_spec, batch)

    def test_json_serialization_shape(self, ex3_spec):
        batch = mg.sample_batch(ex3_spec, 2000, seed=2)
        comp = mg.theoretical_vs_empirical(ex3_spec, batch, u_grid=[0.9])[0]
        obj = comp.to_json_dict()
        for key in ("u", "n", "lambda_hat", "half_width", "exact_finite_u", "lambda_limit"):
            assert key in obj
        assert obj["u"] == 0.9
        assert obj["n"] == 2000
        assert obj["lambda_limit"][0][1] == pytest.approx(0.2)
        assert obj["flagged_pairs"] == []


class TestKsStatistic:
    def test_hand_value_against_identity_cdf(self):
        got = mg.ks_statistic([0.25, 0.5, 0.75], lambda xs: xs)
        assert got == pytest.approx(0.25, abs=1e-15)

    def test_perfect_fit_has_small_distance(self):
        n = 1000
        xs = (np.arange(1, n + 1) - 0.5) / n
        assert mg.ks_statistic(xs, lambda v: v) == pytest.approx(0.5 / n, abs=1e-12)

    def test_empty_sample_rejected(self):
        with pytest.raises(DomainError):
            mg.ks_statistic([], lambda v: v)
