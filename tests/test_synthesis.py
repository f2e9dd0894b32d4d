"""Construction of specs realizing a prescribed tail-dependence target."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mevgen as mg
from mevgen.errors import DomainError, InfeasibleTargetError, SpecValidationError

from conftest import (
    EX2_ACHIEVED,
    EX2_ALPHA,
    EX2_C,
    EX2_LAMBDA,
    EX3_ALPHA,
    EX3_LAMBDA,
    tail_dep_targets,
)


def _pair_columns(d: int) -> dict[tuple[int, int], int]:
    """Column of each pair s < k: lexicographic, as ``np.triu_indices`` lists them."""
    s, k = np.triu_indices(d, 1)
    return {(int(a), int(b)): col for col, (a, b) in enumerate(zip(s, k))}


class TestMinimumScale:
    def test_reference_model_two(self, ex2_target):
        assert mg.synthesize(ex2_target).c_min == 2.0

    def test_reference_model_three(self, ex3_target):
        assert mg.synthesize(ex3_target).c_min == 1.0

    def test_identity_target_needs_no_scale(self):
        assert mg.synthesize(mg.TailDepMatrix(np.eye(5))).c_min == 0.0

    @given(target=tail_dep_targets(max_d=6), data=st.data())
    @settings(max_examples=150)
    def test_monotone_in_every_entry(self, target, data):
        base = mg.synthesize(target).c_min
        d = target.d
        s = data.draw(st.integers(0, d - 2))
        k = data.draw(st.integers(s + 1, d - 1))
        bump = data.draw(st.floats(0.0, 1.0))
        lam = np.array(target.values)
        lam[s, k] = lam[k, s] = min(1.0, lam[s, k] + bump)
        assert mg.synthesize(mg.TailDepMatrix(lam)).c_min >= base


class TestBuildAlpha:
    def test_reference_model_two_matrix_exact(self, ex2_target):
        assert mg.synthesize(ex2_target).spec.alpha.tolist() == EX2_ALPHA

    def test_reference_model_three_matrix_exact(self, ex3_target):
        assert mg.synthesize(ex3_target).spec.alpha.tolist() == EX3_ALPHA

    def test_d2_places_the_coefficient_in_both_rows(self):
        target = mg.TailDepMatrix([[1.0, 0.35], [0.35, 1.0]])
        assert mg.synthesize(target).spec.alpha.tolist() == [[0.35], [0.35]]

    @given(target=tail_dep_targets(max_d=7))
    @settings(max_examples=150)
    def test_disjoint_support_and_row_sums(self, target):
        lam = target.canonical().values
        d = target.d
        a = mg.synthesize(target).spec.alpha
        col_of_pair = _pair_columns(d)
        assert a.shape == (d, d * (d - 1) // 2)
        assert np.all(a >= 0.0)
        assert np.all(a.sum(axis=1) <= d - 1 + 1e-12)
        for s in range(d - 1):
            for k in range(s + 1, d):
                both = np.flatnonzero((a[s] > 0) & (a[k] > 0))
                if lam[s, k] > 0:
                    assert both.tolist() == [col_of_pair[s, k]]
                else:
                    assert both.size == 0


class TestSynthesize:
    def test_reference_model_two_with_explicit_scale(self, ex2_target):
        result = mg.synthesize(ex2_target, c=EX2_C)
        assert result.spec.alpha.tolist() == EX2_ALPHA
        assert result.spec.C == 2.0
        assert result.c_min == 2.0
        assert not result.exact
        assert np.allclose(
            result.achieved.values, EX2_ACHIEVED, rtol=0.0, atol=1e-12
        )

    def test_reference_model_three_is_exact_by_default(self, ex3_target):
        result = mg.synthesize(ex3_target)
        assert result.c_used == 1.0
        assert result.c_min == 1.0
        assert result.exact
        assert np.array_equal(result.achieved.values, np.array(EX3_LAMBDA))

    def test_identity_target_yields_independence(self):
        result = mg.synthesize(mg.TailDepMatrix(np.eye(3)))
        assert np.all(result.spec.alpha == 0.0)
        assert result.c_used == 1.0
        assert np.array_equal(result.achieved.values, np.eye(3))

    def test_rounding_above_one_still_builds_at_scale_one(self):
        # every entry at the entrywise bound 1/(d-1): c_min rounds to 1 + ulp
        d = 10
        lam = np.full((d, d), 1.0 / (d - 1))
        np.fill_diagonal(lam, 1.0)
        target = mg.TailDepMatrix(lam)
        result = mg.synthesize(target)
        assert result.c_used == 1.0
        assert result.exact
        assert np.array_equal(result.achieved.values, target.canonical().values)

    def test_infeasible_scale_carries_minimum(self, ex2_target):
        with pytest.raises(InfeasibleTargetError) as err:
            mg.synthesize(ex2_target, c=1.0)
        assert err.value.c_min == 2.0
        assert "2" in str(err.value)

    def test_scale_at_minimum_is_accepted_and_valid(self, ex2_target):
        result = mg.synthesize(ex2_target, c=mg.synthesize(ex2_target).c_min)
        assert mg.validate_spec(result.spec).ok

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(DomainError):
            mg.synthesize(mg.TailDepMatrix(np.eye(2)), c=0.0)

    def test_invalid_target_rejected(self):
        with pytest.raises(SpecValidationError):
            mg.synthesize(mg.TailDepMatrix([[1.0, 1.4], [1.4, 1.0]]))

    def test_lower_triangle_is_ignored(self):
        # upper triangle authoritative: garbage below the diagonal is fine
        lam = np.array([[1.0, 0.3], [0.2999999999, 1.0]])
        result = mg.synthesize(mg.TailDepMatrix(lam))
        assert result.achieved.values[1, 0] == pytest.approx(0.3, abs=1e-15)

    @given(target=tail_dep_targets(max_d=8))
    # c_min = 1 + 1e-9, at the tolerance: the scale is still exactly 1
    @example(target=mg.TailDepMatrix([[1.0, 0.0, 1e-9], [0.0, 1.0, 1.0], [1e-9, 1.0, 1.0]]))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_achieves_scaled_target(self, target):
        result = mg.synthesize(target)
        lam = target.canonical().values
        assert result.c_used == (1.0 if result.c_min <= 1.0 + mg.FEASIBILITY_TOL else result.c_min)
        assert mg.validate_spec(result.spec).ok
        off = ~np.eye(target.d, dtype=bool)
        assert np.allclose(
            result.achieved.values[off],
            lam[off] / result.c_used,
            rtol=0.0,
            atol=1e-12,
        )

    @given(target=tail_dep_targets(max_d=8, capped=True))
    @settings(max_examples=150)
    def test_capped_targets_build_exactly(self, target):
        result = mg.synthesize(target)
        assert result.c_min <= 1.0 + mg.FEASIBILITY_TOL
        assert result.c_used == 1.0
        assert result.exact
        lam = target.canonical().values
        off = ~np.eye(target.d, dtype=bool)
        assert np.allclose(result.achieved.values[off], lam[off], rtol=0.0, atol=1e-12)


class TestExactnessReport:
    def test_reference_model_three_flags(self, ex3_target):
        result = mg.synthesize(ex3_target)  # scale 1 suffices though 0.8 > 1/2
        assert result.exact
        assert result.c_min == 1.0

    def test_reference_model_two_flags(self, ex2_target):
        result = mg.synthesize(ex2_target)
        assert not result.exact
        assert result.c_min == 2.0

    def test_entrywise_boundary_case(self):
        lam = np.full((3, 3), 0.5)
        np.fill_diagonal(lam, 1.0)
        result = mg.synthesize(mg.TailDepMatrix(lam))
        assert result.exact
        assert result.c_min == 1.0


class TestResultSerialization:
    def test_json_shape(self, ex2_target):
        result = mg.synthesize(ex2_target, c=2.0)
        obj = result.to_json_dict()
        assert set(obj) == {"spec", "achieved", "exact", "c_used", "c_min"}
        assert obj["spec"]["alpha"] == EX2_ALPHA
        assert obj["exact"] is False
        assert obj["c_used"] == 2.0
        again = mg.ModelSpec.from_json_dict(obj["spec"])
        assert np.array_equal(again.alpha, result.spec.alpha)
