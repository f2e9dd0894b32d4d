"""Core model: spec validation, closed-form CDF/copula, coefficient matrices."""

from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import mevgen as mg
from mevgen.errors import DomainError, ShapeError, SpecValidationError

from conftest import (
    EX1_ALPHA,
    EX1_C,
    EX1_LAMBDA,
    EX3_ALPHA,
    EX3_C,
    digit_families,
    model_specs,
    ref_digest,
    stored_row_alphas,
    tail_dep_targets,
    unit_points,
    weight_matrices,
)

EPS = np.finfo(np.float64).eps


@st.composite
def edge_specs(draw) -> mg.ModelSpec:
    """Specs of any density holding -0.0, 5e-324, all-zero and all-positive rows."""
    d = draw(st.integers(1, 6))
    big_d = draw(st.integers(0, 12))
    weights = st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e300]),
        st.floats(0.0, 2.0, allow_nan=False),
    )
    alpha = draw(arrays(np.float64, (d, big_d), elements=weights))
    alpha[draw(st.integers(0, d - 1))] = 0.0
    if draw(st.booleans()):
        alpha[draw(st.integers(0, d - 1))] = np.linspace(0.5, 1.5, big_d)
    return mg.ModelSpec(alpha=alpha, C=draw(st.sampled_from([1.0, 2.5, 1e300, 5e-324])))


def _tail_dep_full_sums(spec: mg.ModelSpec) -> np.ndarray:
    """Reference lambda: every row summed over all D columns."""
    d = spec.d
    lam = np.zeros((d, d))
    for s in range(d - 1):
        lam[s, s + 1 :] = np.minimum(spec.alpha[s + 1 :], spec.alpha[s]).sum(axis=1)
    lam = (lam + lam.T) / spec.C
    np.fill_diagonal(lam, 1.0)
    return lam


def _stored(alpha: np.ndarray) -> np.ndarray:
    return (alpha != 0) | np.signbit(alpha)


# Dense references: the spec-wide steps as they were written before the
# stored rows, each scanning a dense alpha, kept to compare bits against.


def _ref_violations(alpha: np.ndarray, c: float) -> list[str]:
    d, big_d = alpha.shape
    violations = []
    if d < 2:
        violations.append(f"dimension d={d} must be at least 2")
    if big_d < 1:
        violations.append(f"factor count D={big_d} must be at least 1")
    tiny = float(np.finfo(np.float64).tiny)
    if not np.isfinite(c) or c < tiny:
        violations.append(
            f"scale constant C={c!r} must be positive, finite and at least "
            f"{tiny!r}, the smallest normal float64"
        )
    elif c > 2.0**970:
        violations.append(f"scale constant C={c!r} exceeds 2**970, above which draws overflow")
    if not np.all(np.isfinite(alpha)):
        for i, j in np.argwhere(~np.isfinite(alpha))[:10]:
            violations.append(f"alpha[{i}][{j}] is not finite")
    else:
        for i, j in np.argwhere(alpha < 0)[:10]:
            violations.append(f"alpha[{i}][{j}] = {float(alpha[i, j])!r} is negative")
        if np.isfinite(c):
            row_sums = alpha.sum(axis=1)
            for i in np.flatnonzero(row_sums > c + mg.FEASIBILITY_TOL)[:10]:
                violations.append(
                    f"row {i} sum {float(row_sums[i])!r} exceeds scale constant C={c!r}"
                )
    return violations


def _ref_tail_dep(alpha: np.ndarray, c: float) -> np.ndarray:
    d, big_d = alpha.shape
    dense = 2 * np.count_nonzero(alpha, axis=1) > big_d
    lam = np.zeros((d, d))
    for s in range(d - 1):
        if dense[s]:
            lam[s, s + 1 :] = np.minimum(alpha[s + 1 :], alpha[s]).sum(axis=1)
            continue
        cols = np.flatnonzero(alpha[s])
        lam[s, s + 1 :] = np.minimum(alpha[s + 1 :, cols], alpha[s, cols]).sum(axis=1)
        if dense[s + 1 :].any():
            k = s + 1 + np.flatnonzero(dense[s + 1 :])
            lam[s, k] = np.minimum(alpha[k], alpha[s]).sum(axis=1)
    lam = (lam + lam.T) / c
    np.fill_diagonal(lam, 1.0)
    return lam


def _ref_json_dict(alpha: np.ndarray, c: float) -> dict:
    stored = _stored(alpha)
    if 4 * np.count_nonzero(stored) <= alpha.size:
        rows, cols = np.nonzero(stored)
        layout = {"i": rows.tolist(), "j": cols.tolist(), "v": alpha[rows, cols].tolist()}
    else:
        layout = alpha.tolist()
    return {"d": alpha.shape[0], "D": alpha.shape[1], "C": c, "alpha": layout}


def _assert_matches_dense_references(spec: mg.ModelSpec, alpha: np.ndarray) -> None:
    """Every spec-wide step of ``spec`` gives the bits its dense reference gives on ``alpha``.

    ``spec.alpha`` is compared last: once built, it would give the row sums.
    """
    c = spec.C
    with np.errstate(all="ignore"):
        assert spec.row_sums().tobytes() == alpha.sum(axis=1).tobytes()
        assert spec.slacks().tobytes() == np.maximum(c - alpha.sum(axis=1), 0.0).tobytes()
    want = _ref_violations(alpha, c)
    try:
        mg.require_valid_spec(spec)
        got = []
    except SpecValidationError as exc:
        got = list(exc.violations)
    assert got == want
    if not want:
        assert mg.tail_dep_matrix(spec).values.tobytes() == _ref_tail_dep(alpha, c).tobytes()
    assert spec.digest() == ref_digest(alpha, c)
    assert json.dumps(spec.to_json_dict()) == json.dumps(_ref_json_dict(alpha, c))
    assert spec.alpha.tobytes() == alpha.tobytes()


def _log_copula_all_margins(spec: mg.ModelSpec, u) -> float:
    """Reference log copula: the shared max taken over every margin."""
    v = -np.log(np.asarray(u, dtype=np.float64))
    shared = (spec.alpha * v[:, None]).max(axis=0).sum()
    own = (spec.slacks() * v).sum()
    return -(shared + own) / spec.C


class TestModelSpec:
    def test_shapes_and_properties(self, ex1_spec):
        assert ex1_spec.d == 3
        assert ex1_spec.D == 2
        assert ex1_spec.alpha.shape == (3, 2)
        assert ex1_spec.C == 2.5

    def test_alpha_is_read_only(self, ex1_spec):
        with pytest.raises(ValueError):
            ex1_spec.alpha[0, 0] = 7.0

    def test_row_sums_and_slacks(self, ex1_spec):
        # sums 2.5, 2.25, 1.5 against C = 2.5
        assert np.allclose(ex1_spec.row_sums(), [2.5, 2.25, 1.5])
        assert np.allclose(ex1_spec.slacks(), [0.0, 0.25, 1.0])

    def test_slack_clamped_at_zero_within_tolerance(self):
        # row sum exceeds C by less than the feasibility tolerance
        spec = mg.ModelSpec(alpha=[[1.0 + 5e-10], [0.5]], C=1.0)
        mg.require_valid_spec(spec)
        assert spec.slacks()[0] == 0.0

    def test_json_round_trip(self, ex1_spec):
        again = mg.ModelSpec.from_json_dict(ex1_spec.to_json_dict())
        assert np.array_equal(again.alpha, ex1_spec.alpha)
        assert again.C == ex1_spec.C

    def test_sparse_file_loads_without_dense_alpha(self):
        # a d = 160 synthesized spec stores 25,440 of 2,035,200 entries (16.3 MB
        # dense): loading it holds the stored entries and a bounded row image
        rng = np.random.default_rng(160)
        lam = np.triu(rng.uniform(0.0, 1.0 / 159, size=(160, 160)), 1)
        spec = mg.synthesize(mg.TailDepMatrix(lam + lam.T + np.eye(160))).spec
        obj = spec.to_json_dict()
        assert isinstance(obj["alpha"], dict)
        tracemalloc.start()
        try:
            again = mg.ModelSpec.from_json_dict(obj)
            mg.require_valid_spec(again)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000, peak
        assert np.array_equal(again.alpha, spec.alpha) and not again.alpha.flags.writeable
        assert again.alpha is again.alpha  # built once, on first use

    def test_owned_read_only_alpha_is_held_as_it_is(self):
        alpha = np.array([[0.5, 0.25], [0.0, 1.0]])
        alpha.flags.writeable = False
        assert mg.ModelSpec(alpha=alpha, C=1.0).alpha is alpha
        view = alpha[:, :1]
        assert not np.shares_memory(mg.ModelSpec(alpha=view, C=1.0).alpha, alpha)

    def test_from_json_rejects_missing_fields(self):
        with pytest.raises(ShapeError):
            mg.ModelSpec.from_json_dict({"d": 2, "C": 1.0, "alpha": [[0.1], [0.1]]})

    def test_from_json_rejects_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            mg.ModelSpec.from_json_dict(
                {"d": 3, "D": 1, "C": 1.0, "alpha": [[0.1], [0.1]]}
            )

    def test_ragged_alpha_rejected(self):
        with pytest.raises(ShapeError):
            mg.ModelSpec(alpha=[[0.1, 0.2], [0.3]], C=1.0)

    def test_digest_distinguishes_specs(self, ex1_spec, ex3_spec):
        assert ex1_spec.digest() != ex3_spec.digest()
        clone = mg.ModelSpec(alpha=EX1_ALPHA, C=EX1_C)
        assert clone.digest() == ex1_spec.digest()

    def test_digest_is_pinned(self, ex3_spec):
        # sidecars store this hex; any change to the hashed bits would make
        # every sidecar already written fail its provenance check
        assert ex3_spec.digest() == (
            "e31fa6e3a297d14a028a824e1253b4206b5122c4ae24b2c5dd064bae32265c4d"
        )

    def test_digest_is_taken_once_and_not_kept_by_a_rescaled_copy(self, ex3_spec, monkeypatch):
        calls, entries = [], mg.ModelSpec._entries
        monkeypatch.setattr(
            mg.ModelSpec, "_entries", lambda self: calls.append(1) or entries(self)
        )
        base = ex3_spec.digest()
        assert ex3_spec.digest() == base and calls == [1]
        rescaled = ex3_spec._with_scale(2 * ex3_spec.C)  # as synthesize rescales
        assert rescaled.digest() == mg.ModelSpec(alpha=EX3_ALPHA, C=2 * EX3_C).digest() != base
        assert ex3_spec._with_scale(ex3_spec.C).digest() == base

    @given(spec=edge_specs(), data=st.data())
    @settings(max_examples=200)
    def test_digest_changes_with_every_input(self, spec, data):
        base = spec.digest()
        bumped_c = np.nextafter(spec.C, np.inf)
        assert mg.ModelSpec(alpha=spec.alpha, C=bumped_c).digest() != base
        if spec.D:
            alpha = spec.alpha.copy()
            i, j = data.draw(st.integers(0, spec.d - 1)), data.draw(st.integers(0, spec.D - 1))
            alpha.view(np.uint64)[i, j] ^= np.uint64(data.draw(st.sampled_from([1, 2**63])))
            assert mg.ModelSpec(alpha=alpha, C=spec.C).digest() != base
        if spec.d != spec.D:  # same stored entries under another shape
            reshaped = mg.ModelSpec(alpha=spec.alpha.reshape(spec.D, spec.d), C=spec.C)
            assert reshaped.digest() != base


class TestStoredRows:
    """The stored rows give every spec-wide step the bits of its dense reference."""

    @given(spec=edge_specs())
    @settings(max_examples=60)
    def test_edge_specs(self, spec):
        alpha = np.array(spec.alpha)
        _assert_matches_dense_references(spec, alpha)
        obj = json.loads(json.dumps(spec.to_json_dict()))
        _assert_matches_dense_references(mg.ModelSpec.from_json_dict(obj), alpha)

    @given(case=stored_row_alphas(), c_scale=st.sampled_from([1.0, 1.25, 0.5]))
    @settings(max_examples=100, deadline=None)
    def test_rows_sharing_zero_to_five_columns(self, case, c_scale):
        # in both layouts: the dense array, and a sparse object listing +0.0
        # entries too, out of row-major order
        alpha, entries = case
        c = float(alpha.sum(axis=1).max()) * c_scale or 1.0
        _assert_matches_dense_references(mg.ModelSpec(alpha=alpha, C=c), alpha)
        obj = {"d": alpha.shape[0], "D": alpha.shape[1], "C": c, "alpha": entries}
        _assert_matches_dense_references(mg.ModelSpec.from_json_dict(obj), alpha)

    @given(case=stored_row_alphas(max_d=5, max_shared=30), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_invalid_entries_are_listed_in_order(self, case, data):
        alpha, entries = case
        bad = data.draw(st.sampled_from([-0.5, -5e-324, np.nan, np.inf, -np.inf]))
        listed = data.draw(st.lists(st.integers(0, len(entries["i"]) - 1), max_size=12))
        for t in listed:
            entries["v"][t] = bad
            alpha[entries["i"][t], entries["j"][t]] = bad
        obj = {"d": alpha.shape[0], "D": alpha.shape[1], "C": 1.0, "alpha": entries}
        for spec in (mg.ModelSpec(alpha=alpha, C=1.0), mg.ModelSpec.from_json_dict(obj)):
            with np.errstate(all="ignore"):
                assert spec.row_sums().tobytes() == alpha.sum(axis=1).tobytes()
            try:
                mg.require_valid_spec(spec)
                got = []
            except SpecValidationError as exc:
                got = list(exc.violations)
            assert got == _ref_violations(alpha, 1.0)

    def test_rows_at_exactly_half_stored(self):
        # 2 * nnz == D keeps a row stored; one more nonzero makes it dense
        rng = np.random.default_rng(21)
        alpha = np.zeros((10, 40))
        for i, row in enumerate(alpha):
            row[rng.permutation(40)[: 20 + (i % 2)]] = rng.uniform(0.01, 1.0, 20 + (i % 2))
        spec = mg.ModelSpec(alpha=alpha, C=25.0)
        assert spec._dense.tolist() == [False, True] * 5
        _assert_matches_dense_references(spec, alpha)
        i, j = np.nonzero(alpha)  # the sparse layout, though over a quarter is stored
        entries = {"i": i.tolist(), "j": j.tolist(), "v": alpha[i, j].tolist()}
        obj = {"d": 10, "D": 40, "C": 25.0, "alpha": entries}
        _assert_matches_dense_references(mg.ModelSpec.from_json_dict(obj), alpha)

    def test_listed_zeros_are_not_stored_and_entries_are_sorted(self):
        obj = {
            "d": 2, "D": 8, "C": 1.0,
            "alpha": {"i": [1, 0, 1, 0], "j": [3, 2, 0, 1], "v": [-0.0, 0.5, 0.0, 5e-324]},
        }
        spec = mg.ModelSpec.from_json_dict(obj)
        assert spec.to_json_dict()["alpha"] == {"i": [0, 0, 1], "j": [1, 2, 3], "v": [5e-324, 0.5, -0.0]}
        assert np.signbit(spec.alpha[1, 3]) and not np.signbit(spec.alpha[1, 0])

    def test_absurd_declared_shape_is_refused_before_allocating(self):
        tracemalloc.start()
        try:
            for d, big_d in ((10**5, 10**5), (10**12, 0), (1, 2**29 + 1)):
                with pytest.raises(ShapeError, match=r"over the limit of 536870912 = 2\*\*29"):
                    mg.ModelSpec.from_json_dict(
                        {"d": d, "D": big_d, "C": 1.0, "alpha": {"i": [0], "j": [0], "v": [1.0]}}
                    )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000, peak
        # the largest synthesized spec the limit admits: d = 1024
        assert 1024 * (1024 * 1023 // 2) <= mg.model._MAX_ENTRIES < 1025 * (1025 * 1024 // 2)


class TestSpecJson:
    @given(spec=st.one_of(edge_specs(), weight_matrices(5, 40).map(lambda a: mg.ModelSpec(a, 2.0))))
    @settings(max_examples=300)
    def test_digest_matches_its_dense_reference(self, spec):
        digest = spec.digest()  # before alpha exists, from the stored entries
        assert digest == ref_digest(spec.alpha, spec.C)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_digest_of_mixed_layouts(self, seed):
        # the block's entries and the stored rows' interleave in row-major order
        rng = np.random.default_rng(seed)
        weights = digit_families(rng, 400)
        k = len(weights)
        alpha = np.stack([w[rng.permutation(400)] for w in weights] * 3)
        alpha[k : 2 * k] *= rng.random((k, 400)) < 0.1  # sparse rows
        alpha[2 * k] = 0.0
        alpha[2 * k + 1, ::3] = -0.0
        for a in (alpha, alpha[:k], alpha[k:]):
            spec = mg.ModelSpec(alpha=a, C=1.0)
            assert spec.digest() == ref_digest(a, 1.0)
            assert spec.alpha.tobytes() == a.tobytes()

    @given(spec=edge_specs())
    @settings(max_examples=300)
    def test_round_trip_is_bitwise_in_both_layouts(self, spec):
        obj = spec.to_json_dict()
        stored = np.count_nonzero((spec.alpha != 0) | np.signbit(spec.alpha))
        assert isinstance(obj["alpha"], dict) == (4 * stored <= spec.alpha.size)
        again = mg.ModelSpec.from_json_dict(json.loads(json.dumps(obj)))
        assert again.alpha.shape == spec.alpha.shape
        assert np.array_equal(again.alpha.view(np.uint64), spec.alpha.view(np.uint64))
        assert again.C == spec.C
        assert again.digest() == spec.digest()

    def test_layout_threshold(self):
        # EX3 stores 6 of 9 entries, dense; 2 of 8 is exactly a quarter, sparse
        assert isinstance(mg.ModelSpec(alpha=EX3_ALPHA, C=1.0).to_json_dict()["alpha"], list)
        alpha = np.zeros((2, 4))
        alpha[0, 1], alpha[1, 3] = 0.5, -0.0
        obj = mg.ModelSpec(alpha=alpha, C=1.0).to_json_dict()
        assert obj["alpha"] == {"i": [0, 1], "j": [1, 3], "v": [0.5, -0.0]}
        alpha[1, 0] = 0.25
        assert isinstance(mg.ModelSpec(alpha=alpha, C=1.0).to_json_dict()["alpha"], list)

    @pytest.mark.parametrize(
        "alpha, words",
        [
            ({"i": [0, 1], "j": [0]}, "must carry i, j, v"),
            ({"i": [0, 1], "j": [0], "v": [0.1, 0.1]}, "differ in length"),
            ({"i": [0, 1], "j": [0, 0], "v": [0.1]}, "differ in length"),
            ({"i": "01", "j": [0, 0], "v": [0.1, 0.1]}, "must be lists"),
            ({"i": [0, 1], "j": [0, 0], "v": 0.1}, "must be lists"),
            ({"i": [0, 1.0], "j": [0, 0], "v": [0.1, 0.1]}, "must be integers"),
            ({"i": [0, True], "j": [0, 0], "v": [0.1, 0.1]}, "must be integers"),
            ({"i": [0, 1], "j": [0, None], "v": [0.1, 0.1]}, "must be integers"),
            ({"i": [0, -1], "j": [0, 0], "v": [0.1, 0.1]}, "outside [0, 2)"),
            ({"i": [0, 2], "j": [0, 0], "v": [0.1, 0.1]}, "outside [0, 2)"),
            ({"i": [0, 1], "j": [0, 1], "v": [0.1, 0.1]}, "outside [0, 1)"),
            ({"i": [1, 1], "j": [0, 0], "v": [0.1, 0.1]}, "more than once"),
            ({"i": [0, 1], "j": [0, 0], "v": [0.1, "abc"]}, "must be numbers"),
            ({"i": [0, 1], "j": [0, 0], "v": [0.1, [0.1]]}, "must be numbers"),
            ({"i": [0, 1], "j": [0, 0], "v": [[0.1], [0.1]]}, "flat list"),
            ({"i": [0, 1], "j": [0, 0], "v": [0.1, "0.5"]}, "v[1]='0.5'"),
            ({"i": [0, 1], "j": [0, 0], "v": [True, 0.1]}, "v[0]=True"),
            ({"i": [0, 1], "j": [0, 0], "v": [0.1, None]}, "v[1]=None"),
            ({"i": [0, 1], "j": [0, 0], "v": [0.1, 10**400]}, "float64 range"),
        ],
    )
    def test_malformed_sparse_alpha_rejected(self, alpha, words):
        with pytest.raises(ShapeError, match="sparse alpha") as err:
            mg.ModelSpec.from_json_dict({"d": 2, "D": 1, "C": 1.0, "alpha": alpha})
        assert words in str(err.value)

    @pytest.mark.parametrize(
        "alpha, words",
        [
            ([[0.1], ["0.5"]], "alpha[1][0]='0.5'"),
            ([[False], [0.1]], "alpha[0][0]=False"),
            ([[0.1], [None]], "alpha[1][0]=None"),
            ([[0.1], [10**400]], "float64 range"),
        ],
    )
    def test_dense_alpha_values_must_be_json_numbers(self, alpha, words):
        with pytest.raises(ShapeError) as err:
            mg.ModelSpec.from_json_dict({"d": 2, "D": 1, "C": 1.0, "alpha": alpha})
        assert words in str(err.value)

    def test_integer_alpha_values_accepted(self):
        spec = mg.ModelSpec.from_json_dict({"d": 2, "D": 1, "C": 2, "alpha": [[1], [0]]})
        assert spec.alpha.tolist() == [[1.0], [0.0]]

    def test_sparse_alpha_needs_nonnegative_dimensions(self):
        with pytest.raises(ShapeError, match="negative dimensions"):
            mg.ModelSpec.from_json_dict(
                {"d": -1, "D": 2, "C": 1.0, "alpha": {"i": [], "j": [], "v": []}}
            )

    @pytest.mark.parametrize(
        "c",
        ["1.5", True, None, [1.0], {"c": 1}, 10**400],
        ids=["string", "bool", "null", "list", "object", "huge-int"],
    )
    def test_scale_must_be_a_json_number(self, c):
        with pytest.raises(ShapeError, match="scale constant"):
            mg.ModelSpec.from_json_dict({"d": 2, "D": 1, "C": c, "alpha": [[0.1], [0.1]]})

    def test_integer_scale_accepted(self):
        spec = mg.ModelSpec.from_json_dict({"d": 2, "D": 1, "C": 2, "alpha": [[0.1], [0.1]]})
        assert spec.C == 2.0 and type(spec.C) is float


def _spec_violations(spec) -> tuple[str, ...]:
    with pytest.raises(SpecValidationError) as err:
        mg.require_valid_spec(spec)
    return err.value.violations


def _target_violations(target) -> tuple[str, ...]:
    with pytest.raises(SpecValidationError) as err:
        mg.require_valid_tail_dep_matrix(target)
    return err.value.violations


class TestValidation:
    def test_valid_spec_passes(self, ex1_spec):
        assert mg.require_valid_spec(ex1_spec) is ex1_spec

    def test_negative_weight_reported(self):
        spec = mg.ModelSpec(alpha=[[-0.1, 0.2], [0.1, 0.2]], C=1.0)
        assert _spec_violations(spec) == ("alpha[0][0] = -0.1 is negative",)

    def test_row_sum_above_scale_reported(self):
        spec = mg.ModelSpec(alpha=[[0.9, 0.9], [0.1, 0.1]], C=1.0)
        assert any("exceeds scale constant" in v for v in _spec_violations(spec))

    def test_nonfinite_weight_reported(self):
        spec = mg.ModelSpec(alpha=[[np.nan, 0.2], [0.1, np.inf]], C=1.0)
        assert sum("not finite" in v for v in _spec_violations(spec)) == 2

    def test_dimension_floor(self):
        violations = _spec_violations(mg.ModelSpec(alpha=[[0.5]], C=1.0))
        assert any("at least 2" in v for v in violations)

    def test_bad_scale_constant(self):
        for c in (0.0, -1.0, np.inf, np.nan):
            assert _spec_violations(mg.ModelSpec(alpha=[[0.1], [0.1]], C=c))

    def test_subnormal_scale_constant_rejected(self):
        # alpha * v underflows for such a scale, breaking the copula
        spec = mg.ModelSpec(alpha=[[5e-324], [5e-324]], C=5e-324)
        assert any("smallest normal float64" in v for v in _spec_violations(spec))

    def test_scale_constant_above_2_to_the_970_rejected(self):
        c = 2.0**970
        mg.require_valid_spec(mg.ModelSpec(alpha=[[c], [c]], C=c))
        above = float(np.nextafter(c, np.inf))
        assert _spec_violations(mg.ModelSpec(alpha=[[1.0], [1.0]], C=above)) == (
            f"scale constant C={above!r} exceeds 2**970, above which draws overflow",
        )

    def test_violations_keep_their_order(self):
        spec = mg.ModelSpec(alpha=[[2.0, -0.5]], C=-1.0)
        assert _spec_violations(spec) == (
            "dimension d=1 must be at least 2",
            "scale constant C=-1.0 must be positive, finite and at least "
            "2.2250738585072014e-308, the smallest normal float64",
            "alpha[0][1] = -0.5 is negative",
            "row 0 sum 1.5 exceeds scale constant C=-1.0",
        )

    def test_require_valid_raises_with_violations(self):
        spec = mg.ModelSpec(alpha=[[2.0], [0.1]], C=1.0)
        with pytest.raises(SpecValidationError) as err:
            mg.require_valid_spec(spec)
        assert err.value.violations


class TestTailDepMatrixType:
    def test_canonical_mirrors_upper_triangle(self):
        lam = mg.TailDepMatrix([[1.0, 0.4], [0.9, 1.0]]).canonical()
        assert lam.values[1, 0] == 0.4
        assert lam.values[0, 1] == 0.4
        assert lam.values[0, 0] == 1.0

    def test_validation_flags_asymmetry_beyond_tolerance(self):
        target = mg.TailDepMatrix([[1.0, 0.4], [0.5, 1.0]])
        assert any("asymmetric" in v for v in _target_violations(target))

    def test_validation_accepts_tolerable_asymmetry(self):
        target = mg.TailDepMatrix([[1.0, 0.4], [0.4 + 1e-10, 1.0]])
        canonical = mg.require_valid_tail_dep_matrix(target)
        assert np.array_equal(canonical.values, [[1.0, 0.4], [0.4, 1.0]])

    def test_validation_flags_bad_diagonal_and_range(self):
        target = mg.TailDepMatrix([[0.9, 1.2], [1.2, 1.0]])
        assert _target_violations(target) == (
            "diagonal entry [0][0] = 0.9 must be 1",
            "entry [0][1] = 1.2 outside [0, 1]",
            "entry [1][0] = 1.2 outside [0, 1]",
        )

    def test_nonfinite_entries_stop_validation(self):
        target = mg.TailDepMatrix([[np.nan]])
        assert _target_violations(target) == (
            "dimension d=1 must be at least 2",
            "matrix contains non-finite entries",
        )

    def test_json_round_trip(self, ex2_target):
        again = mg.TailDepMatrix.from_json_dict(ex2_target.to_json_dict())
        assert np.array_equal(again.values, ex2_target.values)

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            mg.TailDepMatrix([[1.0, 0.2, 0.3], [0.2, 1.0, 0.4]])


class TestClosedForms:
    def test_reference_model_one_tail_dep(self, ex1_spec):
        lam = mg.tail_dep_matrix(ex1_spec).values
        assert np.allclose(lam, EX1_LAMBDA, rtol=0.0, atol=1e-12)

    def test_reference_model_one_extremal(self, ex1_spec):
        eps = mg.extremal_matrix(ex1_spec)
        expect = 2.0 - np.array(EX1_LAMBDA)
        np.fill_diagonal(expect, 1.0)
        assert np.allclose(eps, expect, rtol=0.0, atol=1e-12)

    def test_marginal_cdf_closed_form(self, ex1_spec):
        # every margin is Frechet with the shared scale constant
        for i in range(3):
            assert mg.marginal_cdf(ex1_spec, i, 2.5) == pytest.approx(np.exp(-1.0))
        assert mg.marginal_cdf(ex1_spec, 0, 5.0) == pytest.approx(np.exp(-0.5))

    def test_marginal_cdf_domain(self, ex1_spec):
        with pytest.raises(DomainError):
            mg.marginal_cdf(ex1_spec, 0, 0.0)
        with pytest.raises(DomainError):
            mg.marginal_cdf(ex1_spec, 3, 1.0)

    def test_log_joint_cdf_hand_value(self, ex1_spec):
        # at x = (1, 2, 4): shared part max(0.5, 0.125, 0.25) + max(2, 1, 0.125)
        # = 2.5; own part 0*1 + 0.25*0.5 + 1.0*0.25 = 0.375
        assert mg.log_joint_cdf(ex1_spec, [1.0, 2.0, 4.0]) == pytest.approx(
            -2.875, abs=1e-15
        )
        assert mg.joint_cdf(ex1_spec, [1.0, 2.0, 4.0]) == pytest.approx(
            np.exp(-2.875), abs=1e-15
        )

    def test_log_joint_cdf_exact_scale_one_point(self, ex3_spec):
        # hand value: columns contribute max(0.2,0.2,0) + max(0.1,0,0.2)
        # + max(0,0.8,0.8) = 1.2, slacks contribute 0.7
        assert mg.log_joint_cdf(ex3_spec, [1.0, 1.0, 1.0]) == pytest.approx(
            -1.9, abs=1e-15
        )

    def test_joint_cdf_at_infinity_is_one(self, ex1_spec):
        assert mg.joint_cdf(ex1_spec, [np.inf, np.inf, np.inf]) == 1.0

    @pytest.mark.parametrize(
        "alpha, x",
        [
            ([[0.5, 0.5], [0.5, 0.2]], [1e-320, 1.0]),  # margin 1's slack is 0
            ([[0.0, 1.0], [0.5, 0.2]], [1e-320, 1.0]),  # and so is its first weight
            ([[0.5, 0.5], [0.0, 0.2]], [np.inf, 5e-324]),  # margin 2 has both
        ],
    )
    def test_joint_cdf_is_zero_where_one_over_x_overflows(self, alpha, x):
        # a zero weight or slack times 1/x = inf adds 0, not NaN, and nothing warns
        spec = mg.ModelSpec(alpha=alpha, C=1.0)
        assert mg.log_joint_cdf(spec, x) == -np.inf
        assert mg.joint_cdf(spec, x) == 0.0

    def test_joint_cdf_rejects_bad_points(self, ex1_spec):
        for x in ([0.0, 1.0, 1.0], [1.0, -2.0, 1.0], [np.nan, 1.0, 1.0]):
            with pytest.raises(DomainError):
                mg.log_joint_cdf(ex1_spec, x)
        with pytest.raises(ShapeError):
            mg.log_joint_cdf(ex1_spec, [1.0, 1.0])

    def test_log_copula_hand_value(self, ex1_spec):
        # at u = (1/e, 1/e, 1/e): v = 1, so the exponent is the full
        # coefficient mass (1 + 2 + 1.25) / 2.5 = 1.7
        u = np.exp([-1.0, -1.0, -1.0])
        assert mg.log_copula(ex1_spec, u) == pytest.approx(-1.7, abs=1e-14)

    def test_copula_rejects_bad_points(self, ex1_spec):
        for u in ([0.0, 0.5, 0.5], [0.5, 1.5, 0.5], [np.nan, 0.5, 0.5]):
            with pytest.raises(DomainError):
                mg.log_copula(ex1_spec, u)

    def test_copula_at_ones_is_one(self, ex1_spec):
        assert mg.copula(ex1_spec, [1.0, 1.0, 1.0]) == 1.0

    def test_multivariate_extremal_coeff_pair_matches_matrix(self, ex1_spec):
        eps = mg.extremal_matrix(ex1_spec)
        for s in range(3):
            for k in range(s + 1, 3):
                got = mg.multivariate_extremal_coeff(ex1_spec, [s, k])
                assert got == pytest.approx(eps[s, k], abs=1e-12)

    def test_multivariate_extremal_coeff_full_set(self, ex1_spec):
        # hand value: (max col sums 1 + 2 plus slacks 1.25) / 2.5
        got = mg.multivariate_extremal_coeff(ex1_spec, [0, 1, 2])
        assert got == pytest.approx(1.7, abs=1e-12)

    def test_multivariate_extremal_coeff_bounds_cases(self):
        indep = mg.ModelSpec(alpha=[[0.0], [0.0], [0.0]], C=1.0)
        assert mg.multivariate_extremal_coeff(indep, [0, 1, 2]) == pytest.approx(3.0)
        dep = mg.ModelSpec(alpha=[[2.0], [2.0]], C=2.0)
        assert mg.multivariate_extremal_coeff(dep, [0, 1]) == pytest.approx(1.0)

    def test_multivariate_extremal_coeff_rejects_bad_subsets(self, ex1_spec):
        for subset in ([0], [0, 0], [0, 5], [-1, 1]):
            with pytest.raises(DomainError):
                mg.multivariate_extremal_coeff(ex1_spec, subset)


class TestMatrixStructure:
    @given(spec=model_specs())
    def test_tail_dep_matrix_symmetric_unit_diag_in_range(self, spec):
        lam = mg.tail_dep_matrix(spec).values
        assert np.array_equal(lam, lam.T)
        assert np.all(np.diagonal(lam) == 1.0)
        off = lam[~np.eye(spec.d, dtype=bool)]
        assert np.all((off >= 0.0) & (off <= 1.0 + 1e-12))

    @given(spec=model_specs())
    def test_extremal_is_two_minus_tail_dep(self, spec):
        lam = mg.tail_dep_matrix(spec).values
        eps = mg.extremal_matrix(spec)
        off = ~np.eye(spec.d, dtype=bool)
        assert np.array_equal(eps[off], 2.0 - lam[off])
        assert np.all(np.diagonal(eps) == 1.0)


class TestSparseSums:
    @given(spec=model_specs(max_d=6, max_shared=10), data=st.data())
    @settings(max_examples=200)
    def test_tail_dep_matches_full_sums(self, spec, data):
        # zero out a random share of alpha so rows fall on both sides of 2 * nnz <= D
        keep = data.draw(arrays(np.bool_, spec.alpha.shape))
        spec = mg.ModelSpec(alpha=np.where(keep, spec.alpha, 0.0), C=spec.C)
        got = mg.tail_dep_matrix(spec).values
        ref = _tail_dep_full_sums(spec)
        # two summation orders of D nonnegative terms: at most 2 (D - 1) eps apart, relatively
        assert np.all(np.abs(got - ref) <= 2 * max(spec.D - 1, 1) * EPS * ref)
        sparse = 2 * np.count_nonzero(spec.alpha, axis=1) <= spec.D
        dense_rows = np.flatnonzero(~sparse)
        assert np.array_equal(got[dense_rows], ref[dense_rows])

    def test_dense_row_below_sparse_row_is_bitwise(self):
        # row 0 is sparse, row 1 dense: summed over row 0's 4 nonzero columns
        # lambda[0, 1] is ((0.1 + 0.1) + 0.1) + 0.3, over all 8 it is
        # 0.1 + ((0.1 + 0.1) + 0.3), one ulp apart
        spec = mg.ModelSpec(
            alpha=[[0.1, 0, 0, 0, 0.1, 0.1, 0, 0.3], [0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.3]],
            C=1.0,
        )
        got = mg.tail_dep_matrix(spec).values
        assert np.array_equal(got, _tail_dep_full_sums(spec))

    @given(target=tail_dep_targets(max_d=14))
    @settings(max_examples=100)
    def test_tail_dep_of_synthesized_specs_is_bitwise(self, target):
        spec = mg.synthesize(target).spec
        assert np.array_equal(mg.tail_dep_matrix(spec).values, _tail_dep_full_sums(spec))

    @given(spec=model_specs(max_d=6, max_shared=8), data=st.data())
    @settings(max_examples=200)
    def test_log_copula_matches_all_margin_max(self, spec, data):
        u = data.draw(unit_points(spec.d))
        at_one = data.draw(arrays(np.bool_, (spec.d,)))
        u[at_one] = 1.0
        assert mg.log_copula(spec, u) == _log_copula_all_margins(spec, u)


class TestCopulaProperties:
    @given(data=st.data(), spec=model_specs(max_d=5, max_shared=6))
    @settings(max_examples=150)
    def test_max_stability(self, data, spec):
        u = data.draw(unit_points(spec.d))
        t = data.draw(st.floats(0.05, 10.0, allow_nan=False))
        lhs = t * mg.log_copula(spec, u)
        rhs = mg.log_copula(spec, u**t)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @given(data=st.data(), spec=model_specs(max_d=5, max_shared=6))
    @settings(max_examples=150)
    def test_cdf_factors_through_copula_of_margins(self, data, spec):
        x = data.draw(
            st.lists(
                st.floats(0.05, 50.0, allow_nan=False),
                min_size=spec.d,
                max_size=spec.d,
            )
        )
        x = np.asarray(x)
        u = np.exp(-spec.C / x)
        assert mg.log_joint_cdf(spec, x) == pytest.approx(
            mg.log_copula(spec, u), rel=1e-9, abs=1e-9
        )

    @given(spec=model_specs(max_d=5, max_shared=6))
    @settings(max_examples=150)
    def test_tail_dep_matches_bivariate_copula_diagonal(self, spec):
        # oracle: lambda[s,k] = 2 + log of the pair copula at (1/e, 1/e),
        # evaluated through the full copula with the other margins at 1
        lam = mg.tail_dep_matrix(spec).values
        for s in range(spec.d - 1):
            for k in range(s + 1, spec.d):
                u = np.ones(spec.d)
                u[[s, k]] = np.exp(-1.0)
                oracle = 2.0 + mg.log_copula(spec, u)
                assert lam[s, k] == pytest.approx(oracle, abs=1e-12)

    @given(spec=model_specs(max_d=4))
    @settings(max_examples=100)
    def test_copula_bounded_by_frechet_envelope(self, spec):
        # dependence cannot push the copula above comonotone min(u) or
        # below the independence product
        rng = np.random.default_rng(7)
        for _ in range(5):
            u = rng.uniform(0.05, 1.0, size=spec.d)
            val = mg.copula(spec, u)
            assert val <= np.min(u) + 1e-12
            assert val >= np.prod(u) - 1e-12


class TestPairLogCopulas:
    """``check``'s batched pair points give ``log_copula``'s floats bitwise."""

    @staticmethod
    def _specs():
        rng = np.random.default_rng(11)
        dense = rng.uniform(0.2, 1.0, size=(9, 40))
        dense *= (rng.uniform(0.5, 0.9, size=9) / dense.sum(axis=1))[:, None]
        target = np.eye(7)
        iu = np.triu_indices(7, k=1)
        target[iu] = rng.uniform(0.01, 1.0 / 6, size=iu[0].size)
        target[iu[::-1]] = target[iu]
        synthesized = mg.synthesize(mg.TailDepMatrix(target)).spec
        # rows of eighths summing to 1 exactly: every slack is 0
        eighths = rng.integers(0, 3, size=(6, 8)).astype(float)
        eighths[:, 0] += 8 - eighths.sum(axis=1)
        zero_slack = mg.ModelSpec(alpha=eighths / 8, C=1.0)
        return {"dense-rows": mg.ModelSpec(alpha=dense, C=1.0), "sparse-rows": synthesized,
                "zero-slacks": zero_slack}

    @pytest.mark.parametrize("name", ["dense-rows", "sparse-rows", "zero-slacks"])
    def test_equals_one_call_per_point_bitwise(self, name):
        spec = self._specs()[name]
        if name == "zero-slacks":
            assert not spec.slacks().any()
        for s in range(spec.d - 1):
            expected = []
            for k in range(s + 1, spec.d):
                u = np.ones(spec.d)
                u[[s, k]] = np.exp(-1.0)
                expected.append(mg.log_copula(spec, u))
            batched = mg.model._pair_log_copulas(spec, s)
            assert batched.tobytes() == np.array(expected).tobytes()
