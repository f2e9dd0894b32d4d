"""Seeded sampling: reproducibility, stream layout, and marginal laws."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mevgen as mg
from mevgen.errors import DomainError, ShapeError

from conftest import model_specs


def one_shot_batch(spec: mg.ModelSpec, n: int, seed: int) -> np.ndarray:
    """Oracle: generate the whole uniform stream in one pass, no chunking.

    Implements the documented stream contract directly: observation t owns
    words [t*(D+d), (t+1)*(D+d)) of a Philox stream keyed by the seed,
    shared factors first, uniforms on the open midpoint lattice.
    """
    words = n * (spec.D + spec.d)
    gen = np.random.Generator(np.random.Philox(key=seed))
    raw = gen.integers(0, 2**64, size=words, dtype=np.uint64)
    u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    u = u.reshape(n, spec.D + spec.d)
    z = -1.0 / np.log(u[:, : spec.D])
    y = -1.0 / np.log(u[:, spec.D :])
    return np.array([mg.sample_vector(spec, z[t], y[t]) for t in range(n)])


class TestUnitFrechet:
    def test_inversion_fixed_points(self):
        assert mg.sample_unit_frechet(np.exp(-1.0)) == pytest.approx(1.0, abs=1e-15)
        assert mg.sample_unit_frechet(np.exp(-0.5)) == pytest.approx(2.0, abs=1e-14)

    def test_vectorized(self):
        u = np.exp([-1.0, -0.25])
        assert np.allclose(mg.sample_unit_frechet(u), [1.0, 4.0], atol=1e-13)

    def test_monotone(self):
        u = np.linspace(0.01, 0.99, 50)
        z = mg.sample_unit_frechet(u)
        assert np.all(np.diff(z) > 0)

    def test_domain(self):
        for u in (0.0, 1.0, -0.5, 1.5, np.nan):
            with pytest.raises(DomainError):
                mg.sample_unit_frechet(u)


class TestSampleVector:
    def test_reference_model_one_hand_value(self, ex1_spec):
        # slacks are (0, 0.25, 1); with all latents at 1 the shared factor
        # with weight 2 dominates margins 1-2, margin 3 ties at 1
        x = mg.sample_vector(ex1_spec, z=[1.0, 1.0], y=[1.0, 1.0, 1.0])
        assert x.tolist() == [2.0, 2.0, 1.0]

    def test_reference_model_three_hand_value(self, ex3_spec):
        # row 0 slack 0.7 wins via y=4; rows 1-2 driven by the 0.8 factor
        x = mg.sample_vector(ex3_spec, z=[1.0, 2.0, 3.0], y=[4.0, 5.0, 6.0])
        assert np.allclose(x, [2.8, 2.4, 2.4], atol=1e-15)

    def test_independence_spec_passes_y_through(self):
        spec = mg.ModelSpec(alpha=np.zeros((3, 1)), C=1.0)
        y = [0.3, 7.0, 2.0]
        assert mg.sample_vector(spec, z=[5.0], y=y).tolist() == y

    def test_complete_dependence_spec_ignores_y(self):
        spec = mg.ModelSpec(alpha=[[2.0], [2.0]], C=2.0)
        x = mg.sample_vector(spec, z=[3.0], y=[100.0, 0.001])
        assert x.tolist() == [6.0, 6.0]

    def test_zero_weight_never_multiplies_infinity(self):
        spec = mg.ModelSpec(alpha=[[0.0, 1.0], [1.0, 0.0]], C=1.0)
        x = mg.sample_vector(spec, z=[np.inf, 2.0], y=[1.0, 1.0])
        assert x[0] == 2.0
        assert np.isinf(x[1])

    def test_shape_and_domain_errors(self, ex1_spec):
        with pytest.raises(ShapeError):
            mg.sample_vector(ex1_spec, z=[1.0], y=[1.0, 1.0, 1.0])
        with pytest.raises(ShapeError):
            mg.sample_vector(ex1_spec, z=[1.0, 1.0], y=[1.0, 1.0])
        with pytest.raises(DomainError):
            mg.sample_vector(ex1_spec, z=[1.0, -1.0], y=[1.0, 1.0, 1.0])

    @given(spec=model_specs(max_d=4, max_shared=5), data=st.data())
    @settings(max_examples=100)
    def test_matches_scalar_reimplementation(self, spec, data):
        pos = st.floats(1e-6, 1e6, allow_nan=False)
        z = data.draw(st.lists(pos, min_size=spec.D, max_size=spec.D))
        y = data.draw(st.lists(pos, min_size=spec.d, max_size=spec.d))
        got = mg.sample_vector(spec, z, y)
        slack = spec.slacks()
        for i in range(spec.d):
            terms = [a * zi for a, zi in zip(spec.alpha[i], z) if a > 0]
            if slack[i] > 0:
                terms.append(slack[i] * y[i])
            assert got[i] == max(terms, default=0.0)


class TestSampleBatch:
    def test_same_seed_same_batch(self, ex3_spec):
        b1 = mg.sample_batch(ex3_spec, 500, seed=42)
        b2 = mg.sample_batch(ex3_spec, 500, seed=42)
        assert np.array_equal(b1.data, b2.data)

    def test_different_seeds_differ(self, ex3_spec):
        b1 = mg.sample_batch(ex3_spec, 500, seed=42)
        b2 = mg.sample_batch(ex3_spec, 500, seed=43)
        assert not np.array_equal(b1.data, b2.data)

    @pytest.mark.parametrize("chunk", [1, 3, 17, 100, None])
    def test_chunking_never_changes_output(self, ex3_spec, chunk):
        base = mg.sample_batch(ex3_spec, 101, seed=9)
        chunked = mg.sample_batch(ex3_spec, 101, seed=9, chunk_size=chunk)
        assert np.array_equal(base.data, chunked.data)

    def test_matches_one_shot_stream_oracle(self, ex1_spec, ex3_spec):
        for spec, seed in ((ex1_spec, 5), (ex3_spec, 1234567)):
            expect = one_shot_batch(spec, 64, seed)
            got = mg.sample_batch(spec, 64, seed=seed, chunk_size=7)
            assert np.array_equal(got.data, expect)

    def test_prefix_stability(self, ex3_spec):
        # growing n extends the batch without changing earlier rows
        short = mg.sample_batch(ex3_spec, 50, seed=3)
        long = mg.sample_batch(ex3_spec, 75, seed=3)
        assert np.array_equal(long.data[:50], short.data)

    def test_empty_batch(self, ex3_spec):
        batch = mg.sample_batch(ex3_spec, 0, seed=1)
        assert batch.data.shape == (0, 3)
        assert batch.n == 0

    def test_all_entries_positive_finite(self, ex1_spec):
        batch = mg.sample_batch(ex1_spec, 5000, seed=11)
        assert np.all(batch.data > 0)
        assert np.all(np.isfinite(batch.data))

    def test_batch_is_read_only_and_carries_provenance(self, ex3_spec):
        batch = mg.sample_batch(ex3_spec, 10, seed=99)
        with pytest.raises(ValueError):
            batch.data[0, 0] = 1.0
        assert batch.seed == 99
        assert batch.spec_fingerprint == ex3_spec.fingerprint()

    def test_bad_arguments(self, ex3_spec):
        with pytest.raises(DomainError):
            mg.sample_batch(ex3_spec, -1, seed=0)
        with pytest.raises(DomainError):
            mg.sample_batch(ex3_spec, 10, seed=-1)
        with pytest.raises(DomainError):
            mg.sample_batch(ex3_spec, 10, seed=2**64)
        for chunk in (0, -1):
            with pytest.raises(DomainError):
                mg.sample_batch(ex3_spec, 10, seed=0, chunk_size=chunk)

    def test_invalid_spec_rejected(self):
        bad = mg.ModelSpec(alpha=[[2.0], [0.1]], C=1.0)
        with pytest.raises(mg.SpecValidationError):
            mg.sample_batch(bad, 10, seed=0)

    def test_comonotone_spec_gives_equal_coordinates(self):
        spec = mg.ModelSpec(alpha=[[1.5], [1.5], [1.5]], C=1.5)
        batch = mg.sample_batch(spec, 1000, seed=21)
        assert np.array_equal(batch.data[:, 0], batch.data[:, 1])
        assert np.array_equal(batch.data[:, 0], batch.data[:, 2])

    def test_stream_alignment_is_independent_of_slack(self):
        # margin 0 equals the shared factor in both specs; the second spec
        # has an active idiosyncratic term on margin 1, which must not
        # shift the shared stream
        pure = mg.ModelSpec(alpha=[[1.0], [1.0]], C=1.0)
        mixed = mg.ModelSpec(alpha=[[1.0], [0.5]], C=1.0)
        b1 = mg.sample_batch(pure, 200, seed=8)
        b2 = mg.sample_batch(mixed, 200, seed=8)
        assert np.array_equal(b1.data[:, 0], b2.data[:, 0])


class TestMarginalAndDependenceLaws:
    @pytest.mark.parametrize("seed", [2024, 77])
    def test_margins_are_frechet_with_shared_scale(self, ex1_spec, seed):
        batch = mg.sample_batch(ex1_spec, 20_000, seed=seed)
        for i in range(ex1_spec.d):
            dist = mg.ks_statistic(
                batch.data[:, i], lambda xs: np.exp(-ex1_spec.C / xs)
            )
            assert dist < 0.02

    def test_independence_spec_has_no_tail_dependence(self):
        spec = mg.ModelSpec(alpha=np.zeros((2, 1)), C=1.0)
        batch = mg.sample_batch(spec, 200_000, seed=13)
        report = mg.estimate_tail_dep(batch, 0.99, margins="known", scale=1.0)
        assert report.lambda_hat[0, 1] < 0.02
        assert report.lambda_hat[1, 0] < 0.02
