"""Seeded sampling: reproducibility, stream layout, and marginal laws."""

from __future__ import annotations

import hashlib

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


def dyadic_target(d: int = 12) -> mg.TailDepMatrix:
    """Capped target with entries k/128, k in 0..11: the build is exact at
    C = 1, every row sum of alpha is exact, and some pairs are independent."""
    iu = np.triu_indices(d, 1)
    lam = np.eye(d)
    lam[iu] = np.random.default_rng(12).integers(0, 12, size=iu[0].size) / 128
    return mg.TailDepMatrix(lam + np.triu(lam, 1).T)


def all_positive_spec() -> mg.ModelSpec:
    """Every row dense; the largest row sums to C, so it has no slack."""
    alpha = np.random.default_rng(3).uniform(0.1, 1.0, size=(5, 20))
    return mg.ModelSpec(alpha=alpha, C=alpha.sum(axis=1).max())


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
        # rows with 2 * nnz <= D take the gathered factor max, the others the
        # dense one in 64-row blocks; chunk 100 is not a multiple of 64
        cases = {
            "reference model 1": (ex1_spec, 5),
            "reference model 3": (ex3_spec, 1234567),
            "synthesized, sparse rows": (mg.synthesize(dyadic_target()).spec, 11),
            "all positive, dense rows": (all_positive_spec(), 12),
            "all-zero row": (
                mg.ModelSpec(alpha=[[0, 0, 0, 0], [0.3, 0, 0, 0], [0.2, 0.1, 0.4, 0.2]], C=1.0),
                13,
            ),
            "rows on both sides of the rule": (
                mg.ModelSpec(
                    alpha=[
                        [0.1, 0.2, 0.3, 0, 0, 0],  # nnz 3 of 6: sparse, at the bound
                        [0.1, 0.1, 0.1, 0.1, 0, 0],  # nnz 4: dense
                        [0, 0, 0, 0, 0, 0.5],
                    ],
                    C=1.0,
                ),
                14,
            ),
        }
        for label, (spec, seed) in cases.items():
            expect = one_shot_batch(spec, 150, seed)
            for chunk in (1, 7, 100, None):
                got = mg.sample_batch(spec, 150, seed=seed, chunk_size=chunk)
                assert np.array_equal(got.data, expect), (label, chunk)

    @given(
        spec=model_specs(),
        n=st.integers(1, 150),
        seed=st.integers(0, 2**64 - 1),
        chunk=st.one_of(st.none(), st.integers(1, 80)),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_one_shot_stream_oracle_on_random_specs(self, spec, n, seed, chunk):
        got = mg.sample_batch(spec, n, seed=seed, chunk_size=chunk)
        assert np.array_equal(got.data, one_shot_batch(spec, n, seed))

    def test_pinned_digest_of_synthesized_spec(self):
        # pins every bit of the output; the dyadic target keeps C and the
        # slacks exact, so only the stream and the Frechet log enter
        spec = mg.synthesize(dyadic_target()).spec
        assert spec.d == 12 and spec.C == 1.0
        batch = mg.sample_batch(spec, 300, seed=2024)
        assert hashlib.sha256(batch.data.tobytes()).hexdigest() == (
            "a6ecc93ca80dc1d46428fa9d86ac87dda9d885057b1ce213d9e2319ceeec0ffc"
        )

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


class TestSampleChunks:
    def test_chunks_concatenate_to_the_batch(self, ex3_spec):
        batch = mg.sample_batch(ex3_spec, 101, seed=9)
        for chunk in (1, 7, 100, 101, 500):
            blocks = list(mg.sample_chunks(ex3_spec, 101, seed=9, chunk_size=chunk))
            assert [b.shape for b in blocks[:-1]] == [(chunk, 3)] * (len(blocks) - 1)
            assert 1 <= blocks[-1].shape[0] <= chunk
            assert np.array_equal(np.concatenate(blocks), batch.data), chunk

    def test_default_chunk_holds_about_chunk_words(self):
        spec = all_positive_spec()  # d=5, D=20
        rows = mg.sampling.CHUNK_WORDS // 25
        blocks = list(mg.sample_chunks(spec, 2 * rows + 3, seed=1))
        assert [b.shape[0] for b in blocks] == [rows, rows, 3]

    def test_chunks_are_independent_arrays(self, ex3_spec):
        # a caller may keep every chunk: none is a view of a reused buffer
        blocks = list(mg.sample_chunks(ex3_spec, 20, seed=4, chunk_size=5))
        assert not any(np.shares_memory(a, b) for a in blocks for b in blocks if a is not b)
        assert np.array_equal(np.concatenate(blocks), mg.sample_batch(ex3_spec, 20, seed=4).data)

    def test_zero_observations_yield_no_chunks(self, ex3_spec):
        assert list(mg.sample_chunks(ex3_spec, 0, seed=1)) == []

    def test_arguments_checked_before_the_first_chunk(self, ex3_spec):
        # raised by the call itself, with no next() on the iterator
        with pytest.raises(DomainError):
            mg.sample_chunks(ex3_spec, -1, seed=0)
        with pytest.raises(DomainError):
            mg.sample_chunks(ex3_spec, 10, seed=2**64)
        with pytest.raises(DomainError):
            mg.sample_chunks(ex3_spec, 10, seed=0, chunk_size=0)
        with pytest.raises(mg.SpecValidationError):
            mg.sample_chunks(mg.ModelSpec(alpha=[[2.0], [0.1]], C=1.0), 10, seed=0)


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
