"""Seeded sampling: reproducibility, stream layout, and marginal laws."""

from __future__ import annotations

import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mevgen as mg
from mevgen.errors import DomainError, ShapeError

from conftest import dense_row_specs, model_specs, stored_row_alphas


def unit_frechet(u):
    """Oracle: the inverse unit Fréchet CDF, ``-1 / log(u)``."""
    return -1.0 / np.log(u)


def sample_vector(spec: mg.ModelSpec, z, y) -> np.ndarray:
    """Oracle: one observation from given factor values.

    ``X_i = max_j(alpha[i, j] * z_j) v slack_i * y_i``.  Factor terms with a
    zero coefficient contribute 0 to the maximum regardless of the factor
    value, and a margin with zero slack takes no idiosyncratic term.
    """
    zv = np.asarray(z, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    with np.errstate(invalid="ignore"):  # 0 * inf in masked-out positions
        shared = np.where(spec.alpha > 0, spec.alpha * zv[None, :], 0.0).max(axis=1)
        slack = spec.slacks()
        own = np.where(slack > 0, slack * yv, 0.0)
    return np.maximum(shared, own)


def one_shot_batch(spec: mg.ModelSpec, n: int, seed: int) -> np.ndarray:
    """Oracle: generate the whole uniform stream in one pass, no chunking.

    Implements the documented stream contract directly: observation t owns
    words [t*(D+d), (t+1)*(D+d)) of a Philox stream keyed by the seed,
    shared factors first, uniforms on the midpoint lattice, the top one
    (which rounds to 1.0) clamped to 1 - 2**-52.
    """
    words = n * (spec.D + spec.d)
    gen = np.random.Generator(np.random.Philox(key=seed))
    raw = gen.integers(0, 2**64, size=words, dtype=np.uint64)
    u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    u = np.minimum(u, 1.0 - 2.0**-52)
    u = u.reshape(n, spec.D + spec.d)
    z = unit_frechet(u[:, : spec.D])
    y = unit_frechet(u[:, spec.D :])
    return np.array([sample_vector(spec, z[t], y[t]) for t in range(n)])


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


def full_factor_max(alpha: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Reference: every product ``alpha[i, j] * z[t, j]``, then the max over j."""
    return (z[:, None, :] * alpha[None, :, :]).max(axis=2)


def kernel_factor_max(alpha: np.ndarray, z: np.ndarray) -> np.ndarray:
    out = np.empty((z.shape[0], alpha.shape[0]))
    mg.sampling._factor_max(mg.ModelSpec(alpha=alpha, C=1.0))(z, out)
    return out


def bound_fails(alpha: np.ndarray, z: np.ndarray) -> np.ndarray:
    """(observation, row) mask where the documented top-k bound fails.

    ``best`` is the largest product over the k + 1 largest factors of the
    observation and the bound is ``max_j alpha[i, j] * z_(k+1)``; the k + 1
    largest factors must be one set, with no tie at the (k+1)-th.
    """
    top = np.argsort(z, axis=1)[:, -(mg.sampling._TOP_K + 1) :]
    ztop = np.take_along_axis(z, top, axis=1)
    best = (alpha[:, top] * ztop[None]).max(axis=2).T
    return best < np.multiply.outer(ztop[:, 0], alpha.max(axis=1))


class TestUnitFrechet:
    """Hand values that anchor the stream oracle's Fréchet transform."""

    def test_inversion_fixed_points(self):
        assert unit_frechet(np.exp(-1.0)) == pytest.approx(1.0, abs=1e-15)
        assert unit_frechet(np.exp(-0.5)) == pytest.approx(2.0, abs=1e-14)

    def test_vectorized(self):
        u = np.exp([-1.0, -0.25])
        assert np.allclose(unit_frechet(u), [1.0, 4.0], atol=1e-13)

    def test_monotone(self):
        u = np.linspace(0.01, 0.99, 50)
        z = unit_frechet(u)
        assert np.all(np.diff(z) > 0)


class TestLatticeUniforms:
    """Uniforms are ``Generator.random`` plus half a lattice step: the midpoint of the oracle."""

    @pytest.mark.parametrize("k", [0, 1, 2**52 - 1, 2**52, 2**52 + 1, 2**53 - 1])
    def test_half_step_rounds_as_the_midpoint(self, k):
        drawn = np.array([k * 2.0**-53])  # exact: k < 2**53
        drawn += mg.sampling._HALF_STEP
        midpoint = (np.array([float(k)]) + 0.5) * 2.0**-53
        assert drawn.tobytes() == midpoint.tobytes()

    def test_random_takes_the_top_53_bits_of_each_word(self):
        words = np.random.Philox(key=9).random_raw(1000)
        drawn = np.random.Generator(np.random.Philox(key=9)).random(1000)
        assert drawn.tobytes() == ((words >> np.uint64(11)).astype(np.float64) * 2.0**-53).tobytes()

    def test_the_top_word_draws_as_the_word_below_it(self, monkeypatch):
        # its midpoint rounds to 1.0, whose log is 0: unclamped, every factor
        # is -inf, and a zero weight in a dense row makes it NaN
        class Constant:  # a Generator whose every word is k
            def __init__(self, bit_gen):
                pass

            def random(self, size):
                return np.full(size, k * 2.0**-53)

        monkeypatch.setattr(np.random, "Generator", Constant)
        spec = mg.ModelSpec(alpha=[[0.0, 0.5, 0.5], [0.5, 0.25, 0.1]], C=1.0)
        chunks = []
        for k in (2**53 - 1, 2**53 - 2):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                chunks.append(mg.sampling._chunker(spec, seed=0)(0, 3))
        assert np.all(np.isfinite(chunks[0]))
        assert chunks[0].tobytes() == chunks[1].tobytes()


class TestSampleVector:
    """Hand values that anchor the stream oracle's factor max."""

    def test_reference_model_one_hand_value(self, ex1_spec):
        # slacks are (0, 0.25, 1); with all latents at 1 the shared factor
        # with weight 2 dominates margins 1-2, margin 3 ties at 1
        x = sample_vector(ex1_spec, z=[1.0, 1.0], y=[1.0, 1.0, 1.0])
        assert x.tolist() == [2.0, 2.0, 1.0]

    def test_reference_model_three_hand_value(self, ex3_spec):
        # row 0 slack 0.7 wins via y=4; rows 1-2 driven by the 0.8 factor
        x = sample_vector(ex3_spec, z=[1.0, 2.0, 3.0], y=[4.0, 5.0, 6.0])
        assert np.allclose(x, [2.8, 2.4, 2.4], atol=1e-15)

    def test_independence_spec_passes_y_through(self):
        spec = mg.ModelSpec(alpha=np.zeros((3, 1)), C=1.0)
        y = [0.3, 7.0, 2.0]
        assert sample_vector(spec, z=[5.0], y=y).tolist() == y

    def test_complete_dependence_spec_ignores_y(self):
        spec = mg.ModelSpec(alpha=[[2.0], [2.0]], C=2.0)
        x = sample_vector(spec, z=[3.0], y=[100.0, 0.001])
        assert x.tolist() == [6.0, 6.0]

    def test_zero_weight_never_multiplies_infinity(self):
        spec = mg.ModelSpec(alpha=[[0.0, 1.0], [1.0, 0.0]], C=1.0)
        x = sample_vector(spec, z=[np.inf, 2.0], y=[1.0, 1.0])
        assert x[0] == 2.0
        assert np.isinf(x[1])

    @given(spec=model_specs(max_d=4, max_shared=5), data=st.data())
    @settings(max_examples=100)
    def test_matches_scalar_reimplementation(self, spec, data):
        pos = st.floats(1e-6, 1e6, allow_nan=False)
        z = data.draw(st.lists(pos, min_size=spec.D, max_size=spec.D))
        y = data.draw(st.lists(pos, min_size=spec.d, max_size=spec.d))
        got = sample_vector(spec, z, y)
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

    @given(
        spec=dense_row_specs(),
        n=st.integers(1, 150),
        seed=st.integers(0, 2**64 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_one_shot_stream_oracle_on_dense_specs(self, spec, n, seed):
        # rows past the 2 * nnz > D rule, and the bounded top-k path once
        # there are at least 18 of them and D > 36
        expect = one_shot_batch(spec, n, seed)
        for chunk in (1, 7, 100, None):
            got = mg.sample_batch(spec, n, seed=seed, chunk_size=chunk)
            assert np.array_equal(got.data, expect), chunk

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
        assert (batch.spec_fingerprint, batch.spec_digest) == ("", ex3_spec.digest())

    def test_peak_memory_is_the_data_plus_one_chunk(self, ex3_spec):
        # besides the result, only the chunk being drawn may be alive: no
        # copy of the batch and no array of the chunk before it
        rows = mg.sampling.CHUNK_WORDS // (ex3_spec.D + ex3_spec.d)
        mg.sample_batch(ex3_spec, 1000, seed=1)  # imports and caches outside the trace
        tracemalloc.start()
        try:
            chunk = next(mg.sample_chunks(ex3_spec, rows, seed=1))
            one_chunk = tracemalloc.get_traced_memory()[1]
            del chunk
            tracemalloc.reset_peak()
            batch = mg.sample_batch(ex3_spec, 200_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= batch.data.nbytes + one_chunk + 2**16

    def test_owned_read_only_data_is_taken_as_is(self):
        data = np.ones((2, 3))
        data.flags.writeable = False
        assert mg.SampleBatch(data=data, seed=0, spec_fingerprint="").data is data

    @pytest.mark.parametrize("kind", ["writable", "float32", "read-only view", "list"])
    def test_other_data_is_copied(self, kind):
        source = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        data = {
            "writable": source,
            "float32": source.astype(np.float32),
            "read-only view": source[:, :2],
            "list": source.tolist(),
        }[kind]
        if kind != "writable":
            source.flags.writeable = False
            if isinstance(data, np.ndarray):
                data.flags.writeable = False
        batch = mg.SampleBatch(data=data, seed=0, spec_fingerprint="")
        assert not np.shares_memory(batch.data, source)
        assert batch.data.dtype == np.float64 and not batch.data.flags.writeable
        assert np.array_equal(batch.data, np.asarray(data, dtype=np.float64))

    def test_data_must_be_2d(self):
        with pytest.raises(ShapeError):
            mg.SampleBatch(data=np.zeros(3), seed=0, spec_fingerprint="")

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


class TestDenseFactorMax:
    """The top-k bound of dense rows against the full product, on given z."""

    def test_both_fallbacks_are_exact(self):
        # 69 observations (a full block and a partial one), D = 60, 23 rows.
        # Everywhere, the k + 1 largest factors sit in columns 0..8 and the
        # largest is 1e6; every fifth observation its largest is only 108.
        rng = np.random.default_rng(8)
        n, big_d = 69, 60
        z = rng.uniform(0.5, 1.0, size=(n, big_d))
        z[:, 1:9] = np.arange(100.0, 108.0)
        z[:, 0] = 1e6
        low = np.arange(n) % 5 == 0
        z[low, 0] = 108.0
        z[:, 59] = 50.0
        alpha = rng.uniform(0.2, 1.0, size=(23, big_d))
        alpha[16] = 1.0
        alpha[16, 59] = 1e5  # 5e6 from column 59, which is never in the top
        for r, col in zip(range(17, 23), range(50, 56)):
            alpha[r] = 1.0
            alpha[r, col] = 20.0  # 1800 from column col where it is 90
            z[low, col] = 90.0
        fails = bound_fails(alpha, z)
        block = mg.sampling._BLOCK_ROWS
        for lo in range(0, n, block):
            part = fails[lo : lo + block]
            whole = 4 * part.sum(axis=0) > part.shape[0]
            assert whole.tolist() == [False] * 16 + [True] + [False] * 6
            pairs = part[:, ~whole]
            assert pairs[:, 16:].all(axis=1).tolist() == low[lo : lo + block].tolist()
        assert fails[:block, fails[:block].sum(axis=0) * 4 <= block].sum() > block  # 2+ groups
        expect = full_factor_max(alpha, z)
        assert expect[:, 16].tolist() == [5e6] * n
        assert (expect[low, 17:] == 1800.0).all()
        assert np.array_equal(kernel_factor_max(alpha, z), expect)

    def test_ties_at_the_bound(self):
        rng = np.random.default_rng(9)
        big_d = 50
        z = rng.uniform(1.0, 2.0, size=(40, big_d))
        for t in range(0, 40, 2):
            # 8 distinct largest factors, then 5 tied at the (k+1)-th place
            cols = rng.permutation(big_d)
            z[t, cols[:8]] = np.arange(1000.0, 1008.0)
            z[t, cols[8:13]] = 500.0
        z[1] = 3.0  # every factor equal: best equals the bound
        z[3, : big_d // 2] = 7.0
        alpha = rng.uniform(0.2, 1.0, size=(20, big_d))
        alpha[:4] = 0.5  # all weights equal
        for r in range(4, 20):
            alpha[r, rng.integers(big_d)] = 3.0  # sometimes on a tied column
        assert np.array_equal(kernel_factor_max(alpha, z), full_factor_max(alpha, z))

    def test_factors_near_the_largest_the_stream_gives(self):
        # the largest uniform is 1 - 2**-52, so the largest factor is
        # -1 / log(1 - 2**-52), about 4.5e15; near it, and near 1.8e16, a
        # larger magnitude, neighbouring floats and weights like 1/3 round
        # to equal products from distinct factors
        largest = -1.0 / np.log(mg.sampling._TOP_UNIFORM)
        assert 4.5e15 < largest < 4.51e15
        rng = np.random.default_rng(10)
        for top in (-1.0 / np.log1p(-(2.0**-54)), largest):
            steps = np.nextafter(top, 0.0) - top  # one ulp below, negative
            z = top + steps * rng.integers(0, 40, size=(70, 45))
            alpha = rng.choice([1 / 3, 2 / 3, 1.0, 0.1, np.nextafter(1.0, 0.0)], size=(18, 45))
            assert np.array_equal(kernel_factor_max(alpha, z), full_factor_max(alpha, z))

    @given(spec=dense_row_specs(), n=st.integers(1, 130), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_full_product_on_heavy_tailed_z(self, spec, n, seed):
        z = -1.0 / np.log(np.random.default_rng(seed).random((n, spec.D)))
        assert np.array_equal(kernel_factor_max(spec.alpha, z), full_factor_max(spec.alpha, z))


class TestStoredRowFactorMax:
    @given(case=stored_row_alphas(), n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_kernel_of_a_sparse_file_matches_full_product(self, case, n, seed):
        # the kernel built from the stored rows of a file, -0.0 weights and
        # listed +0.0 entries included, gives the full product's maxima
        alpha, entries = case
        spec = mg.ModelSpec.from_json_dict(
            {"d": alpha.shape[0], "D": alpha.shape[1], "C": 1.0, "alpha": entries}
        )
        z = -1.0 / np.log(np.random.default_rng(seed).random((n, spec.D)))
        out = np.empty((n, spec.d))
        mg.sampling._factor_max(spec)(z, out)
        assert np.array_equal(out, full_factor_max(alpha, z))


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

    def test_chunk_words_are_bounded(self, ex3_spec, monkeypatch):
        # 6 words per observation: chunks of 2 observations fit in 12 words
        monkeypatch.setattr(mg.sampling, "MAX_CHUNK_WORDS", 12)
        assert len(list(mg.sample_chunks(ex3_spec, 5, seed=1, chunk_size=2))) == 3
        with pytest.raises(DomainError, match="more than the limit of 12"):
            mg.sample_chunks(ex3_spec, 5, seed=1, chunk_size=3)
        # the rows actually drawn count: a large chunk size for a small n is fine
        assert len(list(mg.sample_chunks(ex3_spec, 2, seed=1, chunk_size=10**12))) == 1
        # one observation per chunk is always allowed
        monkeypatch.setattr(mg.sampling, "MAX_CHUNK_WORDS", 4)
        assert len(list(mg.sample_chunks(ex3_spec, 3, seed=1, chunk_size=1))) == 3
        with pytest.raises(DomainError):
            mg.sample_chunks(ex3_spec, 3, seed=1, chunk_size=2)

    @pytest.mark.parametrize("start", [0, 1, 2, 3, 37, 398])
    def test_chunk_at_any_start_matches_the_stream_oracle(self, start):
        # 25 words per observation: the starts cover word offsets 0, 1, 2, 3 mod 4
        spec = all_positive_spec()
        assert start * (spec.D + spec.d) % 4 == start % 4
        chunk = mg.sampling._chunker(spec, 21)(start, 3)
        assert np.array_equal(chunk, one_shot_batch(spec, start + 3, seed=21)[start:])

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
