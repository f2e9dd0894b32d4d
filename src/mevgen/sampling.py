"""Seeded Monte Carlo generation of model observations.

Each observation t consumes D + d uniforms from a counter-based Philox
stream keyed by the seed: first the shared factors Z_1..Z_D, then the
idiosyncratic factors Y_1..Y_d.  Observation t owns words
``[t * (D + d), (t + 1) * (D + d))`` of the stream, so batches are bitwise
reproducible from ``(spec, n, seed)`` no matter how generation is chunked,
and chunks could be produced concurrently without changing the output.

Uniforms are mapped to the open interval (0, 1) by taking the top 53 bits
of each 64-bit word and centering on the lattice midpoint,
``(k + 0.5) * 2**-53``, so log(0) and division by zero are impossible in
the Fréchet inversion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .errors import DomainError, ShapeError
from .model import ModelSpec, require_valid_spec

_U64_FULL = 2**64
_LATTICE_SCALE = 2.0**-53


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """A block of observations plus the provenance that produced it.

    ``data`` is an (n, d) read-only array of strictly positive values;
    ``spec_fingerprint`` ties the batch to the generating spec so later
    comparisons can refuse foreign data.
    """

    data: np.ndarray
    seed: int
    spec_fingerprint: str

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeError(f"batch data must be 2-D, got ndim={arr.ndim}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]


def sample_unit_frechet(u):
    """Map uniforms in the open interval (0, 1) to unit Fréchet variates.

    Inverse-CDF transform ``-1 / log(u)``; strictly increasing in u.
    Accepts scalars or arrays.
    """
    arr = np.asarray(u, dtype=np.float64)
    if not np.all((arr > 0.0) & (arr < 1.0)):
        raise DomainError("uniform input must lie strictly inside (0, 1)")
    out = -1.0 / np.log(arr)
    return float(out) if np.isscalar(u) or arr.ndim == 0 else out


def sample_vector(spec: ModelSpec, z, y) -> np.ndarray:
    """One deterministic observation from given factor values.

    ``X_i = max_j(alpha[i, j] * z_j) v slack_i * y_i``.  Factor terms with a
    zero coefficient contribute 0 to the maximum regardless of the factor
    value, and a margin with zero slack takes no idiosyncratic term.
    """
    zv = np.asarray(z, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    if zv.shape != (spec.D,):
        raise ShapeError(f"z must have shape ({spec.D},), got {zv.shape}")
    if yv.shape != (spec.d,):
        raise ShapeError(f"y must have shape ({spec.d},), got {yv.shape}")
    if not (np.all(zv > 0) and np.all(yv > 0)):
        raise DomainError("factor values must be positive")
    with np.errstate(invalid="ignore"):  # 0 * inf in masked-out positions
        shared = np.where(spec.alpha > 0, spec.alpha * zv[None, :], 0.0).max(axis=1)
        slack = spec.slacks()
        own = np.where(slack > 0, slack * yv, 0.0)
    return np.maximum(shared, own)


def _open_uniforms(seed: int, word_offset: int, count: int) -> np.ndarray:
    """``count`` open-interval uniforms starting at a word offset of the stream."""
    bit_gen = Philox(key=seed)
    blocks, rem = divmod(word_offset, 4)  # Philox emits 4 words per counter step
    if blocks:
        bit_gen.advance(blocks)
    gen = Generator(bit_gen)
    if rem:
        gen.integers(0, _U64_FULL, size=rem, dtype=np.uint64)
    raw = gen.integers(0, _U64_FULL, size=count, dtype=np.uint64)
    return ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * _LATTICE_SCALE


def sample_batch(
    spec: ModelSpec, n: int, seed: int, chunk_size: int | None = None
) -> SampleBatch:
    """Generate n independent observations of the model.

    Parameters
    ----------
    spec : ModelSpec
        Must validate; raises ``SpecValidationError`` otherwise.
    n : int
        Observation count; 0 yields an empty batch.
    seed : int
        Stream key in ``[0, 2**64)``.  Identical (spec, n, seed) triples
        produce bitwise identical batches; distinct seeds give independent
        streams.
    chunk_size : int, optional
        Observations generated per internal block, at least 1; output is
        identical for every choice.  Defaults to a memory-friendly size.
    """
    require_valid_spec(spec)
    n = int(n)
    if n < 0:
        raise DomainError(f"observation count must be nonnegative, got {n}")
    seed = int(seed)
    if not 0 <= seed < _U64_FULL:
        raise DomainError("seed must be a 64-bit nonnegative integer")

    d, big_d = spec.d, spec.D
    words_per_obs = big_d + d
    if chunk_size is None:
        chunk_size = max(1, 4_000_000 // words_per_obs)
    elif chunk_size < 1:
        raise DomainError(f"chunk size must be positive, got {chunk_size}")

    slack = spec.slacks()
    own_margins = np.flatnonzero(slack > 0)
    data = np.empty((n, d))
    for start in range(0, n, chunk_size):
        stop = min(start + chunk_size, n)
        m = stop - start
        u = _open_uniforms(seed, start * words_per_obs, m * words_per_obs)
        u = u.reshape(m, words_per_obs)
        z = -1.0 / np.log(u[:, :big_d])
        y = -1.0 / np.log(u[:, big_d:])
        for i in range(d):
            data[start:stop, i] = (z * spec.alpha[i]).max(axis=1)
        for i in own_margins:
            np.maximum(
                data[start:stop, i], slack[i] * y[:, i], out=data[start:stop, i]
            )
    return SampleBatch(data=data, seed=seed, spec_fingerprint=spec.fingerprint())
