"""Seeded Monte Carlo generation of model observations, streamed in chunks.

Each observation t consumes D + d uniforms from a counter-based Philox
stream keyed by the seed: first the shared factors Z_1..Z_D, then the
idiosyncratic factors Y_1..Y_d.  Observation t owns words
``[t * (D + d), (t + 1) * (D + d))`` of the stream, so batches are bitwise
reproducible from ``(spec, n, seed)`` no matter how generation is chunked,
and chunks could be produced concurrently without changing the output.

:func:`sample_chunks` is the one generation loop.  It keeps one Philox
generator and draws each chunk's words from it in order, about
``CHUNK_WORDS`` words at a time, so memory is O(chunk) whatever n is: a
caller that writes each chunk out before asking for the next (as the
``sample`` subcommand does) never holds the whole batch.  :func:`sample_batch`
collects the chunks into one (n, d) array.

Uniforms are mapped to the open interval (0, 1) by taking the top 53 bits
of each 64-bit word and centering on the lattice midpoint,
``(k + 0.5) * 2**-53``, so log(0) and division by zero are impossible in
the Fréchet inversion.  Every step after the one float conversion runs in
place on the chunk's array of uniforms.

The factor max ``max_j alpha[i, j] * Z_j`` follows the structure of alpha,
read once per :func:`sample_chunks` call.  A row with at most half of its D
entries nonzero takes the max over its nonzero columns only, so sparse rows
cost O(n * sum_i nnz_i) instead of O(n * d * D); a synthesized spec has at
most d - 1 nonzeros of d(d - 1)/2 per row, so for d >= 4 every row is sparse.
The other rows take the full product over blocks of observations small
enough to stay in cache.  Both branches form the same products and a max
does not depend on evaluation order, so the output is bitwise the same
whichever branch a row takes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np
from numpy.random import Philox

from .errors import DomainError, ShapeError
from .model import ModelSpec, require_valid_spec

_U64_FULL = 2**64
_LATTICE_SCALE = 2.0**-53

#: Stream words per default chunk, 2**19: its uniforms take 4 MiB, small
#: enough to stay mostly in cache between the in-place steps, and enough
#: work that the per-chunk Python steps cost little.
CHUNK_WORDS = 2**19

#: Observations per block of the dense factor max; one reused block of
#: products (``_BLOCK_ROWS`` x D) stays in cache where a whole chunk would not.
_BLOCK_ROWS = 64


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


def _factor_max(alpha: np.ndarray):
    """Kernel writing ``out[:, i] = max_j alpha[i, j] * z[:, j]`` for a chunk z.

    Each row is classified once here: a row with ``2 * nnz <= D`` gathers its
    nonzero columns (a row with none gives 0); the others multiply in full,
    ``_BLOCK_ROWS`` observations at a time into one reused buffer.
    """
    big_d = alpha.shape[1]
    gathered, dense = [], []
    for i, row in enumerate(alpha):
        cols = np.flatnonzero(row)
        if 2 * cols.size <= big_d:
            gathered.append((i, cols, row[cols]))
        else:
            dense.append(i)
    buf = np.empty((_BLOCK_ROWS, big_d)) if dense else None

    def kernel(z: np.ndarray, out: np.ndarray) -> None:
        for i, cols, weights in gathered:
            # products are >= 0, so the initial 0 changes only an empty row
            out[:, i] = (z[:, cols] * weights).max(axis=1, initial=0.0)
        if not dense:
            return
        for lo in range(0, z.shape[0], _BLOCK_ROWS):
            block = z[lo : lo + _BLOCK_ROWS]
            prod = buf[: block.shape[0]]
            for i in dense:
                np.multiply(block, alpha[i], out=prod)
                prod.max(axis=1, out=out[lo : lo + block.shape[0], i])

    return kernel


def sample_chunks(
    spec: ModelSpec, n: int, seed: int, chunk_size: int | None = None
) -> Iterator[np.ndarray]:
    """Generate n independent observations of the model, chunk by chunk.

    Returns an iterator of (m, d) float64 arrays, at most ``chunk_size``
    rows each, whose rows in order are observations 0..n-1; each array is
    new, so a caller may keep it.  Arguments are checked here, before the
    first chunk is asked for.

    Parameters
    ----------
    spec : ModelSpec
        Must validate; raises ``SpecValidationError`` otherwise.
    n : int
        Observation count; 0 yields no chunks.
    seed : int
        Stream key in ``[0, 2**64)``.  Identical (spec, n, seed) triples
        produce bitwise identical observations; distinct seeds give
        independent streams.
    chunk_size : int, optional
        Observations per chunk, at least 1; it sets the memory used and
        never the values.  Defaults to ``CHUNK_WORDS // (D + d)``.
    """
    require_valid_spec(spec)
    n = int(n)
    if n < 0:
        raise DomainError(f"observation count must be nonnegative, got {n}")
    seed = int(seed)
    if not 0 <= seed < _U64_FULL:
        raise DomainError("seed must be a 64-bit nonnegative integer")
    words_per_obs = spec.D + spec.d
    if chunk_size is None:
        chunk_size = max(1, CHUNK_WORDS // words_per_obs)
    elif chunk_size < 1:
        raise DomainError(f"chunk size must be positive, got {chunk_size}")
    return _chunks(spec, n, seed, int(chunk_size))


def _chunks(spec: ModelSpec, n: int, seed: int, chunk_size: int) -> Iterator[np.ndarray]:
    d, big_d = spec.d, spec.D
    slack = spec.slacks()
    own_margins = np.flatnonzero(slack > 0)
    factor_max = _factor_max(spec.alpha)
    bit_gen = Philox(key=seed)
    for start in range(0, n, chunk_size):
        m = min(chunk_size, n - start)
        raw = bit_gen.random_raw(m * (big_d + d))  # the next words of the stream
        raw >>= np.uint64(11)
        u = raw.astype(np.float64).reshape(m, big_d + d)
        del raw
        u += 0.5
        u *= _LATTICE_SCALE
        np.log(u, out=u)
        np.divide(-1.0, u, out=u)  # unit Frechet: Z in the first D columns, then Y
        out = np.empty((m, d))
        factor_max(u[:, :big_d], out)
        for i in own_margins:
            np.maximum(out[:, i], slack[i] * u[:, big_d + i], out=out[:, i])
        yield out


def sample_batch(
    spec: ModelSpec, n: int, seed: int, chunk_size: int | None = None
) -> SampleBatch:
    """Generate n independent observations of the model as one batch.

    Takes the arguments of :func:`sample_chunks` and holds all n rows;
    the batch is bitwise the same for every ``chunk_size``.
    """
    chunks = sample_chunks(spec, n, seed, chunk_size)
    data = np.empty((int(n), spec.d))
    start = 0
    for block in chunks:
        data[start : start + block.shape[0]] = block
        start += block.shape[0]
    return SampleBatch(data=data, seed=int(seed), spec_fingerprint=spec.fingerprint())
