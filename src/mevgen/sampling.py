"""Seeded Monte Carlo generation of model observations, streamed in chunks.

Each observation t consumes D + d uniforms from a counter-based Philox
stream keyed by the seed: first the shared factors Z_1..Z_D, then the
idiosyncratic factors Y_1..Y_d.  Observation t owns words
``[t * (D + d), (t + 1) * (D + d))`` of the stream, so batches are bitwise
reproducible from ``(spec, n, seed)`` no matter how generation is chunked.

Philox is counter-based (Salmon et al. 2011, "Parallel random numbers: as
easy as 1, 2, 3"): a chunk starting at observation ``start`` begins at word
``w = start * (D + d)``, and a fresh generator reaches it by advancing its
counter ``w // 4`` steps (one step gives four words) and discarding
``w % 4`` words, without drawing the words before it.  So any chunk can be
drawn on its own, in any process, and the output never depends on which
process drew it or in which order: ``sample`` draws and formats them in
the fork map of :mod:`mevgen.fileio`.

:func:`sample_chunks` is the one generation loop: it maps that per-chunk
function over the chunk starts, about ``CHUNK_WORDS`` words per chunk, so
memory is O(chunk) whatever n is: a caller that writes each chunk out before
asking for the next never holds the whole batch.  :func:`sample_batch`
collects the chunks into one (n, d) array.

Uniforms are the lattice midpoints ``(k + 0.5) * 2**-53`` of the top 53
bits k of each 64-bit word, so log(0) is impossible in the Fréchet
inversion.  ``Generator.random`` gives ``k * 2**-53`` from one word per
value, and adding ``2**-54`` to it rounds the same real number,
``(k + 0.5) * 2**-53``, to the same double (scaling by a power of two does
not change how a value rounds, and no value is subnormal).  At k = 2**53 - 1
that midpoint rounds to 1.0, whose log is 0, so the uniforms are clamped to
1 - 2**-52, the value k = 2**53 - 2 rounds to: they lie in (0, 1 - 2**-52],
and a unit Fréchet value is at most about 2**52.  Every step after the
draw runs in place on the chunk's array of uniforms.

The factor max ``max_j alpha[i, j] * Z_j`` reads the spec's stored rows
(see :mod:`mevgen.model`) once per :func:`sample_chunks` call.  A stored
row takes the max over its nonzero columns only, so it costs O(n * nnz_i)
instead of O(n * D); for d >= 4 every row of a synthesized spec is stored.
The dense rows go through blocks of observations small enough to stay in
cache, bounded first by each observation's largest factors where that pays;
:func:`_factor_max` gives why every branch yields the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import DomainError, ShapeError
from .model import ModelSpec, require_valid_spec

_U64_FULL = 2**64
_HALF_STEP = 2.0**-54  # half the lattice step 2**-53 of the uniforms
_TOP_UNIFORM = 1.0 - 2.0**-52  # the largest uniform below 1.0 that a midpoint rounds to

#: Stream words per default chunk, 2**19: its uniforms take 4 MiB, small
#: enough to stay mostly in cache between the in-place steps, and enough
#: work that the per-chunk Python steps cost little.
CHUNK_WORDS = 2**19

#: Most stream words a chunk may hold, 2**26 (its uniforms take 512 MiB); a
#: ``chunk_size`` whose chunks would hold more is refused before anything is
#: allocated, though a chunk of one observation is always allowed.
MAX_CHUNK_WORDS = 2**26

#: Observations per block of the dense factor max; one reused block of
#: products (``_BLOCK_ROWS`` x D) stays in cache where a whole chunk would not.
_BLOCK_ROWS = 64

#: A dense row's max is bounded through each observation's ``_TOP_K + 1``
#: largest factors; see :func:`_factor_max`.
_TOP_K = 8


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """A block of observations plus the provenance that produced it.

    ``data`` is an (n, d) read-only array of strictly positive values.
    ``spec_digest``, when known, is :meth:`ModelSpec.digest` of the
    generating spec with ``spec_fingerprint``, so later comparisons can
    refuse foreign data.  The fingerprint is "" but for a batch read beside
    an old sidecar, which carries the spec's fingerprint.  A read-only
    float64 array that owns its memory is taken as it is; anything else is
    copied, so a caller handing over an array it no longer writes saves the
    copy.
    """

    data: np.ndarray
    seed: int
    spec_fingerprint: str = ""
    spec_digest: str | None = None

    def __post_init__(self):
        arr = self.data
        owned = type(arr) is np.ndarray and arr.flags.owndata and not arr.flags.writeable
        if not (owned and arr.dtype == np.float64):
            arr = np.array(arr, dtype=np.float64, order="C")
            arr.flags.writeable = False
        if arr.ndim != 2:
            raise ShapeError(f"batch data must be 2-D, got ndim={arr.ndim}")
        object.__setattr__(self, "data", arr)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]


def _factor_max(spec: ModelSpec):
    """Kernel writing ``out[:, i] = max_j alpha[i, j] * z[:, j]`` for a chunk z.

    A stored row (see :mod:`mevgen.model`) gathers its nonzero columns (a
    row with none gives 0); the dense rows go ``_BLOCK_ROWS`` observations
    at a time through one reused buffer.

    With at least ``2 * (_TOP_K + 1)`` dense rows and ``D > 4 * (_TOP_K + 1)``,
    dense rows are bounded before any full product.  For each observation t
    of a block, ``np.argpartition`` at ``D - _TOP_K - 1`` finds its
    ``_TOP_K + 1`` largest factors; the first of them is ``z_(k+1)``, the
    (k+1)-th largest, and every factor left out is at most ``z_(k+1)``.  For
    dense row i, ``best`` is the largest product over those columns, and it
    is the row's max when ``best >= amax_i * z_(k+1)``, with ``amax_i =
    max_j alpha[i, j]``.  This is exact, not approximate: products of
    nonnegative floats round correctly and monotonically, so each product
    left out satisfies ``fl(alpha[i, j] * z_j) <= fl(amax_i * z_(k+1)) <=
    best``, and a max does not depend on evaluation order.  Where the bound
    fails, the full product is taken: over the whole block for a row that
    fails on more than a quarter of its observations, otherwise for each
    failing (observation, row) pair, ``_BLOCK_ROWS`` pairs at a time.  Either
    way the output is bitwise that of the full product.  With fewer dense
    rows or a smaller D, the selection would cost more than it saves, and
    every dense row takes the full product.

    Temporaries are O(block): the candidate products go through the reused
    buffer in groups of ``D // (_TOP_K + 1)`` rows, and the bounds of a block
    take the size of its output.
    """
    big_d, b = spec.D, spec._bounds
    gathered = []
    for i in np.flatnonzero(~spec._dense).tolist():
        cols, weights = spec._cols[b[i] : b[i + 1]], spec._vals[b[i] : b[i + 1]]
        nonzero = weights != 0  # a -0.0 weight is stored, but its products are not gathered
        gathered.append((i, cols[nonzero], weights[nonzero]))
    dense, alpha = np.flatnonzero(spec._dense), spec._block  # row r of alpha is row dense[r]
    buf = np.empty((_BLOCK_ROWS, big_d)) if dense.size else None
    # the selection costs about as much as a few rows of full products, so
    # it pays only when many rows share it and D is well above _TOP_K + 1
    if len(dense) >= 2 * (_TOP_K + 1) and big_d > 4 * (_TOP_K + 1):
        rows = dense
        weights_t = np.ascontiguousarray(alpha.T)  # (D, rows): row j holds column j
        amax = weights_t.max(axis=0)
        best = np.empty((_BLOCK_ROWS, rows.size))
        # rows per candidate group, so that one group's products fit in buf
        group = big_d // (_TOP_K + 1)
    else:
        rows = None

    def full(block, dst, r):
        prod = buf[: block.shape[0]]
        np.multiply(block, alpha[r], out=prod)
        prod.max(axis=1, out=dst[:, dense[r]])

    def bounded(block, dst):
        b = block.shape[0]
        top = np.argpartition(block, big_d - _TOP_K - 1, axis=1)[:, big_d - _TOP_K - 1 :]
        ztop = np.take_along_axis(block, top, axis=1)  # column 0 holds z_(k+1)
        # candidates ordered (rank, observation, row): the max over ranks is
        # then an elementwise max of _TOP_K + 1 contiguous (b, rows) slabs
        cols, zcol = top.T.ravel(), ztop.T.reshape(-1, 1)
        for g in range(0, rows.size, group):
            w = weights_t[:, g : g + group]
            cand = buf.reshape(-1)[: cols.size * w.shape[1]].reshape(cols.size, w.shape[1])
            np.take(w, cols, axis=0, out=cand, mode="clip")
            cand *= zcol
            cand.reshape(_TOP_K + 1, b, w.shape[1]).max(axis=0, out=best[:b, g : g + group])
        fail = best[:b] < np.multiply.outer(ztop[:, 0], amax)
        dst[:, rows] = best[:b]
        if not fail.any():
            return
        whole = 4 * fail.sum(axis=0) > b
        for r in np.flatnonzero(whole):
            full(block, dst, r)
        fail[:, whole] = False
        ti, ri = np.nonzero(fail)
        for lo in range(0, ri.size, _BLOCK_ROWS):
            t, r = ti[lo : lo + _BLOCK_ROWS], ri[lo : lo + _BLOCK_ROWS]
            prod = buf[: r.size]
            np.multiply(alpha[r], block[t], out=prod)
            dst[t, rows[r]] = prod.max(axis=1)

    def kernel(z: np.ndarray, out: np.ndarray) -> None:
        for i, cols, weights in gathered:
            # products are >= 0, so the initial 0 changes only an empty row
            out[:, i] = (z[:, cols] * weights).max(axis=1, initial=0.0)
        if not dense.size:
            return
        for lo in range(0, z.shape[0], _BLOCK_ROWS):
            block = z[lo : lo + _BLOCK_ROWS]
            dst = out[lo : lo + block.shape[0]]
            if rows is not None:
                bounded(block, dst)
            else:
                for r in range(dense.size):
                    full(block, dst, r)

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
        never the values.  A chunk of ``min(chunk_size, n)`` observations
        may hold at most ``MAX_CHUNK_WORDS`` stream words (or be one
        observation), else ``DomainError``.  Defaults to
        ``CHUNK_WORDS // (D + d)``.
    """
    chunk, starts = _chunk_plan(spec, n, seed, chunk_size)
    return map(chunk, starts)


def _chunk_plan(
    spec: ModelSpec, n: int, seed: int, chunk_size: int | None
) -> tuple[Callable[[int], np.ndarray], range]:
    """Check the arguments of :func:`sample_chunks`; return ``(chunk, starts)``.

    ``chunk(start)`` draws observations ``start .. min(start + chunk_size,
    n) - 1`` and ``starts`` is the range of chunk starts.  The kernel and
    slacks that ``chunk`` reads are built here, once, so that processes
    forked afterwards share them.
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
    elif min(chunk_size, n) > max(1, MAX_CHUNK_WORDS // words_per_obs):
        raise DomainError(
            f"chunk size {chunk_size} takes {min(chunk_size, n) * words_per_obs} stream "
            f"words per chunk, more than the limit of {MAX_CHUNK_WORDS}"
        )
    chunk_size = int(chunk_size)
    draw = _chunker(spec, seed)
    return (lambda start: draw(start, min(chunk_size, n - start))), range(0, n, chunk_size)


def _chunker(spec: ModelSpec, seed: int) -> Callable[[int, int], np.ndarray]:
    """The per-chunk function ``chunk(start, m)`` of the ``(spec, seed)`` stream.

    ``chunk(start, m)`` returns observations ``start .. start + m - 1`` as a
    new (m, d) array.  It positions a fresh Philox generator at word
    ``w = start * (D + d)``, so it depends on no chunk drawn before it.
    """
    # here only: importing numpy.random costs every run ~13 ms
    from numpy.random import Generator, Philox

    d, big_d = spec.d, spec.D
    slack = spec.slacks()
    own_margins = np.flatnonzero(slack > 0)
    factor_max = _factor_max(spec)

    def chunk(start: int, m: int) -> np.ndarray:
        w = start * (big_d + d)
        bit_gen = Philox(key=seed)
        bit_gen.advance(w // 4)  # each counter step gives four words
        bit_gen.random_raw(w % 4)
        u = Generator(bit_gen).random(m * (big_d + d)).reshape(m, big_d + d)
        u += _HALF_STEP
        np.minimum(u, _TOP_UNIFORM, out=u)  # k = 2**53 - 1 rounds to 1.0
        np.log(u, out=u)
        np.divide(-1.0, u, out=u)  # unit Frechet: Z in the first D columns, then Y
        out = np.empty((m, d))
        factor_max(u[:, :big_d], out)
        for i in own_margins:
            np.maximum(out[:, i], slack[i] * u[:, big_d + i], out=out[:, i])
        return out

    return chunk


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
        del block  # freed before the next chunk is drawn
    data.flags.writeable = False
    return SampleBatch(data=data, seed=int(seed), spec_digest=spec.digest())
