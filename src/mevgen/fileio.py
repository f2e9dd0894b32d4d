"""JSON and CSV persistence for specs, matrices, and sample batches.

CSV layout: header ``x1,...,xd``, one observation per row, values written
with 17 significant digits so float64 round-trips exactly.  Every sample
file gets a sidecar ``<path>.meta.json`` carrying the observation count,
the seed, the fingerprint of the generating spec and its digest
(:meth:`ModelSpec.digest`); readers use them to refuse cross-spec
comparisons.  Sidecars written before the digest existed lack it and are
still read.

:func:`write_csv_blocks` streams: it takes an iterable of (m, d) blocks,
such as the chunks of :func:`mevgen.sampling.sample_chunks`, and formats
and writes each block before it asks for the next, so memory is O(block).
Rows are formatted by one function, :func:`_csv_pieces`: one ``%`` over a
row format repeated once per row, at most ``_FORMAT_VALUES`` values per
call, which gives the bytes of ``np.savetxt(fmt="%.17g", delimiter=",")``.
A target that is absent or a regular file is written as a temporary file
next to it and moved into place only when complete; a symlink, pipe or
device is written through directly.  The old sidecar is removed first and
the new one written last, so a sidecar never describes other data than the
CSV beside it.

The ``sample`` subcommand draws and formats its chunks in parallel with
:func:`_chunk_texts`: one forked worker per CPU in the affinity mask (at
most one per chunk), each mapping the same per-chunk function and the same
:func:`_csv_pieces` as the serial path.  Chunk i goes to worker i mod w and
the parent reads the texts back in chunk order, so the bytes never depend
on the number of workers.  At most two chunks per worker are sent ahead of
the writer, so memory stays O(workers x chunk) however slow the target is.
With one CPU, one chunk or no ``fork``, the chunks are mapped in process.

JSON files are written as one compact line with sorted keys, by a single
``json.dumps`` call: that is the C encoder, while ``json.dump`` to a file
and any ``indent`` run the pure-Python one.  Readers take any layout.
Spec files hold alpha sparse or dense, as :meth:`ModelSpec.to_json_dict`
chooses; :meth:`ModelSpec.from_json_dict` reads both.

CSV reading has a fast path and a fallback.  After the header check,
``np.loadtxt`` parses the whole body; its result is kept when it has d
columns and every value is finite.  Otherwise, or when it raises, the file
is read again line by line, which accepts exactly the same files and is the
one source of the ``CsvFormatError`` line messages.
"""

from __future__ import annotations

import json
import os
import stat
import warnings
from contextlib import contextmanager
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import CsvFormatError, ShapeError
from .model import ModelSpec, TailDepMatrix
from .sampling import SampleBatch
from .synthesis import SynthesisResult

#: Values formatted per ``%`` call when writing CSV; a large block is split
#: so that its text and Python floats stay a few MB.
_FORMAT_VALUES = 2**16

_HEX_DIGITS = frozenset("0123456789abcdef")


@contextmanager
def _utf8_text(path):
    """Open ``path`` as UTF-8 text; a decode error names the file at its end."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        reason = f"{exc.reason} in {path}"
        raise UnicodeDecodeError(exc.encoding, exc.object, exc.start, exc.end, reason) from None


def load_json(path) -> dict:
    with _utf8_text(path) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ShapeError(f"{path}: expected a JSON object at top level")
    return obj


def dump_json(obj: dict | list, path) -> None:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def load_spec(path) -> ModelSpec:
    """Read a spec file; a ``synth`` result file is unwrapped to its spec."""
    obj = load_json(path)
    if isinstance(obj.get("spec"), dict):
        obj = obj["spec"]
    return ModelSpec.from_json_dict(obj)


def load_tail_dep(path) -> TailDepMatrix:
    return TailDepMatrix.from_json_dict(load_json(path))


def dump_synthesis(result: SynthesisResult, path) -> None:
    dump_json(result.to_json_dict(), path)


def sidecar_path(csv_path) -> Path:
    return Path(str(csv_path) + ".meta.json")


def csv_header(d: int) -> str:
    return ",".join(f"x{i + 1}" for i in range(d))


def write_csv(batch: SampleBatch, path, sidecar: bool = True) -> None:
    """Write a batch as CSV; optionally drop the provenance sidecar next to it."""
    meta = {"n": batch.n, "seed": batch.seed, "spec_fingerprint": batch.spec_fingerprint}
    if batch.spec_digest is not None:
        meta["spec_digest"] = batch.spec_digest
    write_csv_blocks([batch.data], batch.d, path, meta if sidecar else None)


def write_csv_blocks(blocks: Iterable[np.ndarray], d: int, path, meta: dict | None) -> int:
    """Write (m, d) blocks as one CSV at ``path``; returns the rows written.

    Any sidecar already at ``path`` is removed before the first block is
    asked for, and ``meta``, when given, is written as the new sidecar after
    the CSV is in place.  When ``path`` is absent or a regular file, the CSV
    goes to a temporary file that replaces it when complete, and if a block
    raises, the temporary file is deleted and ``path`` is left as it was.
    Any other ``path`` (a symlink, a pipe, a device such as ``/dev/stdout``)
    is opened and written directly, as ``np.savetxt`` did.
    """
    rows = 0

    def texts():
        nonlocal rows
        for block in blocks:
            yield from _csv_pieces(block, d)
            rows += block.shape[0]

    _write_csv_text(texts(), d, path, meta)
    return rows


def _csv_pieces(block: np.ndarray, d: int) -> Iterator[str]:
    """The CSV rows of an (m, d) block, at most ``_FORMAT_VALUES`` values a piece."""
    if block.ndim != 2 or block.shape[1] != d:
        raise ShapeError(f"CSV block of shape {block.shape} does not have {d} columns")
    row_fmt = ",".join(["%.17g"] * d) + "\n"
    step = max(1, _FORMAT_VALUES // max(d, 1))
    for lo in range(0, block.shape[0], step):
        part = block[lo : lo + step]
        yield (row_fmt * part.shape[0]) % tuple(part.ravel().tolist())


def _write_csv_text(texts: Iterable[str], d: int, path, meta: dict | None) -> None:
    """Write the header and then ``texts`` as the CSV at ``path``, as :func:`write_csv_blocks`."""
    path = Path(path)
    sidecar_path(path).unlink(missing_ok=True)
    try:
        atomic = stat.S_ISREG(os.lstat(path).st_mode)
    except FileNotFoundError:
        atomic = True
    target = path.with_name(f".{path.name}.{os.getpid()}.tmp") if atomic else path
    try:
        with open(target, "w", encoding="ascii", newline="\n") as fh:
            fh.write(csv_header(d) + "\n")
            for text in texts:
                fh.write(text)
        if atomic:
            os.replace(target, path)
    except BaseException:
        if atomic:
            target.unlink(missing_ok=True)
        raise
    if meta is not None:
        dump_json(meta, sidecar_path(path))


@contextmanager
def _chunk_texts(chunk: Callable[[int], np.ndarray], starts: range, d: int):
    """Yield an iterator of the CSV text of ``chunk(start)`` for each start, in order.

    The texts are made by ``min(CPUs, len(starts))`` forked workers, each
    running ``chunk`` and :func:`_csv_pieces`, while the body of the ``with``
    block runs; with one worker or without ``fork`` they are made in this
    process as the iterator is read.  An error in a worker is raised again
    here, and on leaving the block every worker has been stopped and reaped.

    ``chunk`` and what it reads are inherited by the fork, not pickled; only
    starts and texts cross the pipes.  Python 3.12 and later issue a
    ``DeprecationWarning`` when a process with more than one thread forks,
    and numpy's OpenBLAS thread pool gives this process two.  The workers
    call no BLAS routine and start no thread, so no lock a missing thread
    held is ever waited on.
    """

    def job(start: int) -> str:
        return "".join(_csv_pieces(chunk(start), d))

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        cpus = os.cpu_count() or 1
    workers = min(cpus, len(starts))
    if workers < 2 or not hasattr(os, "fork"):
        yield map(job, starts)
        return
    import multiprocessing  # here only: importing it costs every other run ~20 ms

    ctx = multiprocessing.get_context("fork")
    conns, procs = [], []
    try:
        for _ in range(workers):
            conn, child_end = ctx.Pipe()
            conns.append(conn)
            # the worker closes its copies of the parent's ends, so that it
            # sees EOF if the parent dies
            proc = ctx.Process(target=_serve, args=(child_end, job, conns), daemon=True)
            proc.start()
            procs.append(proc)
            child_end.close()
        # the workers start on the first chunks while the with block runs
        tasks = enumerate(starts)
        for i, start in islice(tasks, 2 * workers):
            _send(conns[i % workers], start)
        yield _in_order(conns, procs, tasks, len(starts))
    finally:
        for proc in procs:
            proc.terminate()
        for proc in procs:
            proc.join()
        for conn in conns:
            conn.close()


def _serve(conn, job: Callable[[int], str], parent_ends: list) -> None:
    """A worker's loop: answer each start read from ``conn`` with ``job(start)``."""
    import signal  # multiprocessing has loaded it; the CLI's start-up does not

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent handles Ctrl-C and stops us
    for end in parent_ends:
        end.close()
    while True:
        try:
            start = conn.recv()
        except EOFError:
            return
        try:
            reply = (True, job(start))
        except Exception as exc:
            reply = (False, exc)
        try:
            conn.send(reply)
        except ConnectionError:
            return  # the parent has died


def _in_order(conns: list, procs: list, tasks: Iterator, count: int) -> Iterator[str]:
    """The texts of ``count`` chunks from the workers, in chunk order.

    Chunk i goes to worker i mod w.  The first ``2 * w`` chunks have been
    sent; each further chunk of ``tasks``, an iterator of (i, start), is sent
    once the caller is done with a text, so at most ``2 * w`` chunks are sent
    and not yet written.
    """
    w = len(conns)
    for i in range(count):
        try:
            ok, value = conns[i % w].recv()
        except (EOFError, ConnectionError):  # reset when it died with starts unread
            proc = procs[i % w]
            proc.join()
            raise ChildProcessError(
                f"sampling worker {proc.pid} exited with code {proc.exitcode}"
            ) from None
        if not ok:
            raise value
        yield value
        for j, start in islice(tasks, 1):
            _send(conns[j % w], start)


def _send(conn, start: int) -> None:
    try:
        conn.send(start)
    except ConnectionError:
        pass  # the worker has died: reading its next text reports how


def read_csv(path) -> np.ndarray:
    """Read an observation matrix back; shape (n, d), n may be zero.

    The header fixes d.  Raises CsvFormatError naming the first bad line
    (1-based, header included) on width or parse problems.
    """
    with _utf8_text(path) as fh:
        header = fh.readline()
        if not header:
            raise CsvFormatError(f"{path}: empty file, expected a header row")
        names = header.strip().split(",")
        if names != [f"x{i + 1}" for i in range(len(names))]:
            raise CsvFormatError(f"{path}: line 1: malformed header {header.strip()!r}")
        d = len(names)
        try:
            # comments=None: with numpy's default "#", "1,2#x" would parse as 1,2
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                data = np.loadtxt(fh, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
        except ValueError:
            data = None
        if data is not None and data.shape[1] == d and np.isfinite(data).all():
            return data
        fh.seek(0)
        fh.readline()
        return _parse_lines(fh, path, d)


def _parse_lines(fh, path, d: int) -> np.ndarray:
    """Line-by-line reader for the body of a CSV file; the reference parser."""
    rows = []
    for lineno, line in enumerate(fh, start=2):
        line = line.strip()
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != d:
            raise CsvFormatError(
                f"{path}: line {lineno}: expected {d} fields, found {len(fields)}"
            )
        try:
            row = [float(f) for f in fields]
        except ValueError:
            raise CsvFormatError(f"{path}: line {lineno}: non-numeric field") from None
        if not all(np.isfinite(row)):
            raise CsvFormatError(f"{path}: line {lineno}: non-finite value")
        rows.append(row)
    return np.array(rows, dtype=np.float64) if rows else np.empty((0, d))


def load_sidecar(csv_path) -> dict | None:
    """Return the sidecar dict for a CSV path, or None when absent.

    ``n``, ``seed`` and ``spec_fingerprint`` are required; ``spec_digest`` is
    optional.  Both hashes, when present, must be 64 lowercase hex digits.
    """
    meta = sidecar_path(csv_path)
    if not meta.exists():
        return None
    obj = load_json(meta)
    missing = {"n", "seed", "spec_fingerprint"} - obj.keys()
    if missing:
        raise ShapeError(f"{meta}: sidecar missing fields {sorted(missing)}")
    for key in ("n", "seed"):
        if type(obj[key]) is not int:
            raise ShapeError(f"{meta}: sidecar field {key!r}={obj[key]!r} must be an integer")
    for key in ("spec_fingerprint", "spec_digest"):
        value = obj.get(key)
        if key in obj and not (
            type(value) is str and len(value) == 64 and set(value) <= _HEX_DIGITS
        ):
            raise ShapeError(f"{meta}: sidecar field {key!r}={value!r} must be 64 hex digits")
    return obj
