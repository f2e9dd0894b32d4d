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
Rows are formatted by one function, :func:`_csv_pieces`, as ASCII bytes in
pieces of at most ``_FORMAT_VALUES`` values; they are the bytes of
``np.savetxt(fmt="%.17g", delimiter=",")``.  A piece whose values all lie in
[1e-4, 1e16) goes through the vectorized formatter
:func:`mevgen._csvfmt.format_rows`: there ``%.17g`` writes fixed notation,
and its 17 digits are x * 10**(16 - k) rounded half-even, computed exactly
with Dekker's two-product (that module gives the argument), so the bytes are
the same.  A piece holding any other value (0, a negative, a subnormal, a
huge value, NaN or inf) is formatted by one ``%`` over a row format repeated
once per row, which stays the reference.  The formatter is imported on first
use, so stages that write no CSV never load it.
A target that is absent or a regular file is written as a temporary file
``.<name>.<pid>.tmp`` next to it and moved into place only when complete; a
symlink, pipe or device is written through directly.  A temporary file whose
pid no longer runs, left by a writer that was killed, is removed by the next
write to the same target.  The old sidecar is removed first and the new one
written last, so a sidecar never describes other data than the CSV beside it.

Work that splits into independent items runs on every CPU through one fork
map, :func:`_forked_map`: one forked worker per CPU in the affinity mask (at
most one per item), each running the same function as the serial path.  Item
i goes to worker i mod w and the parent reads the results back in item
order, so the output never depends on the number of workers.  At most two
items per worker are sent ahead of the reader, so memory stays O(workers x
item) however slow the reader is.  With one CPU, one item or no ``fork``, the
items are mapped in process.  ``sample`` maps it over its chunks (drawing
and formatting each); the CSV reader maps it over byte ranges.

JSON files are written as one compact line with sorted keys, by a single
``json.dumps`` call: that is the C encoder, while ``json.dump`` to a file
and any ``indent`` run the pure-Python one.  Readers take any layout.
Spec files hold alpha sparse or dense, as :meth:`ModelSpec.to_json_dict`
chooses; :meth:`ModelSpec.from_json_dict` reads both.

CSV reading takes three steps.  The file is opened once and read as bytes,
and after the header check the body goes to the vectorized parser
:func:`mevgen._csvfmt.parse_rows`, 4 MiB at a time.  It accepts the rows that ``sample``
writes: only ``[0-9.,\\n]``, d fields per line, each with at most 17
significant digits and a value in [1e-4, 1e16).  It keeps a value only when
the value's own 17 digits equal the field's, which makes it the correctly
rounded value of the field (that module gives the argument), so its arrays
are bitwise those of ``np.loadtxt``.  A body it declines goes to
``np.loadtxt``, whose result is kept when it has d columns and every value
is finite.  Otherwise, or when it raises, the body is read line by line,
which accepts exactly the same files and is the one source of the
``CsvFormatError`` line messages.  A body of at least two ``_RANGE_BYTES``
(2 MiB) is split just after newlines into ``min(CPUs, bytes // 2 MiB)``
byte ranges, and the fork map parses each range by the parser, else
``loadtxt``, in a worker that reads only its range from the file and writes
its rows into its slot of one shared anonymous mapping, made before the
fork, rather than send them back through a pipe.  Both parse each line on
its own, so the ranges' rows, concatenated in order, are the rows of the
whole body.  If any range fails both, the whole file goes
through the serial path above, so the accepted files, the values and the
errors are those of a one-CPU read.  :func:`_parsing_csv` starts the
workers and returns while they parse, so ``estimate`` loads its spec
meanwhile.
"""

from __future__ import annotations

import io
import json
import os
import re
import stat
import warnings
from contextlib import contextmanager
from functools import partial
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import CsvFormatError, ShapeError
from .model import ModelSpec, TailDepMatrix
from .sampling import SampleBatch
from .synthesis import SynthesisResult

#: Values formatted per piece when writing CSV.  About 16k values keep the
#: vectorized formatter's temporaries small (at 64k they pass the C library's
#: mmap threshold and page faults rise) and its ~100 numpy calls cheap next
#: to the work they do.
_FORMAT_VALUES = 2**14

#: Least body bytes per range when a CSV body is parsed on several CPUs:
#: a body is split into ``min(CPUs, bytes // _RANGE_BYTES)`` ranges, and
#: with fewer than two it is parsed in process, where a fork would cost
#: more than it saves.
_RANGE_BYTES = 2**21

#: Body bytes read per step when a CSV is parsed in process, so that only
#: the rows, not the text, of a large file are held at once.
_READ_BYTES = 2**22

_HEX_DIGITS = frozenset("0123456789abcdef")


@contextmanager
def _utf8_text(path, binary=None):
    """Open ``path``, or read ``binary`` (a binary stream of its bytes), as UTF-8 text; a
    decode error names the file at its end."""
    if binary is None:
        text = open(path, "r", encoding="utf-8")
    else:
        text = io.TextIOWrapper(binary, encoding="utf-8")
    try:
        with text as fh:
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


def _csv_pieces(block: np.ndarray, d: int) -> Iterator[bytes]:
    """The CSV rows of an (m, d) block as ASCII, at most ``_FORMAT_VALUES`` values a piece."""
    if block.ndim != 2 or block.shape[1] != d:
        raise ShapeError(f"CSV block of shape {block.shape} does not have {d} columns")
    from ._csvfmt import format_rows  # here only: the stages that write no CSV never load it

    row_fmt = ",".join(["%.17g"] * d) + "\n"
    step = max(1, _FORMAT_VALUES // max(d, 1))
    for lo in range(0, block.shape[0], step):
        part = block[lo : lo + step]
        text = format_rows(part)
        if text is None:  # a value outside the kernel's range: % is the reference
            text = ((row_fmt * part.shape[0]) % tuple(part.ravel().tolist())).encode("ascii")
        yield text


def _write_csv_text(texts: Iterable[bytes], d: int, path, meta: dict | None) -> None:
    """Write the header and then ``texts`` as the CSV at ``path``, as :func:`write_csv_blocks`."""
    path = Path(path)
    sidecar_path(path).unlink(missing_ok=True)
    try:
        atomic = stat.S_ISREG(os.lstat(path).st_mode)
    except FileNotFoundError:
        atomic = True
    if atomic:
        _remove_dead_temps(path)
    target = path.with_name(f".{path.name}.{os.getpid()}.tmp") if atomic else path
    try:
        with open(target, "wb") as fh:
            fh.write(csv_header(d).encode("ascii") + b"\n")
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


def _remove_dead_temps(path: Path) -> None:
    """Delete the ``.<name>.<pid>.tmp`` files next to ``path`` whose pid no longer runs.

    A writer killed outright (SIGKILL) leaves its temporary file behind; the
    next write to the same path removes it.  A pid that still runs, ours or
    another user's, keeps its file.
    """
    temp = re.compile(re.escape(f".{path.name}.") + r"([0-9]{1,9})\.tmp")
    try:
        names = os.listdir(path.parent)
    except OSError:
        return  # an unlistable directory: nothing to tidy, and the write decides
    for name in names:
        if (match := temp.fullmatch(name)) is None:
            continue
        try:
            os.kill(int(match[1]), 0)
        except ProcessLookupError:
            (path.parent / name).unlink(missing_ok=True)
        except OSError:
            pass  # alive under another user


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


@contextmanager
def _forked_map(job: Callable, items: Sequence):
    """Yield an iterator of ``job(item)`` for each of ``items``, in order.

    The results are made by ``min(CPUs, len(items))`` forked workers while
    the body of the ``with`` block runs; with one worker or without ``fork``
    they are made in this process as the iterator is read.  An error in a
    worker is raised again here, and on leaving the block every worker has
    been stopped and reaped.

    ``job`` and what it reads are inherited by the fork, not pickled; only
    items and results cross the pipes.  Python 3.12 and later issue a
    ``DeprecationWarning`` when a process with more than one thread forks,
    and numpy's OpenBLAS thread pool gives this process two.  The workers
    call no BLAS routine and start no thread, so no lock a missing thread
    held is ever waited on.
    """
    workers = min(_cpu_count(), len(items))
    if workers < 2 or not hasattr(os, "fork"):
        yield map(job, items)
        return
    import multiprocessing  # here only: importing it costs every other run ~20 ms
    import signal

    ctx = multiprocessing.get_context("fork")
    conns, procs = [], []
    try:
        # A worker inherits this process's handlers, which may raise, until
        # _serve resets them; with both signals blocked across the forks, one
        # that comes early waits for the reset instead of unwinding the fork
        # or being dropped by it.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT, signal.SIGTERM})
        try:
            for _ in range(workers):
                conn, child_end = ctx.Pipe()
                conns.append(conn)
                # the worker closes its copies of the parent's ends, so that
                # it sees EOF if the parent dies
                proc = ctx.Process(target=_serve, args=(child_end, job, conns), daemon=True)
                proc.start()
                procs.append(proc)
                child_end.close()
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        # the workers start on the first items while the with block runs
        tasks = enumerate(items)
        for i, item in islice(tasks, 2 * workers):
            _send(conns[i % workers], item)
        yield _in_order(conns, procs, tasks, len(items))
    finally:
        for proc in procs:
            proc.terminate()
        for proc in procs:
            proc.join()
        for conn in conns:
            conn.close()


def _serve(conn, job: Callable, parent_ends: list) -> None:
    """A worker's loop: answer each item read from ``conn`` with ``job(item)``."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent handles Ctrl-C and stops us
    signal.signal(signal.SIGTERM, signal.SIG_DFL)  # the parent's handler may raise
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT, signal.SIGTERM})  # see _forked_map
    for end in parent_ends:
        end.close()
    while True:
        try:
            item = conn.recv()
        except EOFError:
            return
        try:
            reply = (True, job(item))
        except Exception as exc:
            reply = (False, exc)
        try:
            conn.send(reply)
        except ConnectionError:
            return  # the parent has died


def _in_order(conns: list, procs: list, tasks: Iterator, count: int) -> Iterator:
    """The results of ``count`` items from the workers, in item order.

    Item i goes to worker i mod w.  The first ``2 * w`` items have been
    sent; each further item of ``tasks``, an iterator of (i, item), is sent
    once the caller is done with a result, so at most ``2 * w`` items are
    sent and not yet consumed.
    """
    w = len(conns)
    for i in range(count):
        try:
            ok, value = conns[i % w].recv()
        except (EOFError, ConnectionError):  # reset when it died with items unread
            proc = procs[i % w]
            proc.join()
            raise ChildProcessError(f"worker {proc.pid} exited with code {proc.exitcode}") from None
        if not ok:
            raise value
        yield value
        for j, item in islice(tasks, 1):
            _send(conns[j % w], item)


def _send(conn, item) -> None:
    try:
        conn.send(item)
    except ConnectionError:
        pass  # the worker has died: reading its next result reports how


def read_csv(path) -> np.ndarray:
    """Read an observation matrix back; shape (n, d), n may be zero.

    The header fixes d.  Raises CsvFormatError naming the first bad line
    (1-based, header included) on width or parse problems.
    """
    with _parsing_csv(path) as read:
        return read()


@contextmanager
def _parsing_csv(path):
    """Start parsing the CSV at ``path``; yield ``read()``, which returns :func:`read_csv`'s result.

    A large body is parsed by forked workers, one range each, while the body
    of the ``with`` block runs; otherwise ``read()`` parses it in process.
    Either way ``read()`` returns the same array and raises the same errors,
    and on leaving the block every worker has been stopped and reaped.
    """
    import mmap

    from ._csvfmt import parse_rows  # noqa: F401 (imported before any fork: workers inherit it)

    plan = _body_ranges(path)
    if plan is not None:
        d, ranges = plan
        # a value takes at least two bytes of text, its field and a separator (one for the
        # last, when the file does not end in a newline), so these slots hold every range
        slots = [(hi - lo + 1) // 2 for lo, hi in ranges]
        starts = np.cumsum([0] + slots[:-1]).tolist()
        try:
            shared = mmap.mmap(-1, 8 * sum(slots))
        except OSError:  # more than the system will map: parse in process
            plan = None
    if plan is None:
        yield lambda: _read_serial(path)
        return
    with _forked_map(partial(_share_range, path, d, shared), list(zip(ranges, starts))) as counts:

        def read() -> np.ndarray:
            rows = list(counts)
            if any(n is None for n in rows):
                return _read_serial(path)
            blocks = [np.frombuffer(shared, np.float64, n * d, 8 * s) for n, s in zip(rows, starts)]
            return np.concatenate([block.reshape(-1, d) for block in blocks])

        yield read


def _share_range(path, d: int, shared, item: tuple[tuple[int, int], int]) -> int | None:
    """Parse one range into its slot of ``shared``; return its row count, or None.

    ``item`` is the range and the index of the slot's first value.  Sending
    the rows back through a pipe instead made a two-range read of a 17 MB
    body about 30 ms (a sixth) slower.
    """
    span, start = item
    data = _parse_range(path, d, span)
    if data is None:
        return None
    np.frombuffer(shared, np.float64, data.size, 8 * start)[:] = data.ravel()
    return data.shape[0]


def _body_ranges(path) -> tuple[int, list[tuple[int, int]]] | None:
    """The header's width and the line-aligned byte ranges of the body, or None.

    None means parse in process: fewer than two ranges of ``_RANGE_BYTES``
    for the CPUs, no regular file at ``path``, or a header that is not
    plainly valid UTF-8 ``x1,...,xd`` (the serial path then says what is
    wrong).  Each range but the last ends just after a newline; the last ends
    at the end of the file.
    """
    try:
        info = os.stat(path)  # not open: a pipe is opened once, by the reader that reads it
    except OSError:
        return None
    if not stat.S_ISREG(info.st_mode):
        return None
    with open(path, "rb") as fh:
        header = fh.readline()
        lo, size = len(header), info.st_size
        count = min(_cpu_count(), (size - lo) // _RANGE_BYTES)
        if count < 2:
            return None
        d = _plain_header_width(header)
        if d is None:
            return None
        bounds = [lo]
        for i in range(1, count):
            fh.seek(lo + i * (size - lo) // count - 1)
            fh.readline()  # to just after the next "\n"
            bounds.append(max(fh.tell(), bounds[-1]))
        bounds.append(size)
    return d, list(zip(bounds[:-1], bounds[1:]))


def _parse_range(path, d: int, span: tuple[int, int]) -> np.ndarray | None:
    """The rows of bytes ``span`` of the CSV at ``path`` by the kernel, else ``loadtxt``, or None.

    A range without rows gives ``loadtxt``'s (0, 1): None for d > 1, and no
    rows to add for d = 1.
    """
    from ._csvfmt import parse_rows  # loaded by _parsing_csv before the fork

    lo, hi = span
    with open(path, "rb") as fh:
        fh.seek(lo)
        raw = fh.read(hi - lo)
    data = parse_rows(raw, d)
    if data is None:
        data = _fast_parse(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"), d)
    return data


def _read_serial(path) -> np.ndarray:
    """:func:`read_csv` in this process: the kernel, else ``loadtxt``, else the line parser.

    The file is opened once, as a pipe cannot be opened again.  The kernel reads the body in
    line-aligned steps of ``_READ_BYTES``; if it declines one, the file is read again from its
    start as text: by seeking back, or, when it cannot seek, from the bytes kept so far.
    """
    from ._csvfmt import parse_rows

    with open(path, "rb") as raw:
        kept = [raw.readline()]
        d = _plain_header_width(kept[0])
        blocks, rest = [], b""
        while d is not None and (step := raw.read(_READ_BYTES)):
            if not raw.seekable():
                kept.append(step)
            rest += step
            end = rest.rfind(b"\n") + 1
            if end:
                blocks.append(parse_rows(memoryview(rest)[:end], d))
                rest = rest[end:]
                if blocks[-1] is None:
                    break
        if blocks and blocks[-1] is not None and not rest:
            return np.concatenate(blocks)
        if raw.seekable():
            raw.seek(0)
        else:
            raw = io.BytesIO(b"".join(kept) + raw.read())
        return _read_text(path, raw)


def _read_text(path, raw) -> np.ndarray:
    """The rows of the CSV in binary stream ``raw`` by ``loadtxt``, else the line parser."""
    with _utf8_text(path, raw) as fh:
        header = fh.readline()
        if not header:
            raise CsvFormatError(f"{path}: empty file, expected a header row")
        d = _header_width(header)
        if d is None:
            raise CsvFormatError(f"{path}: line 1: malformed header {header.strip()!r}")
        data = _fast_parse(fh, d)
        if data is not None:
            return data
        fh.seek(0)
        fh.readline()
        return _parse_lines(fh, path, d)


def _plain_header_width(header: bytes) -> int | None:
    """d for a first line that is plainly valid UTF-8 ``x1,...,xd`` ending in a newline."""
    try:
        text = header.decode("utf-8")
    except UnicodeDecodeError:
        return None
    # text mode would also end the header at a lone "\r"
    if "\r" in text.rstrip("\r\n") or not text.endswith("\n"):
        return None
    return _header_width(text)


def _header_width(header: str) -> int | None:
    """d for a header line ``x1,...,xd``, else None."""
    names = header.strip().split(",")
    return len(names) if names == [f"x{i + 1}" for i in range(len(names))] else None


def _fast_parse(fh, d: int) -> np.ndarray | None:
    """``np.loadtxt`` of the rest of ``fh`` if it gives d columns of finite values, else None."""
    try:
        # comments=None: with numpy's default "#", "1,2#x" would parse as 1,2
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            data = np.loadtxt(fh, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
    except ValueError:
        return None
    return data if data.shape[1] == d and np.isfinite(data).all() else None


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
