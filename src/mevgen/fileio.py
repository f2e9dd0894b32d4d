"""JSON and CSV persistence for specs, matrices, and sample batches.

CSV layout: header ``x1,...,xd``, one observation per row, values written
with 17 significant digits so float64 round-trips exactly.  Every sample
file gets a sidecar ``<path>.meta.json`` carrying the observation count,
the seed and the digest of the generating spec (:meth:`ModelSpec.digest`);
readers use them to refuse cross-spec comparisons.  Old sidecars carry the
spec's fingerprint instead, or beside its digest, and are still read.

:func:`write_csv` writes a batch, and ``sample`` hands :func:`_write_csv_text`
the texts of its chunks as the workers format them, so memory is O(chunk).
Rows are formatted by one function, :func:`_csv_pieces`, as ASCII bytes in
pieces of at most ``_FORMAT_VALUES`` values; they are the bytes of
``np.savetxt(fmt="%.17g", delimiter=",")``.  A piece whose values all lie in
[1e-4, 1e16) goes through the vectorized formatter
:func:`mevgen._csvfmt.format_rows`, which writes the same bytes (that
module gives the argument).  A piece holding any other value (0, a negative, a subnormal, a
huge value, NaN or inf) is formatted by one ``%`` over a row format repeated
once per row, which stays the reference.  The formatter is imported on first
use, so stages that write no CSV or float list never load it.
:func:`_write_csv_text` gives the order of the writes, so that a sidecar
never describes other data than the CSV beside it.

Work that splits into independent items runs on every CPU through one fork
map, :func:`_forked_map`: ``sample`` maps it over its chunks (drawing and
formatting each), and the CSV reader over spans of the body.

JSON files are written as one compact line with sorted keys, the bytes of
``json.dumps(obj, sort_keys=True, separators=(",", ":"))``: the C encoder,
while ``json.dump`` to a file and any ``indent`` run the pure-Python one.
:func:`_json_parts` writes a dict with str keys itself, key by sorted key,
and formats each distinct float of its lists of floats, or of lists of
equal-length rows of floats, once.  The reports are made of such lists,
and they repeat: lambda and the extremal coefficients are symmetric, and an
estimate at a finite u takes at most K + 1 values, so the 153,600 floats of
a d = 160 estimate report hold 26,169 distinct ones.  Entries are grouped
by their bits, so -0.0 and 0.0 stay apart; the distinct values are
formatted by :func:`mevgen._csvfmt.repr_rows`, which writes the encoder's
own texts, and None is written as ``null``.  Everything else, such as ints,
bools, strings, numpy scalars, ragged or mixed lists and dicts with a key
that is not a str, goes to ``json.dumps`` as it is, so the bytes never
change.  Readers take any layout.

CSV files are read by one reader, :func:`_parsing_csv`, whose fork map
parses the body's spans by :func:`_parse_span`: by the vectorized kernel
:func:`mevgen._csvfmt.parse_rows`, and each piece that it declines by the
line parser, the reference.
"""

from __future__ import annotations

import io
import json
import os
import pickle
import re
import stat
from contextlib import contextmanager
from functools import partial
from itertools import chain, islice
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import CsvFormatError, ShapeError
from .model import ModelSpec, TailDepMatrix

if TYPE_CHECKING:  # for annotations only: a stage that samples or synthesizes nothing skips them
    from .sampling import SampleBatch
    from .synthesis import SynthesisResult

#: Values formatted per piece when writing CSV.  About 16k values keep the
#: vectorized formatter's temporaries small (at 64k malloc serves them from
#: fresh pages of their own and page faults rise) and its ~100 numpy calls
#: cheap next to the work they do.
_FORMAT_VALUES = 2**14

#: Body bytes per span of a CSV read: each span is parsed as one item of
#: the fork map, so a body of one span is parsed in process, and only the
#: text of one span per worker, not of the file, is held at once.
_READ_BYTES = 2**22

#: Floats of a JSON document whose lists are formatted by one
#: :func:`mevgen._csvfmt.repr_rows` call: a call costs about 0.3 ms whatever its
#: size, and the distinct values it holds are kept until their lists are written.
_JSON_VALUES = 2**16

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
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_json_parts(obj))
        fh.write("\n")


def _json_parts(obj) -> Iterator[str]:
    """The text of ``json.dumps(obj, sort_keys=True, separators=(",", ":"))`` in pieces;
    the texts of its lists of floats, or of equal-length rows of them (None is ``null``),
    come from :func:`_float_list_texts`, each made as it is asked for."""
    parts: list = []
    lists: list = []
    _add_json_parts(obj, parts, lists)
    texts = _float_list_texts(lists)
    return (next(texts) if part is None else part for part in parts)


def _add_json_parts(obj, parts: list, lists: list) -> None:
    """Append the text of ``obj`` to ``parts``, with None in place of each float list,
    whose ``(rows, nested)`` is appended to ``lists``."""
    if type(obj) is dict and all(type(key) is str for key in obj):
        parts.append("{")
        for n, key in enumerate(sorted(obj)):
            parts.append(f"{',' if n else ''}{json.dumps(key)}:")
            _add_json_parts(obj[key], parts, lists)
        parts.append("}")
        return
    if type(obj) is list and obj:
        nested = all(type(row) is list for row in obj)
        rows = obj if nested else [obj]
        width = len(rows[0])
        if (
            width
            and all(len(row) == width for row in rows)
            and set(map(type, chain.from_iterable(rows))) <= {float, type(None)}
        ):
            parts.append(None)
            lists.append((rows, nested))
            return
    parts.append(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _float_list_texts(lists: list) -> Iterator[str]:
    """The JSON text of each ``(rows, nested)`` float list; the distinct values of
    consecutive lists are formatted by one :func:`mevgen._csvfmt.repr_rows` call, up to
    the list that brings them to ``_JSON_VALUES`` values."""
    from ._csvfmt import repr_rows  # here only: stages that write no float list never load it

    start = 0
    while start < len(lists):
        distinct, size = [], 0  # each list's distinct values, by their bits
        for rows, _ in lists[start:]:
            values = np.array(rows, dtype=np.float64)  # None becomes NaN
            # np.unique without return_inverse would import numpy.ma
            bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
            distinct.append((bits, inverse.reshape(values.shape), np.argwhere(np.isnan(values))))
            size += values.size
            if size >= _JSON_VALUES:
                break
        every = np.unique(np.concatenate([bits for bits, _, _ in distinct]), return_inverse=True)[0]
        texts = repr_rows(every.view(np.float64)[None, :]).decode("ascii")[:-1].split(",")
        texts = np.array(texts, dtype=object)
        for (rows, nested), (bits, inverse, nan) in zip(lists[start:], distinct):
            tokens = texts[np.searchsorted(every, bits)][inverse]
            for r, c in nan.tolist():
                if rows[r][c] is None:
                    tokens[r, c] = "null"
            text = "],[".join(map(",".join, tokens.tolist()))
            yield f"[[{text}]]" if nested else f"[{text}]"
        start += len(distinct)


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
    meta = _sidecar(batch.n, batch.seed, batch.spec_fingerprint, batch.spec_digest)
    _write_csv_text(_csv_pieces(batch.data, batch.d), batch.d, path, meta if sidecar else None)


def _sidecar(n: int, seed: int, fingerprint: str = "", digest: str | None = None) -> dict:
    """The sidecar fields of n observations drawn with ``seed``, with the hashes given."""
    meta = {"n": n, "seed": seed}
    if fingerprint:
        meta["spec_fingerprint"] = fingerprint
    if digest is not None:
        meta["spec_digest"] = digest
    return meta


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
    """Write the header ``x1,...,xd`` and then ``texts`` as one CSV at ``path``.

    Any sidecar already at ``path`` is removed before the first text is
    asked for, and ``meta``, when given, is written as the new sidecar after
    the CSV is in place.  When ``path`` is absent or a regular file, the CSV
    goes to a temporary file that replaces it when complete, and if ``texts``
    raises, the temporary file is deleted and ``path`` is left as it was.
    Any other ``path`` (a symlink, a pipe, a device such as ``/dev/stdout``)
    is opened and written directly, as ``np.savetxt`` did.
    """
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
    worker is raised again here, a worker that dies raises
    ``ChildProcessError``, and on leaving the block every worker has been
    killed and reaped.

    ``job`` and ``items`` are inherited by the fork, not pickled: worker w
    takes ``items[w::workers]`` from its copy and only its results cross
    its one pipe, where it stalls when ahead of the reader, so memory stays
    O(workers x item).  The workers call no BLAS routine and start no thread.
    """
    workers = min(_cpu_count(), len(items))
    if workers < 2 or not hasattr(os, "fork"):
        yield map(job, items)
        return
    import signal  # here only: no serial run needs it

    readers, pids = [], []  # per worker: the parent's end of its pipe, its pid
    try:
        # A worker inherits this process's handlers, which may raise, until
        # _serve resets them; with both signals blocked across the forks, one
        # that comes early waits for the reset instead of unwinding the fork
        # or being dropped by it.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT, signal.SIGTERM})
        try:
            for w in range(workers):
                result_r, result_w = os.pipe()
                readers.append(open(result_r, "rb"))
                with open(result_w, "wb", buffering=0) as sink:  # our copy closes, fork or not
                    pid = os.fork()
                    if pid == 0:  # the worker: it exits here, never returning into our caller
                        code = 1
                        try:
                            _serve(sink, job, items[w::workers], readers)
                            code = 0
                        except SystemExit as exc:
                            code = exc.code if isinstance(exc.code, int) else 1
                        finally:
                            os._exit(code)
                pids.append(pid)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        yield _in_order(readers, pids, len(items))
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGTERM)
        for pid in pids:
            os.waitpid(pid, 0)
        for end in readers:
            end.close()


def _serve(sink, job: Callable, items: Sequence, parent_ends: list) -> None:
    """A worker's loop: write ``job(item)`` for each of ``items`` to ``sink``, to the first error,
    or until a parent that has died ends it by ``BrokenPipeError``."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent handles Ctrl-C and stops us
    signal.signal(signal.SIGTERM, signal.SIG_DFL)  # the parent's handler may raise
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT, signal.SIGTERM})  # see _forked_map
    for end in parent_ends:  # so that the pipes end if the parent dies
        end.close()
    for item in items:
        try:
            result = job(item)
        except Exception as exc:
            _send(sink, (False, exc))
            return
        _send(sink, (True, result))


def _in_order(readers: list, pids: list, count: int) -> Iterator:
    """The results of ``count`` items from the workers, in item order.

    Item i comes from worker i mod w.  A worker that died is reaped here and
    dropped from ``pids``.
    """
    w = len(readers)
    for i in range(count):
        try:
            ok, value = pickle.load(readers[i % w])
        except (EOFError, pickle.UnpicklingError):  # it died with items unread
            pid = pids.pop(i % w)  # so that it is not signalled after it is reaped
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            raise ChildProcessError(f"worker {pid} exited with code {code}") from None
        if not ok:
            raise value
        yield value


def _send(pipe, obj) -> None:
    """Write the pickle of ``obj`` to ``pipe``, an unbuffered file."""
    view = memoryview(pickle.dumps(obj, pickle.HIGHEST_PROTOCOL))
    while view:
        view = view[pipe.write(view) :]


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

    The file is opened once, and a pipe read whole.  After a plain header,
    the fork map parses the body's spans by :func:`_parse_span` while the
    ``with`` block runs, and ``read()`` numbers each span's lines after
    those of the spans before it, so nothing depends on the CPU count;
    after any other header the line parser reads the file.  On leaving the
    block every worker has been reaped.
    """
    from ._csvfmt import parse_rows  # noqa: F401 (imported before any fork: workers inherit it)

    with open(path, "rb") as raw:
        if not raw.seekable():
            raw = io.BytesIO(raw.read())
        header = raw.readline()
        d = _plain_header_width(header)
        spans = [] if d is None else _line_spans(raw)
        with _forked_map(partial(_parse_span, raw, path, d), spans) as results:

            def read() -> np.ndarray:
                before = 0  # lines before the span being read
                try:
                    if d is None:
                        raw.seek(0)
                        return _read_text(path, raw)
                    before = _line_count(header)  # "x1,x2\r\r\n" is two
                    blocks = [np.empty((0, d))]
                    for rows, lines in results:
                        blocks.append(rows)
                        before += lines
                    return np.concatenate(blocks)
                except _BadLine as bad:
                    line, reason = bad.args
                    raise CsvFormatError(f"{path}: line {before + line}: {reason}") from None

            yield read


def _line_spans(raw) -> list[tuple[int, int]]:
    """Byte spans of about ``_READ_BYTES`` from the offset of seekable ``raw`` to its end.

    Each span but the last ends just after a newline; the last ends at the
    end of the file.
    """
    bounds = [raw.tell()]
    size = raw.seek(0, os.SEEK_END)
    while bounds[-1] < size:
        raw.seek(bounds[-1] + _READ_BYTES - 1)
        raw.readline()  # to just after the next "\n"
        bounds.append(min(raw.tell(), size))
    return list(zip(bounds[:-1], bounds[1:]))


def _pread(raw, lo: int, hi: int) -> bytes:
    """Bytes [lo, hi) of ``raw``, a pipe's from memory; ``os.pread`` leaves the shared offset."""
    if isinstance(raw, io.BytesIO):
        return raw.getvalue()[lo:hi]
    return os.pread(raw.fileno(), hi - lo, lo)


def _parse_span(raw, path, d: int, span: tuple[int, int]) -> tuple[np.ndarray, int]:
    """The rows of bytes ``span`` of ``raw`` and its number of lines, by the kernel
    :func:`mevgen._csvfmt.parse_rows` and, for each piece that it declines, the line parser;
    a bad line raises ``_BadLine`` numbered from the span's first line as 1."""
    from ._csvfmt import parse_rows

    lo = span[0]
    blocks, lines, start = [], 0, 0
    for end, rows in parse_rows(_pread(raw, *span), d):
        if rows is None:
            rows, count = _parse_piece(raw, path, d, (lo + start, lo + end), 1 + lines)
        else:
            count = rows.shape[0]
        blocks.append(rows)
        lines += count
        start = end
    return np.concatenate(blocks), lines


def _parse_piece(raw, path, d: int, piece: tuple[int, int], first: int) -> tuple[np.ndarray, int]:
    """The rows of the lines in bytes ``piece`` of ``raw`` by the line parser, the first
    being line ``first``, and their number.

    They are decoded in ``io.TextIOWrapper``'s 8 KiB chunks from the file's start, from the
    character at the start of the chunk that holds the piece's start, each chunk before the
    lines that end in it, so that a UTF-8 error comes and reads as in a text read of the file.
    """
    lo, hi = piece
    origin = max(lo - lo % 8192 - 3, 0)
    data = _pread(raw, origin, hi - hi % -8192)
    at = lo - lo % 8192 - origin
    while at and data[at] & 0xC0 == 0x80:  # a UTF-8 continuation byte
        at -= 1
    count = _line_count(data[lo - origin : hi - origin])
    spaced = b" " * ((origin + at) % 8192) + data[at:]  # so that its chunks end where the file's do
    with _utf8_text(path, io.BytesIO(spaced)) as fh:
        for _ in range(_line_count(data[at : lo - origin])):
            fh.readline()
        return _parse_lines(islice(fh, count), d, first), count


def _line_count(text: bytes) -> int:
    """The number of lines of ``text`` in universal-newline mode."""
    ends = text.count(b"\n") + text.count(b"\r") - text.count(b"\r\n")
    return ends + (text[-1:] not in b"\r\n")  # and a last line without its end


class _BadLine(Exception):
    """Line ``args[0]`` of a CSV, numbered by its reader, is bad for reason ``args[1]``."""


def _read_text(path, raw) -> np.ndarray:
    """The rows of the CSV in binary stream ``raw``, header and all, by the line parser."""
    with _utf8_text(path, raw) as fh:
        header = fh.readline()
        if not header:
            raise CsvFormatError(f"{path}: empty file, expected a header row")
        d = _header_width(header)
        if d is None:
            raise CsvFormatError(f"{path}: line 1: malformed header {header.strip()!r}")
        return _parse_lines(fh, d, 2)


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


def _parse_lines(lines: Iterable[str], d: int, first: int) -> np.ndarray:
    """The rows of CSV body ``lines``, the first being line ``first``; the reference parser.

    A bad line raises ``_BadLine``.
    """
    rows = []
    for lineno, line in enumerate(lines, start=first):
        line = line.strip()
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != d:
            raise _BadLine(lineno, f"expected {d} fields, found {len(fields)}")
        try:
            row = [float(f) for f in fields]
        except ValueError:
            raise _BadLine(lineno, "non-numeric field") from None
        if not all(np.isfinite(row)):
            raise _BadLine(lineno, "non-finite value")
        rows.append(row)
    return np.array(rows, dtype=np.float64) if rows else np.empty((0, d))


def load_sidecar(csv_path) -> dict | None:
    """Return the sidecar dict for a CSV path, or None when absent.

    ``n`` and ``seed`` are required; ``spec_digest`` and, in old sidecars,
    ``spec_fingerprint`` are optional, and each must be 64 lowercase hex
    digits when present.
    """
    meta = sidecar_path(csv_path)
    if not meta.exists():
        return None
    obj = load_json(meta)
    missing = {"n", "seed"} - obj.keys()
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
