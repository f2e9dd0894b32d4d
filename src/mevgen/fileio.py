"""JSON and CSV persistence for specs, matrices, and sample batches.

CSV layout: header ``x1,...,xd``, one observation per row, values written
with 17 significant digits so float64 round-trips exactly.  Every sample
file gets a sidecar ``<path>.meta.json`` carrying the observation count,
the seed, and the fingerprint of the generating spec; readers use it to
refuse cross-spec comparisons.

:func:`write_csv_blocks` streams: it takes an iterable of (m, d) blocks,
such as the chunks of :func:`mevgen.sampling.sample_chunks`, and formats
and writes each block before it asks for the next, so memory is O(block).
Rows are formatted by one ``%`` over a row format repeated once per row,
at most ``_FORMAT_VALUES`` values per call, which gives the bytes of
``np.savetxt(fmt="%.17g", delimiter=",")``.  A target that is absent or a
regular file is written as a temporary file next to it and moved into
place only when complete; a symlink, pipe or device is written through
directly.  The old sidecar is removed first and the new one written last,
so a sidecar never describes other data than the CSV beside it.

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
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import CsvFormatError, ShapeError
from .model import ModelSpec, TailDepMatrix
from .sampling import SampleBatch
from .synthesis import SynthesisResult

#: Values formatted per ``%`` call when writing CSV; a large block is split
#: so that its text and Python floats stay a few MB.
_FORMAT_VALUES = 2**16


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
    path = Path(path)
    sidecar_path(path).unlink(missing_ok=True)
    try:
        atomic = stat.S_ISREG(os.lstat(path).st_mode)
    except FileNotFoundError:
        atomic = True
    target = path.with_name(f".{path.name}.{os.getpid()}.tmp") if atomic else path
    row_fmt = ",".join(["%.17g"] * d) + "\n"
    step = max(1, _FORMAT_VALUES // max(d, 1))
    rows = 0
    try:
        with open(target, "w", encoding="ascii", newline="\n") as fh:
            fh.write(csv_header(d) + "\n")
            for block in blocks:
                if block.ndim != 2 or block.shape[1] != d:
                    raise ShapeError(f"CSV block of shape {block.shape} does not have {d} columns")
                for lo in range(0, block.shape[0], step):
                    part = block[lo : lo + step]
                    fh.write((row_fmt * part.shape[0]) % tuple(part.ravel().tolist()))
                rows += block.shape[0]
        if atomic:
            os.replace(target, path)
    except BaseException:
        if atomic:
            target.unlink(missing_ok=True)
        raise
    if meta is not None:
        dump_json(meta, sidecar_path(path))
    return rows


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
    """Return the sidecar dict for a CSV path, or None when absent."""
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
    return obj
