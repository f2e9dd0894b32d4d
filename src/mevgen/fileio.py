"""JSON and CSV persistence for specs, matrices, and sample batches.

CSV layout: header ``x1,...,xd``, one observation per row, values written
with 17 significant digits so float64 round-trips exactly.  Every sample
file gets a sidecar ``<path>.meta.json`` carrying the observation count,
the seed, and the fingerprint of the generating spec; readers use it to
refuse cross-spec comparisons.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import CsvFormatError, ShapeError
from .model import ModelSpec, TailDepMatrix
from .sampling import SampleBatch
from .synthesis import SynthesisResult


def load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ShapeError(f"{path}: expected a JSON object at top level")
    return obj


def dump_json(obj: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_spec(path) -> ModelSpec:
    """Read a spec file; a ``synth`` result file is unwrapped to its spec."""
    obj = load_json(path)
    if isinstance(obj.get("spec"), dict):
        obj = obj["spec"]
    return ModelSpec.from_json_dict(obj)


def dump_spec(spec: ModelSpec, path) -> None:
    dump_json(spec.to_json_dict(), path)


def load_tail_dep(path) -> TailDepMatrix:
    return TailDepMatrix.from_json_dict(load_json(path))


def dump_tail_dep(matrix: TailDepMatrix, path) -> None:
    dump_json(matrix.to_json_dict(), path)


def dump_synthesis(result: SynthesisResult, path) -> None:
    dump_json(result.to_json_dict(), path)


def sidecar_path(csv_path) -> Path:
    return Path(str(csv_path) + ".meta.json")


def csv_header(d: int) -> str:
    return ",".join(f"x{i + 1}" for i in range(d))


def write_csv(batch: SampleBatch, path, sidecar: bool = True) -> None:
    """Write a batch as CSV; optionally drop the provenance sidecar next to it."""
    np.savetxt(
        path, batch.data, fmt="%.17g", delimiter=",", header=csv_header(batch.d), comments=""
    )
    if sidecar:
        dump_json(
            {"n": batch.n, "seed": batch.seed, "spec_fingerprint": batch.spec_fingerprint},
            sidecar_path(path),
        )


def read_csv(path) -> np.ndarray:
    """Read an observation matrix back; shape (n, d), n may be zero.

    The header fixes d.  Raises CsvFormatError naming the first bad line
    (1-based, header included) on width or parse problems.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header:
            raise CsvFormatError(f"{path}: empty file, expected a header row")
        names = header.strip().split(",")
        if names != [f"x{i + 1}" for i in range(len(names))]:
            raise CsvFormatError(f"{path}: line 1: malformed header {header.strip()!r}")
        d = len(names)
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
    data = np.array(rows, dtype=np.float64) if rows else np.empty((0, d))
    return data


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
