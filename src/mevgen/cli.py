"""Command-line front end tying synthesis, sampling, evaluation, and
estimation together.

Subcommands
-----------
synth     build a model spec from a target tail-dependence matrix file
sample    draw a seeded batch from a spec and write CSV plus sidecar
coeffs    print the spec's tail-dependence and extremal matrices as JSON
cdf       evaluate the joint CDF or the copula at one point
estimate  estimate pairwise tail dependence from a sample CSV
plot      render pairwise scatter panels to a deterministic SVG
check     validate a spec file and run closed-form invariant smoke checks

Exit codes: 0 success, 2 usage or parse failure, 3 validation or
infeasibility, 4 provenance mismatch.  Coordinates in flags and file
formats are 1-based (x1..xd); the Python API underneath is 0-based.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager, suppress

# mevgen calls no BLAS: without OpenBLAS's pool, start-up costs less CPU and a fork has one thread
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from . import fileio
from .errors import (
    CsvFormatError,
    DomainError,
    InfeasibleTargetError,
    ProvenanceError,
    ShapeError,
    SpecValidationError,
)
from .model import (
    FEASIBILITY_TOL,
    _log_copula,
    _pair_log_copulas,
    log_copula,
    log_joint_cdf,
    require_valid_spec,
    tail_dep_matrix,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INVALID = 3
EXIT_PROVENANCE = 4

MAX_STABILITY_SMOKE_TOL = 1e-12

#: Flagged pairs named in ``estimate``'s warning; the report lists them all.
_LISTED_PAIRS = 10


class _UsageError(Exception):
    """Bad flag values detected after argparse; mapped to exit code 2."""


def _warn(msg: str) -> None:
    print(f"warning: {msg}", file=sys.stderr)


def _emit_json(obj: dict, out_path) -> None:
    if out_path is None:
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        fileio.dump_json(obj, out_path)
        print(f"wrote {out_path}")


def cmd_synth(args) -> int:
    from .synthesis import synthesize  # each subcommand imports the modules it runs

    target = fileio.load_tail_dep(args.target)
    result = synthesize(target, c=args.c)
    canonical = target.canonical()
    off = canonical.values[~np.eye(canonical.d, dtype=bool)]
    if np.all(off == 0.0):
        _warn("no extremal dependence requested; all margins will be independent")
    exact_feasible = result.c_min <= 1.0 + FEASIBILITY_TOL
    entrywise_bound = bool(np.all(off <= 1.0 / (canonical.d - 1)))
    fileio.dump_synthesis(result, args.out)
    print(f"d = {result.spec.d}, shared factors = {result.spec.D}")
    print(f"c_min = {result.c_min:.17g}")
    print(f"c_used = {result.c_used:.17g}")
    print(f"exact construction (scale 1): {'yes' if result.exact else 'no'}")
    print(f"exact feasible (c_min <= 1): {'yes' if exact_feasible else 'no'}")
    print(
        "entrywise sufficient bound (all coefficients <= 1/(d-1)): "
        f"{'yes' if entrywise_bound else 'no'}"
    )
    if result.exact:
        print("achieved matrix equals the target")
    else:
        print(f"achieved matrix equals target / {result.c_used:.17g}")
    print(f"wrote {args.out}")
    return EXIT_OK


@contextmanager
def _sigterm_exits():
    """Make SIGTERM raise ``SystemExit(128 + SIGTERM)`` inside the block.

    Unwinding then removes the temporary output and stops the workers, as
    Ctrl-C does, where the default action would kill the process on the spot.
    """
    import signal  # here only: no other subcommand sets a handler

    def stop(signum, frame):
        raise SystemExit(128 + signum)

    previous = stop
    with suppress(ValueError):  # handlers can be set from the main thread only
        previous = signal.signal(signal.SIGTERM, stop)
    try:
        yield
    finally:
        if previous is not stop:
            signal.signal(signal.SIGTERM, previous)


def cmd_sample(args) -> int:
    if not 0 <= args.n < 2**63:
        raise _UsageError(f"--n must be nonnegative and below 2**63, got {args.n}")
    if args.chunk_size is not None and args.chunk_size < 1:
        raise _UsageError(f"--chunk-size must be positive, got {args.chunk_size}")
    if not 0 <= args.seed < 2**64:
        raise _UsageError("--seed must fit in an unsigned 64-bit integer")
    from . import _csvfmt  # noqa: F401 (before the fork, so that the workers share it)
    from .sampling import _chunk_plan

    spec = fileio.load_spec(args.spec)
    chunk, starts = _chunk_plan(spec, args.n, args.seed, args.chunk_size)

    def text(start: int) -> bytes:
        return b"".join(fileio._csv_pieces(chunk(start), spec.d))

    with _sigterm_exits(), fileio._forked_map(text, starts) as texts:
        # the workers draw their first chunks while the digest is taken
        meta = None if args.no_sidecar else fileio._sidecar(args.n, args.seed, digest=spec.digest())
        fileio._write_csv_text(texts, spec.d, args.out, meta)
    print(f"wrote {args.n} observations of dimension {spec.d} to {args.out}")
    if meta is not None:
        print(f"wrote {fileio.sidecar_path(args.out)}")
    return EXIT_OK


def cmd_coeffs(args) -> int:
    spec = fileio.load_spec(args.spec)
    lam = tail_dep_matrix(spec).values
    eps = 2.0 - lam  # extremal coefficients; the unit diagonal of lambda gives 1
    out = {
        "d": spec.d,
        "C": spec.C,
        "lambda": lam.tolist(),
        "extremal": eps.tolist(),
    }
    _emit_json(out, args.out)
    return EXIT_OK


def _parse_point(text: str, d: int) -> np.ndarray:
    fields = text.split(",")
    if len(fields) != d:
        raise _UsageError(f"--at needs {d} comma-separated values, got {len(fields)}")
    try:
        return np.array([float(f) for f in fields])
    except ValueError:
        raise _UsageError(f"--at contains a non-numeric field: {text!r}") from None


def cmd_cdf(args) -> int:
    spec = require_valid_spec(fileio.load_spec(args.spec))
    point = _parse_point(args.at, spec.d)
    at, name, log_fn = ("u", "copula", log_copula) if args.copula else ("x", "cdf", log_joint_cdf)
    log_val = log_fn(spec, point)
    out = {at: point.tolist(), f"log_{name}": log_val, name: float(np.exp(log_val))}
    _emit_json(out, args.out)
    return EXIT_OK


def cmd_estimate(args) -> int:
    from .sampling import SampleBatch

    if not 0.0 < args.u < 1.0:
        raise _UsageError(f"--u must lie strictly between 0 and 1, got {args.u}")
    spec = spec_error = None
    with fileio._parsing_csv(args.data) as read:
        if args.spec is not None:  # while the workers parse; its errors come after the CSV's
            try:
                spec = fileio.load_spec(args.spec)
            except Exception as exc:
                spec_error = exc
        data = read()
    data.flags.writeable = False  # the batch below takes it without a copy
    meta = fileio.load_sidecar(args.data)
    if meta is not None and meta["n"] != data.shape[0]:
        raise ProvenanceError(
            f"{args.data} holds {data.shape[0]} observations but its sidecar "
            f"records n={meta['n']}; the file was truncated or edited"
        )
    if data.shape[0] == 0:
        raise _UsageError(f"{args.data} holds no observations")
    seed = int(meta["seed"]) if meta else 0
    fingerprint = meta.get("spec_fingerprint", "") if meta else ""
    digest = meta.get("spec_digest") if meta else None

    if spec_error is not None:
        raise spec_error
    if spec is not None:
        if meta is None:
            _warn(f"{args.data} has no provenance sidecar; trusting it was drawn from {args.spec}")
            digest = spec.digest()  # binds the data to this spec
    batch = SampleBatch(data=data, seed=seed, spec_fingerprint=fingerprint, spec_digest=digest)

    out = _estimate_json(batch, spec, args.u)
    del data, batch, spec  # the report alone is held while its text is written
    _emit_json(out, args.out)
    return EXIT_OK


def _estimate_json(batch, spec, u: float) -> dict:
    """``estimate``'s report on ``batch``, compared with ``spec`` unless it is None."""
    from .estimation import estimate_tail_dep, theoretical_vs_empirical

    out = estimate_tail_dep(batch, u, margins="rank").to_json_dict()
    if spec is not None:
        comparison = theoretical_vs_empirical(spec, batch, u_grid=[u])[0]
        known = comparison.to_json_dict()
        out["exact_finite_u"] = known.pop("exact_finite_u")
        out["lambda_limit"] = known.pop("lambda_limit")
        out["known"] = known
        flagged = comparison.flagged
        if flagged:
            pairs = ", ".join(f"({s + 1},{k + 1})" for s, k in flagged[:_LISTED_PAIRS])
            more = len(flagged) - _LISTED_PAIRS
            _warn(
                f"estimate deviates by more than 3 half-widths for {len(flagged)} pairs: "
                f"{pairs}{f' and {more} more' if more > 0 else ''}"
            )
    return out


def _parse_pairs(raw: list[str] | None, d: int) -> tuple[tuple[int, int], ...] | None:
    if not raw:
        return None
    pairs = []
    for item in raw:
        fields = item.split(",")
        if len(fields) != 2:
            raise _UsageError(f"--pairs entries must look like s,k, got {item!r}")
        try:
            s, k = int(fields[0]), int(fields[1])
        except ValueError:
            raise _UsageError(f"--pairs entries must be integers, got {item!r}") from None
        if not (1 <= s <= d and 1 <= k <= d):
            raise _UsageError(f"pair ({s},{k}) outside coordinate range 1..{d}")
        if s == k:
            raise _UsageError(f"pair ({s},{k}) repeats a coordinate")
        pairs.append((s - 1, k - 1))
    return tuple(pairs)


def cmd_plot(args) -> int:
    from .plotting import pair_scatter_svg

    data = fileio.read_csv(args.data)
    pairs = _parse_pairs(args.pairs, data.shape[1])
    pair_scatter_svg(data, path=args.out, log_scale=args.log, pairs=pairs)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_check(args) -> int:
    spec = fileio.load_spec(args.spec)
    lam = tail_dep_matrix(spec).values  # validates the spec
    print(f"spec valid: d={spec.d}, shared factors={spec.D}, C={spec.C:.17g}")

    eps = 2.0 - lam  # extremal coefficients; the unit diagonal of lambda gives 1
    checks: list[tuple[str, bool, str]] = []

    off = ~np.eye(spec.d, dtype=bool)
    checks.append(
        (
            "tail dependence matrix symmetric, unit diagonal, entries in [0, 1]",
            bool(
                np.array_equal(lam, lam.T)
                and np.all(np.diagonal(lam) == 1.0)
                and np.all((lam[off] >= 0.0) & (lam[off] <= 1.0))
            ),
            "",
        )
    )
    checks.append(
        (
            "extremal matrix equals 2 - lambda with entries in [1, 2]",
            bool(
                np.all(eps[off] == 2.0 - lam[off])
                and np.all((eps[off] >= 1.0) & (eps[off] <= 2.0))
            ),
            "",
        )
    )

    slack = spec.slacks()  # once: each copula point would recompute it in O(d * D)
    # eight fixed points, u in (0.05, 0.95)^d and t in (0.1, 5), from a golden-ratio
    # Weyl sequence: no generator, so check never imports numpy.random
    weyl = (np.arange(1, 9)[:, None] * np.arange(1, spec.d + 2) * 0.6180339887498949) % 1.0
    worst_ms = 0.0
    for point in weyl:
        u = 0.05 + 0.9 * point[:-1]
        t = 0.1 + 4.9 * point[-1]
        ms = _log_copula(spec, u**t, slack) - t * _log_copula(spec, u, slack)
        worst_ms = max(worst_ms, abs(ms))
    checks.append(
        (
            "max-stability: log copula(u^t) == t log copula(u)",
            worst_ms <= MAX_STABILITY_SMOKE_TOL,
            f"max deviation {worst_ms:.3e}",
        )
    )

    worst_diag = 0.0
    for s in range(spec.d - 1):
        deviation = np.abs(2.0 + _pair_log_copulas(spec, slack, s) - lam[s, s + 1 :])
        worst_diag = max(worst_diag, float(deviation.max()))
    checks.append(
        (
            "pairwise coefficients match the bivariate copula diagonal",
            worst_diag <= MAX_STABILITY_SMOKE_TOL,
            f"max deviation {worst_diag:.3e}",
        )
    )

    x = np.full(spec.d, spec.C)
    lf = log_joint_cdf(spec, x)
    checks.append(
        (
            "joint CDF is a proper probability at a finite point",
            bool(np.isfinite(lf) and lf <= 0.0),
            f"log F = {lf:.6g}",
        )
    )

    failed = 0
    for name, ok, detail in checks:
        status = "ok" if ok else "FAILED"
        suffix = f" ({detail})" if detail else ""
        print(f"{status}: {name}{suffix}")
        if not ok:
            failed += 1
    if failed:
        print(f"{failed} smoke checks failed", file=sys.stderr)
        return EXIT_INVALID
    print("all checks passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mevgen",
        description=(
            "Construct multivariate extreme value models with prescribed "
            "pairwise tail dependence, sample them, and validate the "
            "coefficients empirically."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="build a model spec from a target matrix file")
    p.add_argument("--target", required=True, help="tail dependence matrix JSON file")
    p.add_argument("--c", type=float, default=None, help="scale constant (default max(c_min, 1))")
    p.add_argument("--out", required=True, help="output path for the synthesis result JSON")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("sample", help="draw a seeded batch and write CSV")
    p.add_argument("--spec", required=True, help="spec JSON file (synthesis output accepted)")
    p.add_argument("--n", type=int, required=True, help="number of observations")
    p.add_argument("--seed", type=int, default=0, help="64-bit stream seed (default 0)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--chunk-size", type=int, default=None, help="observations per generation block")
    p.add_argument("--no-sidecar", action="store_true", help="skip the provenance sidecar")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("coeffs", help="print tail dependence and extremal matrices")
    p.add_argument("--spec", required=True, help="spec JSON file (synthesis output accepted)")
    p.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("cdf", help="evaluate the joint CDF or copula at a point")
    p.add_argument("--spec", required=True, help="spec JSON file (synthesis output accepted)")
    p.add_argument("--at", required=True, help="comma-separated coordinates, one per margin")
    p.add_argument("--copula", action="store_true", help="treat the point as copula uniforms")
    p.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_cdf)

    p = sub.add_parser("estimate", help="estimate pairwise tail dependence from CSV")
    p.add_argument("--data", required=True, help="sample CSV file")
    p.add_argument("--u", type=float, required=True, help="threshold in (0, 1)")
    p.add_argument("--spec", default=None, help="spec file enabling theoretical comparison")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("plot", help="render pairwise scatter panels to SVG")
    p.add_argument("--data", required=True, help="sample CSV file")
    p.add_argument("--out", required=True, help="output SVG path")
    p.add_argument(
        "--pairs",
        nargs="*",
        default=None,
        help="coordinate pairs like 1,2 (1-based; default: all pairs)",
    )
    p.add_argument("--log", action="store_true", help="log-scale axes")
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("check", help="validate a spec and run invariant smoke checks")
    p.add_argument("--spec", required=True, help="spec JSON file (synthesis output accepted)")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(
            f"error: JSON parse failure at line {exc.lineno} column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    except SpecValidationError as exc:
        print("error: validation failed:", file=sys.stderr)
        for v in exc.violations:
            print(f"  - {v}", file=sys.stderr)
        return EXIT_INVALID
    except (_UsageError, CsvFormatError, OSError, UnicodeDecodeError) as exc:
        prefix = "input is not UTF-8 text: " if isinstance(exc, UnicodeDecodeError) else ""
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InfeasibleTargetError, DomainError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ProvenanceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROVENANCE


if __name__ == "__main__":
    sys.exit(main())
