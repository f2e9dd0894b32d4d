"""mevgen benchmark: CLI stage times end to end, per-module spans traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tall --seed 0 --seconds 40 --trace 0

The load is a closed loop from this one process: each stage is one
``python -m mevgen.cli <subcommand>`` process, started only after the
previous one has ended, so nothing runs concurrently.  A run repeats the
workload's pipeline until ``--seconds`` are used up and reports medians.

``--trace 0`` (end to end, tracing off) reports ``sample_s``, ``estimate_s``,
``pipeline_s`` (sum of the workload's stage times), ``setup_s`` (fresh
interpreter: import ``mevgen.cli``, then load and validate the spec file)
and ``peak_rss_mb`` (largest max-RSS among a pass's stage processes).  The
other stage times (``synth_s``, ``coeffs_s``, ``plot_s``, ``check_s``) and
``failed_share`` are printed as report lines only: they exist on some
workloads, and a metric in the result must exist, non-zero, on every one.

The times in the result are scaled to a reference host speed.  On a shared
host the speed of a core drifts by a third or more over minutes, so the
same code reads very differently from one run to the next.  A fixed
calibration kernel (:class:`Calibration`, benchmark code that never calls
mevgen) is timed right before and right after every stage and set-up, and
each wall time is multiplied by ``CALIB_REF_S`` over the mean of the two
calibration times around it.  A change to mevgen moves the stage time and
not the kernel's, so it shows in full.  Unscaled wall-time medians are
printed as report lines next to them.

``--trace 1`` runs the same subcommands in this process through
``mevgen.cli.main`` with spans around every call into the library (see
tracing.py), alternating with untraced in-process passes; the difference
between the two is the tracing overhead.  It reports the per-layer metrics.

Every stage's output is checked (workloads.py); each non-zero exit and each
failed check counts in ``failed``.  The last line of standard output is the
JSON result.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from tracing import SPAN_NAMES, Tracer
from workloads import (
    ALL_STAGES,
    WORKLOADS,
    Inputs,
    check_output,
    exceedances_per_margin,
    flagged_pairs,
    generate,
    output_digest,
    plot_points,
    stage_argv,
    stage_files,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Fresh-interpreter set-up repeats per run (more when passes are many).
SETUP_REPEATS = 5

#: A stage process still running after this many seconds is killed.
STAGE_LIMIT_S = 120.0

#: Time of one :meth:`Calibration.seconds` call at the reference host
#: speed, about its median on a 2-core Xeon VM (Python 3.11, numpy 2.4),
#: where it read 0.07 to 0.10 s.  Scaled times read as seconds on a host
#: where the kernel takes this long.
CALIB_REF_S = 0.1

SETUP_CODE = """\
import sys
import mevgen.cli
from mevgen import fileio
from mevgen.model import ModelSpec, require_valid_spec
obj = fileio.load_json(sys.argv[1])
if isinstance(obj.get("spec"), dict):
    obj = obj["spec"]
require_valid_spec(ModelSpec.from_json_dict(obj))
"""

class Accounting:
    """Attempted and failed operations: stage runs, set-ups and checks."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _timed_process(cmd: list[str], env: dict, out: Path, err: Path) -> tuple[float, int, int]:
    """Run one process to completion: (wall seconds, max RSS in KiB, exit code)."""
    with open(out, "wb") as fo, open(err, "wb") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, env=env, cwd=ROOT)
        timer = threading.Timer(STAGE_LIMIT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss, proc.returncode


class Calibration:
    """A fixed mix of numpy and pure-Python work, timed between stages.

    It resembles what the stages do, so a slow stretch of the host slows
    it alike: Frechet transform and weighted maxima over a 13 MB array, then
    float formatting and parsing.
    """

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.u = rng.random((1000, 1600)) * 0.999 + 0.0005
        self.w = rng.random((16, 1600))
        self.floats = rng.random(4000).tolist()

    def seconds(self) -> float:
        t0 = time.perf_counter()
        z = -1.0 / np.log(self.u)
        for row in self.w:
            (z * row).max(axis=1)
        for _ in range(6):
            text = ",".join(map(repr, self.floats))
            sum(map(float, text.split(",")))
        return time.perf_counter() - t0


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _quartiles(values) -> str:
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.4f}, q3 {q3:.4f}, "


def _check_outputs(inp: Inputs, acct: Accounting, stdout_of: dict[str, str]) -> None:
    for stage in inp.workload.stages:
        problems = check_output(stage, inp, stdout_of.get(stage, ""))
        acct.record(not problems, "; ".join(problems))


class DigestCheck:
    """Each pass must write byte-identical outputs to the first pass."""

    def __init__(self):
        self.first: dict[str, str] = {}

    def record(self, inp: Inputs, acct: Accounting, stdout_of: dict[str, str]) -> None:
        for stage in inp.workload.stages:
            try:
                digest = output_digest(stage, inp, stdout_of.get(stage, ""))
            except OSError as exc:
                acct.record(False, f"{stage}: output missing: {exc}")
                continue
            if stage not in self.first:
                self.first[stage] = digest
            else:
                acct.record(digest == self.first[stage], f"{stage}: output changed between passes")


def _enough(t0: float, passes: int, seconds: float) -> bool:
    """True when another pass of average length would overrun the budget."""
    elapsed = time.perf_counter() - t0
    return elapsed + elapsed / passes > seconds


def run_untraced(inp: Inputs, seconds: float, acct: Accounting) -> tuple[dict, list[str]]:
    env = _env()
    work = inp.work
    # Compile bytecode and warm the interpreter's files once, untimed.
    _timed_process([sys.executable, "-c", "import mevgen.cli"], env, work / "w.out", work / "w.err")

    digests = DigestCheck()
    stages = inp.workload.stages
    raw: dict[str, list[float]] = {s: [] for s in stages}
    scaled: dict[str, list[float]] = {s: [] for s in stages}
    raw_totals, totals, rss, raw_setups, setups, calibs = [], [], [], [], [], []
    stdout_of: dict[str, str] = {}
    kernel = Calibration()
    kernel.seconds()  # warm-up, untimed

    def scale(wall: float, before: float) -> tuple[float, float]:
        """(scaled time, calibration time after); see the module docstring."""
        after = kernel.seconds()
        calibs.append(after)
        return wall * CALIB_REF_S / ((before + after) / 2), after

    def setup_once(before: float) -> float:
        cmd = [sys.executable, "-c", SETUP_CODE, str(inp.spec_path)]
        wall, _, rc = _timed_process(cmd, env, work / "setup.out", work / "setup.err")
        acct.record(rc == 0, f"setup: exit {rc}")
        value, after = scale(wall, before)
        if rc == 0:
            raw_setups.append(wall)
            setups.append(value)
        return after

    calib = kernel.seconds()
    calibs.append(calib)
    t0 = time.perf_counter()
    passes = 0
    while True:
        passes += 1
        raw_total, total, peak = 0.0, 0.0, 0
        for stage in stages:
            cmd = [sys.executable, "-m", "mevgen.cli", *stage_argv(stage, inp)]
            out, err = work / f"{stage}.out", work / f"{stage}.err"
            wall, maxrss, rc = _timed_process(cmd, env, out, err)
            acct.record(rc == 0, f"{stage}: exit {rc}: {err.read_text(errors='replace')[-300:]}")
            stdout_of[stage] = out.read_text(errors="replace")
            value, calib = scale(wall, calib)
            raw[stage].append(wall)
            scaled[stage].append(value)
            raw_total += wall
            total += value
            peak = max(peak, maxrss)
        raw_totals.append(raw_total)
        totals.append(total)
        rss.append(peak / 1024.0)
        digests.record(inp, acct, stdout_of)
        calib = setup_once(calib)
        if _enough(t0, passes, seconds):
            break
    for _ in range(SETUP_REPEATS - passes):
        calib = setup_once(calib)
    _check_outputs(inp, acct, stdout_of)

    metrics = {
        "sample_s": (_median(scaled["sample"]), "s"),
        "estimate_s": (_median(scaled["estimate"]), "s"),
        "pipeline_s": (_median(totals), "s"),
        "setup_s": (_median(setups), "s"),
        "peak_rss_mb": (_median(rss), "MB"),
    }
    lines = [
        f"passes: {passes} (stage times are medians over passes)",
        f"calibration kernel {_median(calibs):.4f} s ({_quartiles(calibs)}n={len(calibs)}); "
        f"times below are scaled to {CALIB_REF_S} s for it, raw wall medians in brackets",
    ]
    for stage in stages:
        v = scaled[stage]
        lines.append(
            f"{stage}_s {_median(v):.4f} s ({_quartiles(v)}min {min(v):.4f}, max {max(v):.4f}, "
            f"n={len(v)}) [raw {_median(raw[stage]):.4f} s]"
        )
    lines.append(
        f"pipeline_s {_median(totals):.4f} s ({_quartiles(totals)}n={len(totals)}) "
        f"[raw {_median(raw_totals):.4f} s]"
    )
    lines.append(
        f"setup_s {_median(setups):.4f} s ({_quartiles(setups)}n={len(setups)}) "
        f"[raw {_median(raw_setups):.4f} s]"
    )
    lines.append(f"peak_rss_mb {_median(rss):.1f} MB (max over a pass's stages, median over passes)")
    return metrics, lines


def _run_inprocess(cli, inp: Inputs, tracer: Tracer | None, stdout_of: dict, acct: Accounting):
    """One pass through ``cli.main``; returns {stage: (span index or None, wall)}."""
    walls = {}
    for stage in inp.workload.stages:
        out, err = io.StringIO(), io.StringIO()
        index = None
        t0 = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                if tracer is None:
                    rc = cli.main(stage_argv(stage, inp))
                else:
                    index = len(tracer.spans)
                    with tracer.span(f"cli.{stage}"):
                        rc = cli.main(stage_argv(stage, inp))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback from the CLI counts as a failed stage
            rc = 1
            err.write(traceback.format_exc())
        walls[stage] = (index, time.perf_counter() - t0)
        acct.record(rc == 0, f"{stage}: exit {rc}: {err.getvalue()[-300:]}")
        stdout_of[stage] = out.getvalue()
    return walls


def run_traced(inp: Inputs, seconds: float, acct: Accounting) -> tuple[dict, list[str]]:
    import mevgen.cli as cli

    w = inp.workload
    digests = DigestCheck()
    stdout_of: dict[str, str] = {}
    plain_totals, traced_totals = [], []
    layer: dict[str, list[float]] = {name: [] for name in SPAN_NAMES}
    calls: dict[str, list[int]] = {name: [] for name in SPAN_NAMES}
    stage_wall = {s: [] for s in w.stages}
    stage_glue = {s: [] for s in w.stages}
    stage_cov = {s: [] for s in w.stages}

    t0 = time.perf_counter()
    # One untimed pass first, so first-call costs in this process do not land
    # on whichever side of the first pair runs first.
    _run_inprocess(cli, inp, None, stdout_of, acct)
    digests.record(inp, acct, stdout_of)
    pairs = 0
    while True:
        pairs += 1
        for traced in ((False, True) if pairs % 2 else (True, False)):
            tracer = Tracer() if traced else None
            if traced:
                with tracer.patched():
                    walls = _run_inprocess(cli, inp, tracer, stdout_of, acct)
            else:
                walls = _run_inprocess(cli, inp, None, stdout_of, acct)
            digests.record(inp, acct, stdout_of)
            (traced_totals if traced else plain_totals).append(sum(v for _, v in walls.values()))
            if not traced:
                continue
            totals = tracer.totals()
            for name in SPAN_NAMES:
                secs, n = totals.get(name, (0.0, 0))
                layer[name].append(secs)
                calls[name].append(n)
            for stage, (index, _) in walls.items():
                span = tracer.spans[index]
                wall = span.end - span.start
                child = sum(c.end - c.start for c in tracer.children(index))
                stage_wall[stage].append(wall)
                stage_glue[stage].append(wall - child)
                stage_cov[stage].append(child / wall)
        # Two pairs at least, so each order of the pair runs once.
        if pairs >= 2 and _enough(t0, pairs, seconds):
            break
    _check_outputs(inp, acct, stdout_of)

    n, d, big_d = w.n, w.d, inp.big_d
    csv_mb = _mb([inp.path("csv")])
    med = {name: _median(v) for name, v in layer.items()}
    words = n * (big_d + d)
    csv_reads = _median(calls["fileio.read_csv"])
    computed = {
        "sampling.words": (words, "count"),
        "sampling.factor_ops": (n * d * big_d, "count"),
        "model.alpha_density": (
            _or_zero(lambda: np.count_nonzero(inp.spec().alpha) / (d * big_d)), "share"
        ),
        "fileio.spec_json_mb": (_mb([inp.spec_path]), "MB"),
        "fileio.csv_mb": (csv_mb, "MB"),
        "fileio.mb_read": (_mb(p for s in w.stages for p in stage_files(s, inp)[0]), "MB"),
        "fileio.mb_written": (_mb(p for s in w.stages for p in stage_files(s, inp)[1]), "MB"),
        "estimation.exceedances": (d * exceedances_per_margin(w), "count"),
    }
    counted = {
        "model.log_copula_calls": (_median(calls["model.log_copula"]), "count"),
        "estimation.flagged_pairs": (_or_zero(lambda: flagged_pairs(inp)), "count"),
        "plotting.points": (
            _or_zero(lambda: plot_points(inp)) if "plot" in w.stages else 0, "count"
        ),
    }
    rates = {
        "sampling.words_per_s": (_ratio(words, med["sampling.sample_batch"]), "1/s"),
        "fileio.write_csv_mb_per_s": (_ratio(csv_mb, med["fileio.write_csv"]), "MB/s"),
        "fileio.read_csv_mb_per_s": (
            _ratio(csv_mb * csv_reads, med["fileio.read_csv"]), "MB/s"
        ),
    }
    metrics = {f"{name}_s": (med[name], "s") for name in SPAN_NAMES}
    metrics.update(computed)
    metrics.update(counted)
    metrics.update(rates)
    for stage in ALL_STAGES:
        metrics[f"cli.{stage}.wall_s"] = (_median(stage_wall.get(stage, [])), "s")
        metrics[f"cli.{stage}.glue_s"] = (_median(stage_glue.get(stage, [])), "s")
        metrics[f"trace.{stage}.coverage"] = (_median(stage_cov.get(stage, [])), "share")
    # Paired differences: the two passes of a pair ran back to back, so a slow
    # stretch of the shared machine mostly cancels out.
    plain, traced = _median(plain_totals), _median(traced_totals)
    overhead = _median([t - p for t, p in zip(traced_totals, plain_totals)])
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_share"] = (_ratio(overhead, plain), "share")

    lines = [
        f"pairs: {pairs} untraced + traced in-process passes (layer values are medians "
        "over traced passes)",
        f"in-process pass: untraced {plain:.4f} s, traced {traced:.4f} s",
    ]
    for name, (value, unit) in metrics.items():
        note = " (computed)" if name in computed else " (counted)" if name in counted else ""
        lines.append(f"{name} {value:.6g} {unit}{note}")
    return metrics, lines


def _ratio(a: float, b: float) -> float:
    return a / b if b > 0 else 0.0


def _mb(paths) -> float:
    """Total size of the files that exist, in MB."""
    return sum(p.stat().st_size for p in paths if p.exists()) / 1e6


def _or_zero(count) -> float:
    """A count read from the outputs; 0 when a failed stage left none to read."""
    try:
        return count()
    except Exception:  # already counted as a failed check; the count is moot
        return 0.0


def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu
            )
    except OSError:
        pass
    blas_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "blas_threads": {v: os.environ.get(v) for v in blas_vars},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "mevgen" / "cli.py").is_file():
        print(f"error: no mevgen sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench-work" / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True)
    acct = Accounting()
    try:
        inp = generate(workload, args.seed, work)
        runner = run_traced if args.trace else run_untraced
        metrics, lines = runner(inp, args.seconds, acct)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    failed = len(acct.failures)
    print(f"env: {json.dumps(environment(), sort_keys=True)}")
    print(
        f"workload {workload.name}, seed {args.seed}: d={workload.d} D={inp.big_d} "
        f"n={workload.n} u={workload.u} stages={'>'.join(workload.stages)} "
        f"sample seed {inp.sample_seed}; closed loop, one client, stages run one at a time"
    )
    for line in lines:
        print(line)
    print(f"failed_share {failed / acct.attempted:.4f} ({failed} failed of {acct.attempted} "
          "stage runs, set-ups and output checks)")
    for what in acct.failures[:20]:
        print(f"FAILED: {what}")
    result = {
        "correct": failed == 0,
        "attempted": acct.attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
