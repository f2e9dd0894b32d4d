"""The benchmark's workloads: generated inputs, CLI stages, output checks.

Every input comes from the workload seed through numpy's generator, so the
same seed gives the same files.  mevgen receives only those files: a target
tail-dependence matrix for ``tall`` and ``wide``, a hand-written-style spec
for ``dense``.

Why these three (each stresses a different layer of the same pipeline):

``tall``  d=20 target, D=190, n=45 000; synth > sample > estimate > plot.
          Per-observation work dominates: Philox words and ``log`` in
          sampling, CSV write and read, the rank transform and exceedance
          counts, and the SVG.  lambda and spec I/O are close to 0 here.
``wide``  d=160 target, D=12 720 (alpha 16 MB dense, 1.25% nonzero), n=500;
          synth > coeffs > sample > estimate.  Per-spec work dominates:
          synthesis, the lambda matrix (computed 4 times per pipeline), a
          28 MB spec JSON, the spec fingerprint and the dense factor max
          (d*D = 2M multiply-max per observation).
``dense`` a spec with every alpha > 0 (d=80, D=1600, row sums below C, so
          idiosyncratic terms are live), n=5 000; sample > estimate > check.
          The same sampling, lambda and estimation code runs with no zero
          weights to skip, so a sparse-only path that slows general specs
          shows here; it also runs ``check``'s closed-form copula loop.

Left out on purpose:

* ``check`` on ``wide``: it costs about O(d^3 * D), minutes at d=200.
* ``coeffs`` and ``plot`` run only where they do more than interpreter
  start-up (``coeffs`` on ``wide``, ``plot`` on ``tall``).
* d=200 for ``wide``, closer to the motivating size: a pass then takes
  about 16 s on a 2-core Xeon VM, too few passes for a steady median.
* Word generation, the Frechet transform and the factor max inside
  ``sample_batch`` are one span until the library traces itself.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Seed whose sampled data must also match a digest recorded in DIGESTS.
DEFAULT_SEED = 0

#: sha256 of the float64 sample matrix (C order) drawn for DEFAULT_SEED.
DIGESTS = {
    "tall": "69d055565edea47698bd2512ab6636920e210b86adf28a5358f257046b5b85cd",
    "wide": "b9f25e329a4435b2a2d45ee403b2b8792d07415aea11801df3437c5efb7f2869",
    "dense": "cf2553e6186dfe0d3e23227fa1a452dc9c82511090ac4c7b44f6953debfd0086",
}

#: The sample check redraws this many leading rows in process, in chunks of
#: an odd size, so it also checks that output does not depend on chunking.
PREFIX_ROWS = 37
PREFIX_CHUNK = 5

PLOT_PAIRS = ("1,2", "1,3", "2,3")


@dataclass(frozen=True)
class Workload:
    name: str
    d: int
    n: int
    u: float
    stages: tuple[str, ...]
    dense_factors: int = 0  # D of a generated all-positive spec; 0 = synthesize a target


WORKLOADS = {
    w.name: w
    for w in (
        Workload("tall", d=20, n=45_000, u=0.95, stages=("synth", "sample", "estimate", "plot")),
        Workload("wide", d=160, n=500, u=0.9, stages=("synth", "coeffs", "sample", "estimate")),
        Workload(
            "dense", d=80, n=5_000, u=0.95, stages=("sample", "estimate", "check"),
            dense_factors=1600,
        ),
    )
}

ALL_STAGES = ("synth", "coeffs", "sample", "estimate", "plot", "check")


@dataclass
class Inputs:
    """One workload's generated files and the facts the checks compare to."""

    workload: Workload
    seed: int
    work: Path
    lam: np.ndarray  # exact tail-dependence matrix of the sampled spec
    big_d: int
    sample_seed: int
    _spec: object = field(default=None, repr=False)

    def path(self, key: str) -> Path:
        return self.work / {
            "target": "target.json",
            "model": "model.json",
            "spec": "spec.json",
            "coeffs": "coeffs.json",
            "csv": "samples.csv",
            "meta": "samples.csv.meta.json",
            "estimate": "estimate.json",
            "svg": "pairs.svg",
        }[key]

    @property
    def spec_path(self) -> Path:
        """The spec file every stage after ``synth`` reads."""
        return self.path("spec" if self.workload.dense_factors else "model")

    def spec(self):
        """The sampled spec, read through mevgen's own loader once per run."""
        if self._spec is None:
            from mevgen import fileio
            from mevgen.model import ModelSpec

            obj = fileio.load_json(self.spec_path)
            if isinstance(obj.get("spec"), dict):
                obj = obj["spec"]
            self._spec = ModelSpec.from_json_dict(obj)
        return self._spec


def generate(workload: Workload, seed: int, work: Path) -> Inputs:
    """Write the workload's input file for ``seed`` into ``work``."""
    rng = np.random.default_rng(seed)
    d = workload.d
    if workload.dense_factors:
        big_d = workload.dense_factors
        alpha = rng.uniform(0.2, 1.0, size=(d, big_d))
        alpha *= (rng.uniform(0.5, 0.9, size=d) / alpha.sum(axis=1))[:, None]
        lam = np.array([np.minimum(alpha, alpha[s]).sum(axis=1) for s in range(d)])
        np.fill_diagonal(lam, 1.0)
        doc = {"d": d, "D": big_d, "C": 1.0, "alpha": alpha.tolist()}
        name = "spec.json"
    else:
        # Entries at most 1/(d-1) make the construction exact at C = 1; all
        # positive, so every row of alpha has d-1 nonzeros (density 2/d).
        big_d = d * (d - 1) // 2
        iu = np.triu_indices(d, k=1)
        vals = rng.uniform(0.05, 1.0, size=iu[0].size) / (d - 1)
        lam = np.eye(d)
        lam[iu] = vals
        lam[iu[1], iu[0]] = vals
        doc = {"d": d, "lambda": lam.tolist()}
        name = "target.json"
    (work / name).write_text(json.dumps(doc), encoding="utf-8")
    sample_seed = int(rng.integers(0, 2**63))
    return Inputs(workload, seed, work, lam, big_d, sample_seed)


def stage_argv(stage: str, inp: Inputs) -> list[str]:
    """Arguments after ``mevgen`` for one stage; all paths absolute."""
    p, w = inp.path, inp.workload
    spec = str(inp.spec_path)
    return {
        "synth": ["synth", "--target", str(p("target")), "--out", str(p("model"))],
        "coeffs": ["coeffs", "--spec", spec, "--out", str(p("coeffs"))],
        "sample": [
            "sample", "--spec", spec, "--n", str(w.n), "--seed", str(inp.sample_seed),
            "--out", str(p("csv")),
        ],
        "estimate": [
            "estimate", "--data", str(p("csv")), "--u", repr(w.u), "--spec", spec,
            "--out", str(p("estimate")),
        ],
        "plot": ["plot", "--data", str(p("csv")), "--out", str(p("svg")), "--pairs", *PLOT_PAIRS],
        "check": ["check", "--spec", spec],
    }[stage]


def stage_files(stage: str, inp: Inputs) -> tuple[list[Path], list[Path]]:
    """(files the stage reads, files it writes)."""
    p, spec = inp.path, inp.spec_path
    return {
        "synth": ([p("target")], [p("model")]),
        "coeffs": ([spec], [p("coeffs")]),
        "sample": ([spec], [p("csv"), p("meta")]),
        "estimate": ([p("csv"), p("meta"), spec], [p("estimate")]),
        "plot": ([p("csv")], [p("svg")]),
        "check": ([spec], []),
    }[stage]


def output_digest(stage: str, inp: Inputs, stdout: str) -> str:
    """sha256 of what the stage produced; equal across passes of one run."""
    h = hashlib.sha256(stdout.encode() if stage == "check" else b"")
    for path in stage_files(stage, inp)[1]:
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def check_output(stage: str, inp: Inputs, stdout: str) -> list[str]:
    """Problems with one stage's output; empty when it is correct."""
    try:
        return _CHECKS[stage](inp, stdout)
    except Exception as exc:  # missing or malformed output, or the redraw raised
        return [f"{stage}: check raised {exc!r}"]


def _check_synth(inp: Inputs, stdout: str) -> list[str]:
    obj = json.loads(inp.path("model").read_text(encoding="utf-8"))
    problems = []
    if obj["exact"] is not True:
        problems.append("synth: construction not exact")
    if not np.array_equal(np.array(obj["achieved"]["lambda"], dtype=float), inp.lam):
        problems.append("synth: achieved lambda differs from the target")
    return problems


def _check_coeffs(inp: Inputs, stdout: str) -> list[str]:
    obj = json.loads(inp.path("coeffs").read_text(encoding="utf-8"))
    lam = np.array(obj["lambda"], dtype=float)
    eps = np.array(obj["extremal"], dtype=float)
    off = ~np.eye(inp.workload.d, dtype=bool)
    problems = []
    if not np.array_equal(lam, inp.lam):
        problems.append("coeffs: lambda differs from the target")
    if not (np.array_equal(eps[off], 2.0 - lam[off]) and np.all(np.diagonal(eps) == 1.0)):
        problems.append("coeffs: extremal matrix is not 2 - lambda")
    return problems


def _check_sample(inp: Inputs, stdout: str) -> list[str]:
    from mevgen.sampling import sample_batch

    w = inp.workload
    problems = []
    with open(inp.path("csv"), encoding="utf-8") as fh:
        header = fh.readline().strip()
        prefix = [fh.readline() for _ in range(PREFIX_ROWS)]
    if header != ",".join(f"x{i + 1}" for i in range(w.d)):
        problems.append(f"sample: bad header {header[:40]!r}")
    got = np.array([[float(f) for f in line.split(",")] for line in prefix])
    ref = sample_batch(inp.spec(), PREFIX_ROWS, inp.sample_seed, chunk_size=PREFIX_CHUNK).data
    if got.shape != ref.shape or not np.array_equal(got.view(np.uint64), ref.view(np.uint64)):
        problems.append(f"sample: first {PREFIX_ROWS} rows differ from an in-process redraw")
    with open(inp.path("csv"), "rb") as fh:
        rows = sum(block.count(b"\n") for block in iter(lambda: fh.read(1 << 20), b"")) - 1
    if rows != w.n:
        problems.append(f"sample: {rows} rows written, expected {w.n}")
    if inp.seed == DEFAULT_SEED:
        data = np.loadtxt(inp.path("csv"), delimiter=",", skiprows=1, ndmin=2)
        digest = hashlib.sha256(np.ascontiguousarray(data).tobytes()).hexdigest()
        if digest != DIGESTS[w.name]:
            problems.append(f"sample: data sha256 {digest} differs from the recorded digest")
    return problems


def exceedances_per_margin(w: Workload) -> int:
    """Rank uniforms r/(n+1) above u: exactly n - floor(u (n+1)) per margin."""
    return w.n - math.floor(w.u * (w.n + 1))


def _check_estimate(inp: Inputs, stdout: str) -> list[str]:
    obj = json.loads(inp.path("estimate").read_text(encoding="utf-8"))
    limit = np.array(obj["lambda_limit"], dtype=float)
    problems = []
    if inp.workload.dense_factors:
        # inp.lam was summed by the benchmark, possibly in another order.
        same = limit.shape == inp.lam.shape and np.allclose(limit, inp.lam, rtol=0, atol=1e-12)
    else:
        same = np.array_equal(limit, inp.lam)
    if not same:
        problems.append("estimate: lambda_limit differs from the spec's lambda")
    diag = np.diagonal(np.array(obj["counts"], dtype=np.int64))
    if not np.all(diag == exceedances_per_margin(inp.workload)):
        problems.append("estimate: rank-margin exceedance counts are not n - floor(u(n+1))")
    return problems


def flagged_pairs(inp: Inputs) -> int:
    obj = json.loads(inp.path("estimate").read_text(encoding="utf-8"))
    return len(obj["known"]["flagged_pairs"])


_PANEL_TITLE = re.compile(r">X_\d+ vs X_\d+")


def _check_plot(inp: Inputs, stdout: str) -> list[str]:
    panels = len(_PANEL_TITLE.findall(inp.path("svg").read_text(encoding="utf-8")))
    return [] if panels == len(PLOT_PAIRS) else [f"plot: {panels} panels, expected 3"]


def plot_points(inp: Inputs) -> int:
    return inp.path("svg").read_text(encoding="utf-8").count("<circle")


def _check_check(inp: Inputs, stdout: str) -> list[str]:
    return [] if "all checks passed" in stdout else ["check: output lacks 'all checks passed'"]


_CHECKS = {
    "synth": _check_synth,
    "coeffs": _check_coeffs,
    "sample": _check_sample,
    "estimate": _check_estimate,
    "plot": _check_plot,
    "check": _check_check,
}
