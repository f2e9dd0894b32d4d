"""Smoke tests for the scripts under scripts/: they run and write readable files."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import mevgen as mg
from mevgen import fileio

ROOT = Path(__file__).resolve().parent.parent


def test_run_pipeline_writes_readable_outputs(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_pipeline.py"),
         "--n", "2000", "--outdir", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    spec = fileio.load_spec(tmp_path / "model.json")
    data = fileio.read_csv(tmp_path / "samples.csv")
    assert data.shape == (2000, spec.d)
    assert fileio.load_sidecar(tmp_path / "samples.csv")["spec_fingerprint"] == spec.fingerprint()
    estimates = json.loads((tmp_path / "estimates.json").read_text())
    assert [e["u"] for e in estimates] == list(mg.estimation.DEFAULT_U_GRID)
    assert all(e["n"] == 2000 for e in estimates)
