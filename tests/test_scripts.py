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
    assert fileio.load_sidecar(tmp_path / "samples.csv")["spec_digest"] == spec.digest()
    estimates = json.loads((tmp_path / "estimates.json").read_text())
    assert [e["u"] for e in estimates] == list(mg.estimation.DEFAULT_U_GRID)
    assert all(e["n"] == 2000 for e in estimates)


def _line_count(*args: str) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "line_count.py"), *args],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_line_count_sorts_every_line_by_kind(tmp_path):
    (tmp_path / "m.py").write_text(
        '"""Module docstring\n\nover three lines."""\n'
        "\n"
        "# a comment\n"
        "X = 1  # code with a comment\n"
        "\n"
        "def f():\n"
        '    """One line."""\n'
        "    return X\n"
    )
    assert _line_count(str(tmp_path))[-1] == (
        f"{tmp_path.name}: 10 = 3 + 4 + 1 + 2 (code + docstring + comment + blank)"
    )
    # the package's total is its files' line count
    total = sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "mevgen").glob("*.py"))
    assert _line_count()[-1].startswith(f"mevgen: {total:,} = ")
