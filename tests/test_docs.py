"""The public API and the README stay in step."""

from __future__ import annotations

import re
from pathlib import Path

import mevgen as mg
from mevgen import fileio, sampling

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in mg.__all__ if not hasattr(mg, name)]
    assert missing == []


def test_public_names_are_pinned():
    assert sorted(mg.__all__) == [
        "CsvFormatError",
        "DEFAULT_U_GRID",
        "DomainError",
        "EstimateReport",
        "FEASIBILITY_TOL",
        "FormatError",
        "InfeasibleTargetError",
        "MevError",
        "ModelSpec",
        "ProvenanceError",
        "SampleBatch",
        "ShapeError",
        "SpecValidationError",
        "SynthesisResult",
        "TailDepMatrix",
        "ThresholdComparison",
        "Z_95",
        "__version__",
        "copula",
        "estimate_tail_dep",
        "extremal_matrix",
        "finite_u_tail_dep",
        "joint_cdf",
        "ks_statistic",
        "log_copula",
        "log_joint_cdf",
        "marginal_cdf",
        "multivariate_extremal_coeff",
        "pair_scatter_svg",
        "require_valid_spec",
        "require_valid_tail_dep_matrix",
        "sample_batch",
        "sample_chunks",
        "synthesize",
        "tail_dep_matrix",
        "theoretical_vs_empirical",
    ]


def test_readme_library_quick_start_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, f"{README}:quick start", "exec"), {})


def test_readme_references_resolve():
    # `ModelSpec.x`, `fileio.x` and `sampling.X` name attributes; `tests/f.py::A::b`
    # names a class or function defined in that file
    text = README.read_text(encoding="utf-8")
    owners = {"ModelSpec": mg.ModelSpec, "fileio": fileio, "sampling": sampling}
    found, missing = set(), []
    for owner, name in re.findall(r"`(ModelSpec|fileio|sampling)\.(\w+)`", text):
        found.add(owner)
        if not hasattr(owners[owner], name):
            missing.append(f"{owner}.{name}")
    for path, names in re.findall(r"`(tests/[\w/]+\.py)((?:::\w+)+)`", text):
        found.add("tests")
        source = (README.parent / path).read_text(encoding="utf-8")
        for name in names.split("::")[1:]:
            if not re.search(rf"^\s*(class|def) {name}\b", source, re.MULTILINE):
                missing.append(f"{path}::{name}")
    assert found and missing == []
