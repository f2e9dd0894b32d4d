"""Shared fixtures: three hand-derived reference models and hypothesis strategies.

Every golden number in the fixtures was computed by hand from the model
definitions before the implementation existed; tests compare against these
frozen values, never against the code's own output.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mevgen import ModelSpec, TailDepMatrix

# Pass/fail verdicts recorded by tests/test_acceptance.py; printed after the
# run by pytest_terminal_summary so they survive output capture.
ACCEPTANCE_RESULTS: list[tuple[str, bool, str]] = []


def record_acceptance(name: str, ok: bool, detail: str = "") -> None:
    ACCEPTANCE_RESULTS.append((name, bool(ok), detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, ok, detail in ACCEPTANCE_RESULTS:
        line = f"{'PASS' if ok else 'FAIL'}: {name}"
        if detail:
            line += f" ({detail})"
        terminalreporter.write_line(line)

# Reference model 1: d=3 margins on D=2 shared factors, scale 2.5.
# Hand computation of lambda[s,k] = sum_j min(alpha[s,j], alpha[k,j]) / C:
#   (1,2): (0.25 + 2) / 2.5 = 0.9   (1,3): (0.5 + 0.5) / 2.5 = 0.4
#   (2,3): (0.25 + 0.5) / 2.5 = 0.3
EX1_ALPHA = [[0.5, 2.0], [0.25, 2.0], [1.0, 0.5]]
EX1_C = 2.5
EX1_LAMBDA = [[1.0, 0.9, 0.4], [0.9, 1.0, 0.3], [0.4, 0.3, 1.0]]

# Reference model 2: 4x4 target with c_min = 2 (0.5 + 0.6 + 0.9 in the last
# two rows), so the default construction realizes target / 2.  The 4x6
# coefficient matrix below is the hand-unrolled pair-per-column construction:
# in the column of pair (s, k) the smaller-index row s carries lambda[s, k]
# and the larger-index row k carries the row maximum m_s (here m = 0.5, 0.6,
# 0.9), so the columnwise minimum is still lambda[s, k].
EX2_LAMBDA = [
    [1.0, 0.2, 0.5, 0.3],
    [0.2, 1.0, 0.6, 0.1],
    [0.5, 0.6, 1.0, 0.9],
    [0.3, 0.1, 0.9, 1.0],
]
EX2_C = 2.0
EX2_ALPHA = [
    [0.2, 0.5, 0.3, 0.0, 0.0, 0.0],
    [0.5, 0.0, 0.0, 0.6, 0.1, 0.0],
    [0.0, 0.5, 0.0, 0.6, 0.0, 0.9],
    [0.0, 0.0, 0.5, 0.0, 0.6, 0.9],
]
EX2_ACHIEVED = [
    [1.0, 0.1, 0.25, 0.15],
    [0.1, 1.0, 0.3, 0.05],
    [0.25, 0.3, 1.0, 0.45],
    [0.15, 0.05, 0.45, 1.0],
]

# Reference model 3: 3x3 target with c_min = max(0.2 + 0.1, 0.2 + 0.8) = 1,
# so the construction is exact at scale 1.
EX3_LAMBDA = [[1.0, 0.2, 0.1], [0.2, 1.0, 0.8], [0.1, 0.8, 1.0]]
EX3_ALPHA = [[0.2, 0.1, 0.0], [0.2, 0.0, 0.8], [0.0, 0.2, 0.8]]
EX3_C = 1.0


@pytest.fixture
def ex1_spec() -> ModelSpec:
    return ModelSpec(alpha=EX1_ALPHA, C=EX1_C)


@pytest.fixture
def ex2_target() -> TailDepMatrix:
    return TailDepMatrix(EX2_LAMBDA)


@pytest.fixture
def ex3_target() -> TailDepMatrix:
    return TailDepMatrix(EX3_LAMBDA)


@pytest.fixture
def ex3_spec() -> ModelSpec:
    return ModelSpec(alpha=EX3_ALPHA, C=EX3_C)


def weight_matrices(max_d: int = 6, max_shared: int = 8):
    """Strategy for nonnegative (d, D) weight matrices."""
    return st.integers(2, max_d).flatmap(
        lambda d: st.integers(1, max_shared).flatmap(
            lambda big_d: arrays(
                np.float64,
                (d, big_d),
                elements=st.floats(0.0, 2.0, allow_nan=False, allow_infinity=False),
            )
        )
    )


@st.composite
def model_specs(draw, max_d: int = 6, max_shared: int = 8) -> ModelSpec:
    """Valid specs: nonnegative weights, scale above the largest row sum."""
    alpha = draw(weight_matrices(max_d, max_shared))
    headroom = draw(st.floats(0.0, 2.0, allow_nan=False))
    slack_free = draw(st.booleans())
    base = float(alpha.sum(axis=1).max())
    # a slack-free scale must be a normal float64, which validation requires
    c = base if (slack_free and base >= np.finfo(np.float64).tiny) else base + headroom + 0.25
    return ModelSpec(alpha=alpha, C=c)


@st.composite
def tail_dep_targets(draw, max_d: int = 8, capped: bool = False) -> TailDepMatrix:
    """Valid symmetric targets with unit diagonal; ``capped`` bounds entries
    at 1/(d-1), the entrywise sufficient condition for an exact build."""
    d = draw(st.integers(2, max_d))
    hi = 1.0 / (d - 1) if capped else 1.0
    raw = draw(
        arrays(
            np.float64,
            (d, d),
            elements=st.floats(0.0, hi, allow_nan=False, allow_infinity=False),
        )
    )
    lam = np.triu(raw, k=1)
    lam = lam + lam.T
    np.fill_diagonal(lam, 1.0)
    return TailDepMatrix(lam)


@st.composite
def unit_points(draw, d: int) -> np.ndarray:
    """Points in the open copula domain (0, 1)^d, bounded away from 0."""
    return draw(
        arrays(
            np.float64,
            (d,),
            elements=st.floats(0.01, 1.0, allow_nan=False, exclude_max=False),
        )
    )
