"""Shared fixtures: three hand-derived reference models and hypothesis strategies.

Every golden number in the fixtures was computed by hand from the model
definitions before the implementation existed; tests compare against these
frozen values, never against the code's own output.
"""

from __future__ import annotations

import io
import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # as mevgen.cli starts numpy

import numpy as np  # noqa: E402
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


def child_pids() -> list[int]:
    """The pids of this process's children, running or not yet reaped, as the kernel lists them."""
    pids = []
    for tid in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{tid}/children") as fh:
                pids += map(int, fh.read().split())
        except FileNotFoundError:  # the thread has ended
            pass
    return sorted(pids)


def savetxt_bytes(data: np.ndarray) -> bytes:
    """Reference CSV bytes of a sample matrix: ``np.savetxt``, the writer before streaming."""
    buf = io.BytesIO()
    header = ",".join(f"x{i + 1}" for i in range(data.shape[1]))
    np.savetxt(buf, data, fmt="%.17g", delimiter=",", header=header, comments="")
    return buf.getvalue()


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


def digit_families(rng: np.random.Generator, size: int) -> list[np.ndarray]:
    """Weights whose shortest digits are hard to find, ``size`` of each family: short
    decimals, powers of two, integers, values below 1e-4 and either side of 1e15."""
    return [
        rng.uniform(0.0, 2.0, size),
        *(np.round(rng.uniform(0.0, 1.0, size), places) for places in (1, 2, 3, 4)),
        np.ldexp(1.0, rng.integers(-20, 20, size)),
        np.ldexp(1.0, rng.integers(-30, 31, size)),
        rng.choice([1.0, 2.0], size),
        rng.uniform(0.0, 1e-4, size),
        1e15 + rng.uniform(0.0, 10.0, size),
        1e15 + rng.uniform(-8.0, 8.0, size),
    ]


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


#: Kinds of dense row drawn by :func:`dense_row_specs`.
DENSE_ROW_KINDS = ("uniform", "dominant", "equal", "signed zeros", "just dense")


@st.composite
def dense_row_specs(draw, max_d: int = 24, max_shared: int = 300) -> ModelSpec:
    """Valid specs whose rows are nearly all dense (``2 * nnz > D``).

    Half of them reach the factor max's bounded path (at least 18 dense rows
    and D > 36), from D = 36, where it is just off; the others have any D
    and 2 to ``max_d`` dense rows.  Each dense row is one of
    ``DENSE_ROW_KINDS``: uniform weights, one column 1000 times the rest,
    all weights equal (so the best candidate ties the bound), nonzeros mixed
    with -0.0, or nnz = D // 2 + 1.  Up to two sparse rows with nnz = D // 2
    sit among them.  Weights come from a drawn numpy seed, which keeps
    specs of 26 x 300 cheap to draw.
    """
    bounded = draw(st.booleans())
    n_dense = draw(st.integers(18 if bounded else 2, max_d))
    big_d = draw(st.integers(36 if bounded else 1, max_shared))
    kinds = draw(st.lists(st.sampled_from(DENSE_ROW_KINDS), min_size=n_dense, max_size=n_dense))
    kinds += ["just sparse"] * draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    alpha = rng.uniform(0.2, 1.0, size=(len(kinds), big_d))
    for row, kind in zip(alpha, rng.permutation(kinds)):
        if kind == "dominant":
            row[rng.integers(big_d)] *= 1000.0
        elif kind == "equal":
            row[:] = row[0]
        elif kind == "signed zeros":
            row[rng.random(big_d) < 0.3] = -0.0
        elif kind in ("just dense", "just sparse"):
            nnz = big_d // 2 + (kind == "just dense")
            row[rng.permutation(big_d)[nnz:]] = 0.0
    base = float(alpha.sum(axis=1).max()) or 1.0  # -0.0 may empty a 1-column row
    return ModelSpec(alpha=alpha, C=base if draw(st.booleans()) else 1.25 * base)


#: Kinds of row drawn by :func:`stored_row_alphas`.
STORED_ROW_KINDS = ("sparse", "half", "dense", "empty")


@st.composite
def stored_row_alphas(draw, max_d: int = 7, max_shared: int = 64) -> tuple[np.ndarray, dict]:
    """A weight matrix and a sparse spec object listing its stored entries.

    Rows are mostly stored ones (``2 * nnz <= D``) of up to 32 nonzeros, so
    row sums and gathered lambda sums run through numpy's pairwise blocks of
    8; some have exactly ``2 * nnz = D``, some are dense, some empty.  Every
    row may take any of up to five hot columns, so pairs of rows share 0 to
    5 stored columns.  Weights span eight decades, and -0.0 and 5e-324 are
    mixed in.  The object lists the entries in a shuffled order, with some
    +0.0 entries listed too.  Weights come from a drawn numpy seed.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(2, max_d))
    big_d = draw(st.integers(1, max_shared))
    hot = rng.choice(big_d, size=min(5, big_d), replace=False)
    alpha = np.zeros((d, big_d))
    for row in alpha:
        kind = draw(st.sampled_from(STORED_ROW_KINDS))
        nnz = {
            "sparse": int(rng.integers(0, min(32, big_d // 2) + 1)),
            "half": big_d // 2,
            "dense": big_d // 2 + 1,
            "empty": 0,
        }[kind]
        share = hot[rng.random(hot.size) < 0.7][:nnz]
        own = rng.permutation(np.setdiff1d(np.arange(big_d), share))[: nnz - share.size]
        cols = np.concatenate([share, own])
        row[cols] = rng.uniform(0.5, 1.5, cols.size) * 10.0 ** rng.uniform(-6, 2, cols.size)
        row[cols[rng.random(cols.size) < 0.1]] = 5e-324
    alpha[rng.random(alpha.shape) < 0.03] = -0.0
    i, j = np.nonzero((alpha != 0) | np.signbit(alpha))
    listed = np.concatenate([i * big_d + j, rng.choice(alpha.size, size=3)])
    listed = np.unique(listed[rng.permutation(listed.size)])
    listed = listed[rng.permutation(listed.size)]
    rows, cols = np.divmod(listed, big_d)
    entries = {"i": rows.tolist(), "j": cols.tolist(), "v": alpha.ravel()[listed].tolist()}
    return alpha, entries


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
