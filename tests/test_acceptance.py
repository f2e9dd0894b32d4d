"""Acceptance gate: the nine criteria a correct build must meet.

Each criterion computes its verdict, records one PASS/FAIL line (printed in
the terminal summary after the run), and then asserts.  Every stochastic
criterion uses a fixed seed, so verdicts are deterministic; tolerances are
stated inline next to each check.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import mevgen as mg
from mevgen import fileio
from mevgen.cli import main

from conftest import (
    EX1_ALPHA,
    EX1_C,
    EX1_LAMBDA,
    EX2_ALPHA,
    EX2_LAMBDA,
    EX3_ALPHA,
    EX3_LAMBDA,
    record_acceptance,
)


def _check(name: str, ok: bool, detail: str = "") -> None:
    record_acceptance(name, ok, detail)
    print(f"{'PASS' if ok else 'FAIL'}: {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def _random_spec(rng: np.random.Generator, max_d: int = 8, max_shared: int = 30) -> mg.ModelSpec:
    d = int(rng.integers(2, max_d + 1))
    big_d = int(rng.integers(1, max_shared + 1))
    alpha = rng.uniform(0.0, 2.0, size=(d, big_d))
    alpha[rng.random(size=alpha.shape) < 0.25] = 0.0  # exercise zero weights
    base = float(alpha.sum(axis=1).max())
    if base == 0.0:
        return mg.ModelSpec(alpha=alpha, C=1.0)
    # half the runs sit exactly on the feasibility boundary (zero slack row)
    c = base if rng.random() < 0.5 else base * (1.0 + rng.uniform(0.0, 0.6))
    return mg.ModelSpec(alpha=alpha, C=c)


def _random_target(rng: np.random.Generator, max_d: int = 8) -> mg.TailDepMatrix:
    d = int(rng.integers(2, max_d + 1))
    raw = rng.uniform(0.0, 1.0, size=(d, d))
    raw[rng.random(size=raw.shape) < 0.2] = 0.0
    lam = np.triu(raw, k=1)
    lam = lam + lam.T
    np.fill_diagonal(lam, 1.0)
    return mg.TailDepMatrix(lam)


def test_criterion_1_reference_model_one_closed_form():
    spec = mg.ModelSpec(alpha=EX1_ALPHA, C=EX1_C)
    lam = mg.tail_dep_matrix(spec).values
    dev = float(np.abs(lam - np.array(EX1_LAMBDA)).max())
    _check(
        "criterion 1: closed-form pairwise coefficients of reference model 1",
        dev <= 1e-12,
        f"max deviation {dev:.2e}, tol 1e-12",
    )


def test_criterion_2_synthesis_cli_reproduces_reference_model_two(tmp_path):
    target = tmp_path / "target.json"
    out = tmp_path / "result.json"
    fileio.dump_json(mg.TailDepMatrix(EX2_LAMBDA).to_json_dict(), target)
    rc = main(["synth", "--target", str(target), "--c", "2", "--out", str(out)])
    obj = json.loads(out.read_text())
    alpha_exact = obj["spec"]["alpha"] == EX2_ALPHA
    achieved = np.array(obj["achieved"]["lambda"])
    expect = np.array(EX2_LAMBDA) / 2.0
    np.fill_diagonal(expect, 1.0)
    dev = float(np.abs(achieved - expect).max())
    _check(
        "criterion 2: CLI synthesis reproduces the 4x6 coefficient matrix",
        rc == 0 and alpha_exact and dev <= 1e-12,
        f"exit {rc}, coefficient matrix exact: {alpha_exact}, "
        f"achieved deviation {dev:.2e}, tol 1e-12",
    )


def test_criterion_3_reference_model_three_exactness():
    result = mg.synthesize(mg.TailDepMatrix(EX3_LAMBDA))
    ok = (
        result.c_min == 1.0
        and result.spec.alpha.tolist() == EX3_ALPHA
        and np.array_equal(result.achieved.values, np.array(EX3_LAMBDA))
        and result.exact
    )
    _check(
        "criterion 3: minimal scale 1 build realizes the target exactly",
        ok,
        f"c_min {result.c_min}, exact {result.exact}",
    )


def test_criterion_4_tail_dep_equals_copula_diagonal_oracle():
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(500):
        spec = _random_spec(rng)
        lam = mg.tail_dep_matrix(spec).values
        for s in range(spec.d - 1):
            for k in range(s + 1, spec.d):
                u = np.ones(spec.d)
                u[[s, k]] = np.exp(-1.0)
                oracle = 2.0 + mg.log_copula(spec, u)
                worst = max(worst, abs(lam[s, k] - oracle))
    _check(
        "criterion 4: coefficients equal 2 + log bivariate copula diagonal at 1/e",
        worst <= 1e-12,
        f"max deviation {worst:.2e} over 500 random specs, tol 1e-12",
    )


def test_criterion_5_max_stability():
    rng = np.random.default_rng(907)
    worst = 0.0
    for _ in range(200):
        spec = _random_spec(rng)
        u = rng.uniform(0.05, 0.95, size=spec.d)
        t = rng.uniform(0.1, 5.0)
        worst = max(worst, abs(t * mg.log_copula(spec, u) - mg.log_copula(spec, u**t)))
    _check(
        "criterion 5: max-stability of the copula in log space",
        worst <= 1e-12,
        f"max deviation {worst:.2e} over 200 random (spec, u, t), tol 1e-12",
    )


def test_criterion_6_sampled_margins_match_closed_form():
    specs = {
        "model 1": mg.ModelSpec(alpha=EX1_ALPHA, C=EX1_C),
        "model 2": mg.synthesize(mg.TailDepMatrix(EX2_LAMBDA), c=2.0).spec,
        "model 3": mg.ModelSpec(alpha=EX3_ALPHA, C=1.0),
    }
    worst = 0.0
    for seed, spec in enumerate(specs.values(), start=4001):
        batch = mg.sample_batch(spec, 100_000, seed=seed)
        for i in range(spec.d):
            dist = mg.ks_statistic(batch.data[:, i], lambda xs: np.exp(-spec.C / xs))
            worst = max(worst, dist)
    _check(
        "criterion 6: per-margin empirical CDF vs Frechet closed form, n=1e5",
        worst < 0.01,
        f"max KS distance {worst:.4f} over 3 models x d margins, tol 0.01",
    )


def test_criterion_7_joint_law_monte_carlo():
    spec = mg.ModelSpec(alpha=EX1_ALPHA, C=EX1_C)
    n = 100_000
    batch = mg.sample_batch(spec, n, seed=515)
    rng = np.random.default_rng(616)
    worst_sigma = 0.0
    for _ in range(20):
        # random point placed via marginal quantile levels in [0.2, 0.95]
        q = rng.uniform(0.2, 0.95, size=spec.d)
        x = -spec.C / np.log(q)
        p = mg.joint_cdf(spec, x)
        p_hat = float(np.mean(np.all(batch.data <= x[None, :], axis=1)))
        sigma = np.sqrt(p * (1.0 - p) / n)
        worst_sigma = max(worst_sigma, abs(p_hat - p) / sigma)
    _check(
        "criterion 7: empirical joint CDF within 3 sigma at 20 random points, n=1e5",
        worst_sigma <= 3.0,
        f"worst deviation {worst_sigma:.2f} sigma",
    )


def test_criterion_8_estimator_recovers_reference_model_three():
    spec = mg.ModelSpec(alpha=EX3_ALPHA, C=1.0)
    n, u = 1_000_000, 0.99
    batch = mg.sample_batch(spec, n, seed=20240818)
    report = mg.estimate_tail_dep(batch, u, margins="known", scale=spec.C)
    lam = np.array(EX3_LAMBDA)
    off = ~np.eye(3, dtype=bool)
    dev_limit = float(np.abs(report.lambda_hat - lam)[off].max())
    exact = mg.finite_u_tail_dep(u, lam)
    np.fill_diagonal(exact, 1.0)
    bands = float(
        (np.abs(report.lambda_hat - exact)[off] / report.half_width[off]).max()
    )
    _check(
        "criterion 8: estimator recovery at n=1e6, u=0.99 with known margins",
        dev_limit <= 0.05 and bands <= 3.0,
        f"max |estimate - limit| {dev_limit:.4f} (tol 0.05), "
        f"worst finite-u deviation {bands:.2f} half-widths (tol 3)",
    )


def test_criterion_9_synthesis_round_trip_on_random_targets():
    rng = np.random.default_rng(112358)
    worst = 0.0
    structure_ok = True
    for _ in range(500):
        target = _random_target(rng)
        lam = target.values
        d = target.d
        result = mg.synthesize(target)
        a = result.spec.alpha
        off = ~np.eye(d, dtype=bool)
        worst = max(
            worst,
            float(np.abs(result.achieved.values[off] - lam[off] / result.c_used).max()),
        )
        if not np.all(a.sum(axis=1) <= d - 1 + 1e-12):
            structure_ok = False
        col_of_pair = {
            (int(s), int(k)): col for col, (s, k) in enumerate(zip(*np.triu_indices(d, 1)))
        }
        for s in range(d - 1):
            for k in range(s + 1, d):
                both = np.flatnonzero((a[s] > 0) & (a[k] > 0))
                expect = [col_of_pair[s, k]] if lam[s, k] > 0 else []
                if both.tolist() != expect:
                    structure_ok = False
    _check(
        "criterion 9: round-trip achieves target/C; support and row-sum invariants",
        worst <= 1e-12 and structure_ok,
        f"max deviation {worst:.2e} over 500 random targets (tol 1e-12), "
        f"structure invariants {'held' if structure_ok else 'VIOLATED'}",
    )
