"""Acceptance gate: one test (and one printed PASS/FAIL line) per criterion.

Each criterion prints its verdict to the real stdout so the line shows up
even for passing tests under pytest's capture.  A failing criterion keeps
its measured values in the assertion message; nothing is weakened to
force a pass.
"""

import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from sublinexp import (
    ParametricFamily,
    PathEvent,
    brute_force_capacity,
    brute_force_value,
    capacity,
    capacity_product_identity,
    chebyshev_bound_check,
    constant,
    exm3_report,
    heavy_lln_lower_bound,
    heavy_lln_value,
    linear_expect,
    lln_sweep,
    maximal_dist_value,
    ottaviani_check,
    peng_condition_report,
    piecewise_linear,
    policy_value,
    robust_value,
    simulate,
    sublinear_expect,
    tent,
    truncated_means,
)
from sublinexp.cli import build_function, build_set
from sublinexp.inequalities import VACUOUS, VIOLATED
from sublinexp.montecarlo import SimConfig, constant_policy

from conftest import random_pwl, random_set
from oracle_helpers import exponential_lower_bound, psi, psi_grid_sup, pwl_add, pwl_scale

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


#: one line per criterion, echoed by the terminal-summary hook in conftest
VERDICT_LINES = []


def _verdict(num: int, ok: bool, detail: str):
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    VERDICT_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def _load(name: str) -> dict:
    with open(CONFIGS / name) as handle:
        return json.load(handle)


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst_v = worst_c = 0.0
    kinds = ["FINAL_ABS_GE", "FINAL_GT", "FINAL_LT", "MAX_PARTIAL_ABS_GE", "MAX_INCREMENT_ABS_GE"]
    for _ in range(200):
        s = random_set(rng, max_generators=3, max_atoms=3)
        f = random_pwl(rng)
        n = int(rng.integers(1, 5))
        dp = robust_value(s, n, f).value
        worst_v = max(worst_v, abs(dp - brute_force_value(s, n, f)))
        ev = PathEvent(str(rng.choice(kinds)), int(rng.integers(0, 3 * n + 1)))
        cap = capacity(s, n, ev, "UPPER")
        worst_c = max(worst_c, abs(cap - brute_force_capacity(s, n, ev, "UPPER")))
    elapsed = time.perf_counter() - start
    ok = worst_v <= 1e-9 and worst_c <= 1e-9 and elapsed < 60
    _verdict(
        1,
        ok,
        f"200 instances, worst value delta {worst_v:.2e}, worst capacity delta "
        f"{worst_c:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_axiom_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(1000):
        s = random_set(rng)
        f = random_pwl(rng)
        g = random_pwl(rng)
        lam = float(rng.uniform(0, 3))
        c = float(rng.uniform(-2, 2))
        uf = sublinear_expect(s, f).upper
        ug = sublinear_expect(s, g).upper
        # (a) monotonicity: f <= f + |g|
        nonneg = piecewise_linear([(x, abs(y)) for x, y in zip(g.params[0], g.params[1])])
        worst = max(worst, uf - sublinear_expect(s, pwl_add(f, nonneg)).upper)
        # (b) constant preserving
        worst = max(worst, abs(sublinear_expect(s, constant(c)).upper - c))
        # (c) sub-additivity
        worst = max(worst, sublinear_expect(s, pwl_add(f, g)).upper - uf - ug)
        # (d) positive homogeneity
        worst = max(worst, abs(sublinear_expect(s, pwl_scale(f, lam)).upper - lam * uf))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 10
    _verdict(2, ok, f"1000 tuples, worst axiom slack {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_psi_sandwich_and_grid():
    start = time.perf_counter()
    worst_gap = 0.0
    sandwich_ok = True
    for n in range(1, 101):
        x = np.arange(-200 * n, 200 * n + 1) * 0.01
        closed = psi(n, x)
        lower = n * (np.abs(x) >= n)
        upper = n * (np.abs(x) >= n - 1)
        sandwich_ok &= bool(np.all(lower <= closed) and np.all(closed <= upper))
        grid = psi_grid_sup(n, x, y_step=1e-4)
        worst_gap = max(worst_gap, float(np.max(np.abs(closed - grid))))
    elapsed = time.perf_counter() - start
    ok = sandwich_ok and worst_gap <= 2e-2 and elapsed < 30
    _verdict(
        3,
        ok,
        f"sandwich exact: {sandwich_ok}, worst closed-vs-grid gap {worst_gap:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_4_lln_convergence():
    start = time.perf_counter()
    cfg = _load("sweep.json")
    set_ = build_set(cfg)
    f = build_function(cfg)
    tm = truncated_means(set_, 1)
    interval_ok = (tm.mu_lower, tm.mu_upper) == (0.0, 0.5)
    limit = maximal_dist_value(f, tm.mu_lower, tm.mu_upper)
    report = lln_sweep(set_, f, cfg["horizons"])
    errs = [r.abs_error for r in report.rows]
    monotone = all(b <= a + 1e-3 for a, b in zip(errs, errs[1:]))
    elapsed = time.perf_counter() - start
    ok = interval_ok and limit == 1.0 and errs[-1] <= 0.1 and monotone and elapsed < 20
    _verdict(
        4,
        ok,
        f"interval [{tm.mu_lower:g}, {tm.mu_upper:g}], limit {limit:g}, "
        f"abs_error(256) {errs[-1]:.4f}, non-increasing {monotone}, {elapsed:.1f}s",
    )


def test_criterion_5_condition_necessity_witness():
    fam = ParametricFamily("HEAVY", 128)
    report = peng_condition_report(fam, 100)
    nv_ok = all(r.nV_tail == 1.0 for r in report.rows)
    stable_ok = True
    for n in (128, 150):  # once n reaches the truncation both means pin at 1
        tm = truncated_means(fam, n)
        stable_ok &= tm.mu_upper == 1.0 and tm.mu_lower == 1.0
    ok = nv_ok and stable_ok
    _verdict(
        5,
        ok,
        f"n*V(|X_1|>=n) == 1 exactly for n <= 100: {nv_ok}; "
        f"truncated means pin at 1 past truncation: {stable_ok}",
    )


def test_criterion_6_exm3_separation():
    start = time.perf_counter()
    report = exm3_report(10_000, [100.0], [10, 20, 50, 100])
    (_, excess) = report.lambda_rows[0]
    excess_ok = abs(excess - 0.5) <= 0.02
    tails = [t for _, _, t in report.m_rows]
    psis = [p for _, p, _ in report.m_rows]
    # sup_j of 100 * P_j(|X| >= 100) is attained at index 13, whose six atoms
    # 104, 117, ..., 169 weigh 1/13^3 each; psi_100 is 100 * 1[|x| >= 100] on
    # integer atoms, so E[psi_100] is the same number
    plateau = Fraction(600, 2197)
    tail_exact = abs(tails[-1] - float(plateau)) <= 1e-12
    psi_exact = abs(psis[-1] - float(plateau)) <= 1e-12
    no_vanish = all(t >= Fraction(1, 4) for t in tails)
    trending = all(b <= a + 1e-9 for a, b in zip(tails, tails[1:])) and all(
        b <= a + 1e-9 for a, b in zip(psis, psis[1:])
    )
    elapsed = time.perf_counter() - start
    ok = excess_ok and tail_exact and psi_exact and no_vanish and trending and elapsed < 30
    _verdict(
        6,
        ok,
        f"|E[(|X|-100)^+] - 0.5| = {abs(excess - 0.5):.4f} (<=0.02: {excess_ok}); "
        f"m*V at m=100 is {tails[-1]:.6f} (== 600/2197: {tail_exact}); "
        f"E[psi_100] is {psis[-1]:.6f} (== 600/2197: {psi_exact}); "
        f"m*V >= 1/4 for m in {[m for m, _, _ in report.m_rows]}: {no_vanish}; "
        f"trending down: {trending}; {elapsed:.1f}s",
    )


def test_criterion_7_heavy_lln_failure():
    start = time.perf_counter()
    value = heavy_lln_value(200, 20)
    bound = heavy_lln_lower_bound(200, 20)
    # S_n never decreases, so the ramp is 0 once a state reaches 20; the exact
    # rational DP over the states below 20 gives (199/200)^20
    edge = float(Fraction(199, 200) ** 20) - 1e-12
    in_interval = edge <= value <= 1.0
    above_bound = value >= bound - 1e-12
    prediction = maximal_dist_value(piecewise_linear([(0, 1), (1, 0)]), 1.0, 1.0)
    gap_ok = value - prediction >= 0.9
    elapsed = time.perf_counter() - start
    ok = in_interval and above_bound and prediction == 0.0 and gap_ok and elapsed < 20
    _verdict(
        7,
        ok,
        f"value {value:.12f} (in [{edge:.12f}, 1.0]: {in_interval}); >= (1-1/200)^20 - 1e-12: "
        f"{above_bound}; prediction {prediction:g}; gap >= 0.9: {gap_ok}; {elapsed:.1f}s",
    )


def test_criterion_8_ottaviani():
    rng = np.random.default_rng(1008)
    satisfiable = violated = vacuous = total = 0
    while satisfiable < 100:
        total += 1
        s = random_set(rng)
        n = int(rng.integers(1, 5))
        alpha = float(rng.integers(1, 3 * n + 1))
        c = float(rng.uniform(0.05, 0.95))
        rep = ottaviani_check(s, n, alpha, c)
        if rep.status == VIOLATED:
            violated += 1
        elif rep.status == VACUOUS:
            vacuous += 1
        else:
            satisfiable += 1
    ok = violated == 0
    _verdict(
        8,
        ok,
        f"{satisfiable} satisfiable-premise instances, 0 VIOLATED required "
        f"(got {violated}); VACUOUS rate {vacuous / total:.2f} over {total} draws",
    )


def test_criterion_9_product_identity():
    rng = np.random.default_rng(1009)
    worst_delta = worst_exp = 0.0
    for _ in range(100):
        s = random_set(rng)
        n = int(rng.integers(1, 6))
        t = float(rng.integers(0, 5))
        rep = capacity_product_identity(s, n, t)
        worst_delta = max(worst_delta, rep.delta)
        worst_exp = max(worst_exp, exponential_lower_bound(s, n, t) - rep.rhs)
    ok = worst_delta <= 1e-9 and worst_exp <= 1e-12
    _verdict(
        9,
        ok,
        f"100 instances, worst delta {worst_delta:.2e}, worst exponential-bound "
        f"slack {worst_exp:.2e}",
    )


def test_criterion_10_chebyshev():
    rng = np.random.default_rng(1010)
    failures = 0
    for _ in range(100):
        s = random_set(rng)
        n = int(rng.integers(2, 8))
        eps = float(rng.uniform(0.1, 2.0))
        if not chebyshev_bound_check(s, n, eps).holds:
            failures += 1
    config_ok = True
    for name in ("chebyshev.json", "chebyshev_wide.json"):
        cfg = _load(name)
        chk = chebyshev_bound_check(build_set(cfg), int(cfg["n"]), float(cfg["eps"]))
        config_ok &= chk.holds
    ok = failures == 0 and config_ok
    _verdict(
        10,
        ok,
        f"100 randomized instances, {failures} failures; shipped configs hold: {config_ok}",
    )


def test_criterion_11_monte_carlo():
    details = []
    ok = True
    for name in ("simulate_a.json", "simulate_b.json", "simulate_c.json"):
        cfg = _load(name)
        set_ = build_set(cfg)
        f = build_function(cfg)
        n = int(cfg["n"])
        if cfg["policy"] == "robust":
            policy = robust_value(set_, n, f).policy
        else:
            policy = constant_policy(set_, n, int(cfg["policy"]["constant"]))
        exact = policy_value(set_, policy, n, f)
        passed = False
        for seed in (int(cfg["seed"]), int(cfg["seed"]) + 1000):  # one fixed retry
            res = simulate(SimConfig(policy, set_, n, int(cfg["paths"]), seed), f)
            if abs(res.estimate - exact) <= max(4.0 * res.stderr, 1e-12):
                passed = True
                break
        details.append(f"{name}: |{res.estimate:.5f} - {exact:.5f}| vs 4*{res.stderr:.5f}")
        ok &= passed
    _verdict(11, ok, "; ".join(details))
