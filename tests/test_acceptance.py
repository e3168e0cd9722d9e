"""Acceptance gate: one test per claim, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline;
each criterion states its tolerance next to the measured value.
"""

import time

import numpy as np
import pytest

from rcbf_shield.barriers import barrier_terms
from rcbf_shield.config import scenario_presets
from rcbf_shield.filters import filter_auto
from rcbf_shield.sim import simulate
from rcbf_shield.verify import (
    check_determinism,
    check_margin_soundness,
    check_multiplier_identity,
    check_rk4_order,
    check_route_agreement,
    check_split_agreement,
    check_theta_zero_reduction,
    check_worst_case_oracle,
)


def _report(ok: bool, line: str):
    print(("PASS  " if ok else "FAIL  ") + line)
    assert ok, line


@pytest.fixture(scope="module")
def fig3_runs():
    presets = scenario_presets()
    runs = {}
    for name in ("fig3_lqr", "fig3_ecbf", "fig3_recbf"):
        t0 = time.perf_counter()
        runs[name] = simulate(presets[name])
        runs[name + "_seconds"] = time.perf_counter() - t0
    return runs


def test_01_worst_case_oracle():
    t0 = time.perf_counter()
    res = check_worst_case_oracle(n_instances=100, samples=10_000)
    elapsed = time.perf_counter() - t0
    _report(res.passed and elapsed < 5.0,
            f"worst-case oracle: closed form vs 1e4 sampled w on 100 instances; "
            f"{res.detail}; {elapsed:.2f}s (< 5s)")


def test_02_multiplier_identity():
    res = check_multiplier_identity(n_instances=1000)
    _report(res.passed,
            f"multiplier identity w* = -a/(2 lambda*) on 1e3 instances; "
            f"{res.detail} (relative)")


def test_03_route_agreement():
    t0 = time.perf_counter()
    res = check_route_agreement(n_instances=1000)
    elapsed = time.perf_counter() - t0
    _report(res.passed and elapsed < 30.0,
            f"three-route agreement (m=1, 1e3 instances, plus infeasible boxed "
            f"ones): {res.detail}; "
            f"{elapsed:.2f}s (< 30s)")


def test_04_split_agreement():
    res = check_split_agreement(n_instances=1000)
    _report(res.passed,
            f"split route vs the interior-point solver on the (u+, u-) program "
            f"(m=2..5, 1e3 instances): {res.detail}")


def test_05_obstacle_study_ordering(fig3_runs):
    lqr, ecbf, recbf = (fig3_runs[k] for k in ("fig3_lqr", "fig3_ecbf",
                                               "fig3_recbf"))
    # unfiltered baseline collides: the (e, s) path enters the disk
    d2_min = float(np.min(lqr.states[:, 0] ** 2 + lqr.states[:, 4] ** 2))
    # nominal-design filter dips below zero, slightly and near s = 0
    ecbf_min = float(np.min(ecbf.h_vals))
    neg = np.flatnonzero(ecbf.h_vals < 0.0)
    t_window_ok = (neg.size > 0
                   and 0.5 <= float(ecbf.times[neg[0]])
                   and float(ecbf.times[neg[-1]]) <= 0.9)
    s_near_zero = neg.size > 0 and float(np.max(np.abs(ecbf.states[neg, 4]))) < 3.0
    # robust-design filter keeps the barrier nonnegative to solver tolerance
    recbf_min = float(np.min(recbf.h_vals))
    timing_ok = all(fig3_runs[name + "_seconds"] < 5.0
                    for name in ("fig3_lqr", "fig3_ecbf", "fig3_recbf"))
    ok = (d2_min < 9.0
          and ecbf_min < 0.0 and abs(ecbf_min) < 0.9 and t_window_ok
          and s_near_zero
          and recbf_min >= -1e-3
          and timing_ok)
    _report(ok,
            f"obstacle study ordering: unfiltered min(e^2+s^2)={d2_min:.4f} (< 9); "
            f"nominal-design min_h={ecbf_min:.4f} (< 0, |.| < 0.9, "
            f"violation t in [0.5, 0.9]s near s=0); "
            f"robust-design min_h={recbf_min:.4f} (>= -1e-3); each run < 5s")


def test_06_sweep_monotone_caution():
    presets = scenario_presets()
    base = presets["fig4_sweep"]
    from dataclasses import replace
    from rcbf_shield.sectors import NormalizedUncertainty
    from rcbf_shield.sim import trajectory_metrics

    rows = []
    for theta in base.sweep_thetas:
        sc = replace(base, uncertainty=NormalizedUncertainty(
            theta=theta, scale=base.uncertainty.scale), sweep_thetas=None)
        m = trajectory_metrics(simulate(sc), sc.barrier)
        rows.append((theta, m["min_distance"], m["min_h"]))
    distances = [r[1] for r in rows]
    monotone = all(b >= a - 1e-12 for a, b in zip(distances, distances[1:]))
    safe = all(r[2] >= -1e-3 for r in rows)
    _report(monotone and safe,
            "sweep monotonicity: min_distance "
            + " -> ".join(f"{d:.4f}" for d in distances)
            + f" non-decreasing over theta {[r[0] for r in rows]}; "
            f"all min_h >= -1e-3")


def test_07_margin_soundness_along_run(fig3_runs):
    traj = fig3_runs["fig3_recbf"]
    presets = scenario_presets()
    sc = presets["fig3_recbf"]
    rng = np.random.default_rng(7)
    steps = rng.choice(traj.times.size, size=100, replace=False)
    worst = 0.0
    for k in steps:
        x = traj.states[k]
        p, a = barrier_terms(sc.barrier, sc.dynamics, sc.uncertainty, x)
        res = filter_auto(p, a, traj.u0s[k], sc.uncertainty.theta)
        radius = sc.uncertainty.theta * np.linalg.norm(res.u)
        dirs = rng.normal(size=(100, a.size))
        dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-300)
        ws = dirs * (radius * rng.uniform(0.0, 1.0, size=100)[:, None])
        realized = p + (res.u + ws) @ a
        worst = min(worst, float(np.min(realized)))
    _report(worst >= -1e-6,
            f"robust margin along the filtered run: min over 100 steps x 100 "
            f"sampled w of p + a(u+w) = {worst:.3g} (>= -1e-6)")
    # the same bound off the run: random instances of one to three channels
    res = check_margin_soundness()
    _report(res.passed, f"robust margin on random instances: {res.detail}")


def test_08_theta_zero_reduction():
    res = check_theta_zero_reduction(n_instances=1000)
    _report(res.passed,
            f"theta = 0 collapses to the halfspace projection: {res.detail}")


def test_09_integrator_order_and_determinism():
    rk4 = check_rk4_order()
    det = check_determinism(horizon=2.0)
    _report(rk4.passed and det.passed,
            f"integrator order and determinism: {rk4.detail}; {det.detail}")
