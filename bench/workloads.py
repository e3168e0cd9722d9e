"""Seeded workloads of the rcbf-shield benchmark and their correctness checks.

Every workload is a sequence of operations drawn from ``--seed``; the
package only ever sees the generated inputs.  ``Workload.run_op(i)`` runs
operation ``i`` (cycling through the corpus), checks its output outside
the timed window and returns an ``OpResult``.  Operations come in
periods: a run is a whole number of periods, so every share that the
corpus fixes by construction (route, dimension, altered/unaltered) holds
exactly in every run.  ``op_s`` is the nominal wall time of one op, check
included, on the development machine (an Intel Xeon with 2 vCPUs); it
sizes a run of ``--seconds`` without measuring anything, so the ops a
run attempts are fixed by the seed and ``--seconds``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

import rcbf_shield.cli
import rcbf_shield.filters
from rcbf_shield.config import load_scenario
from rcbf_shield.filters import FilterError, channel_margin, robust_margin

HERE = os.path.dirname(os.path.abspath(__file__))

#: Certificate tolerance on the margin, the filters' own TOL_FEAS.
MARGIN_TOL = 1e-8
#: Box tolerance: |u_i| may exceed u_max by this absolute amount.
BOX_TOL = 1e-8
#: Distance to the exact answer accepted as optimal, relative to the
#: input's size: the 1e-6 route agreement that verify demands at unit scale.
OPT_RTOL = 1e-6


@dataclass(frozen=True)
class OpResult:
    """One operation: ops completed, seconds inside the package, outcome.

    ``ops`` counts closed-loop steps (vehicle) or filter calls (filters).
    ``failed`` counts the ops that raised or failed any check, optimality
    included.  ``wrong`` marks an output that is unsafe or differs from
    the recorded one: a margin below -1e-8, a box violation, a non-finite
    input, or vehicle files or exit codes that differ from the seed's.
    """

    ops: int
    seconds: float
    failed: int
    wrong: bool
    box_bound: bool = False


# ---------------------------------------------------------------------------
# vehicle_study: the paper's study through the command line

VEHICLE_SCENARIOS = ("fig3_lqr", "fig3_ecbf", "fig3_recbf", "fig4_sweep")


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class VehicleStudy:
    """simulate fig3_lqr/fig3_ecbf/fig3_recbf, then sweep fig4_sweep.

    One period is the whole study (4 commands, 7 runs, 14,007 steps); the
    seed only shuffles the command order of each period, which leaves the
    outputs unchanged.  Each command writes into its own directory so
    metrics.txt is not shared, and its files and exit code are compared
    with the digests recorded at the seed commit.
    """

    period = len(VEHICLE_SCENARIOS)
    trace_pass = period
    op_s = 0.62

    def __init__(self, seed: int, out_root: str):
        with open(os.path.join(HERE, "expected_outputs.json"), encoding="utf-8") as fh:
            self.expected = json.load(fh)
        self.steps = {}
        for name in VEHICLE_SCENARIOS:
            sc = load_scenario(name)
            # simulate records both ends of the horizon; a sweep runs each theta
            runs = len(sc.sweep_thetas) if sc.sweep_thetas else 1
            self.steps[name] = runs * (int(round(sc.horizon / sc.dt)) + 1)
        self.rng = np.random.default_rng(seed)
        self.order: list = []
        self.out_root = out_root
        self.dirs = {name: os.path.join(out_root, name) for name in VEHICLE_SCENARIOS}

    def _scenario(self, i: int) -> str:
        while len(self.order) <= i // self.period:
            self.order.append([VEHICLE_SCENARIOS[j]
                               for j in self.rng.permutation(self.period)])
        return self.order[i // self.period][i % self.period]

    def run_op(self, i: int) -> OpResult:
        name = self._scenario(i)
        spec = self.expected[name]
        out = self.dirs[name]
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        argv = [spec["command"], "--scenario", name, "--out", out]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            # through the module attribute, so a traced run's wrapper is used
            code = rcbf_shield.cli.main(argv)
            seconds = time.perf_counter() - t0
        files = {f: _sha256(os.path.join(out, f)) for f in sorted(os.listdir(out))}
        steps = self.steps[name]
        wrong = code != spec["exit_code"] or files != spec["files"]
        return OpResult(ops=steps, seconds=seconds, failed=steps if wrong else 0,
                        wrong=wrong)

    def close(self):
        shutil.rmtree(self.out_root, ignore_errors=True)


# ---------------------------------------------------------------------------
# filter workloads: seeded streams of filter_auto calls


@dataclass(frozen=True)
class Instance:
    p: float
    a: np.ndarray
    u0: np.ndarray
    theta: object  # float (ball route) or (m,) array (split route)
    u_max: Optional[float] = None


def _direction(rng, m: int) -> np.ndarray:
    v = rng.standard_normal(m)
    return v / np.linalg.norm(v)


def _margin(inst: Instance, u) -> float:
    if np.ndim(inst.theta) > 0:
        return channel_margin(inst.p, inst.a, u, inst.theta)
    return robust_margin(inst.p, inst.a, u, inst.theta)


def _stratified(rng, n: int) -> np.ndarray:
    """n draws in [0, 1), one in each interval [k/n, (k+1)/n), shuffled."""
    return (rng.permutation(n) + rng.random(n)) / n


def cone_corpus(rng, n: int) -> list:
    """Wide-scale instances of cone_filters; no box.

    Instance i takes a per-channel theta (split route) when i is odd and a
    scalar theta (ball route) when even, and m = 2 + (i // 8) % 4.  For
    i % 8 in {0, 1} the baseline already meets the constraint (fast
    path); the others violate it, so the solver runs.  |a|, |u0|, theta
    and the baseline's margin |p + a @ u0 - pen(u0)| are stratified over
    each block of 32 instances: |a| in 1 .. 500, |u0| in 0.01 .. 3e3 and
    the margin in 0.1 .. 1.3e6, all log-uniform, as the vehicle's own data
    spread (p from -1e3 to 1.3e6, a from 4 to 450 along fig3_recbf).  p
    follows from the margin.  Without a box every instance is feasible.
    """
    block = 32
    out = []
    for start in range(0, n, block):
        ua, uu, um, ut = (_stratified(rng, block) for _ in range(4))
        for j in range(min(block, n - start)):
            i = start + j
            split, active, m = i % 2 == 1, i % 8 >= 2, 2 + (i // 8) % 4
            a = _direction(rng, m) * 10.0 ** (2.7 * ua[j])
            u0 = _direction(rng, m) * 10.0 ** (-2.0 + 5.5 * uu[j])
            theta = (rng.uniform(0.05, 0.9, size=m) if split
                     else 0.05 + 0.85 * float(ut[j]))
            margin0 = 10.0 ** (-1.0 + 7.1 * um[j]) * (-1.0 if active else 1.0)
            input_term = _margin(Instance(p=0.0, a=a, u0=u0, theta=theta), u0)
            out.append(Instance(p=margin0 - input_term, a=a, u0=u0, theta=theta))
    return out


def boxed_corpus(rng, n: int) -> list:
    """Moderate-scale ball-route instances of boxed_filters, |u_i| <= u_max.

    m = 2 + i % 4.  With d = a / ||a||, the point t * d with
    t = u_max / max|d_i| lies in the box and has robust margin
    p + (1 - theta) t ||a||; p is set to -beta (1 - theta) t ||a||,
    beta in [0.1, 0.9], so the instance is feasible by construction.  u0
    is drawn up to three box widths per channel, one channel outside the
    box, so the filter always acts and the box binds often.  |a|, theta,
    u_max and beta are stratified over each block of 32 instances.
    """
    block = 32
    out = []
    for start in range(0, n, block):
        ua, ut, ub, ubeta = (_stratified(rng, block) for _ in range(4))
        for j in range(min(block, n - start)):
            m = 2 + (start + j) % 4
            a = _direction(rng, m) * 10.0 ** (-0.5 + 1.5 * ua[j])
            theta = 0.05 + 0.75 * float(ut[j])
            u_max = float(10.0 ** (-0.5 + ub[j]))
            reach = u_max / float(np.max(np.abs(a / np.linalg.norm(a))))
            beta = 0.1 + 0.8 * float(ubeta[j])
            p = -beta * (1.0 - theta) * reach * float(np.linalg.norm(a))
            u0 = u_max * rng.uniform(-3.0, 3.0, size=m)
            k = int(rng.integers(m))
            u0[k] = u_max * float(rng.uniform(1.0, 3.0)) * float(rng.choice((-1.0, 1.0)))
            out.append(Instance(p=p, a=a, u0=u0, theta=theta, u_max=u_max))
    return out


def _root(f, lo: float, hi: float, flo: float, fhi: float) -> float:
    """Upper end of the root bracket of a nondecreasing f, flo < 0 <= fhi.

    Regula falsi with the Illinois correction, bisecting when the secant
    leaves the bracket; stops at a relative bracket width of 1e-15.
    """
    side = 0
    for _ in range(300):
        if hi - lo <= 1e-15 * hi:
            break
        x = (lo * fhi - hi * flo) / (fhi - flo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        fx = f(x)
        if fx < 0.0:
            lo, flo = x, fx
            if side < 0:
                fhi *= 0.5
            side = -1
        else:
            hi, fhi = x, fx
            if side > 0:
                flo *= 0.5
            side = 1
    return hi


def _shrink(inst: Instance, lam: float) -> np.ndarray:
    """Minimizer of |u - u0|^2 / 2 - lam * (a @ u - pen(u)) over the box.

    With v = u0 + lam * a this is the prox of lam * pen at v: soft
    thresholding per channel on the split route, block soft thresholding
    on the ball route.  With a box and kappa = lam * theta * ||a||, the
    minimizer is clip(s * v) where s in (0, 1) solves
    ||clip(s * v)|| / s * (1 - s) = kappa, or u = 0 when ||v|| <= kappa.
    """
    v = inst.u0 + lam * inst.a
    if np.ndim(inst.theta) > 0:
        return np.sign(v) * np.maximum(np.abs(v) - lam * inst.theta * np.abs(inst.a), 0.0)
    kappa = lam * inst.theta * float(np.linalg.norm(inst.a))
    norm_v = float(np.linalg.norm(v))
    if norm_v <= kappa:
        return np.zeros(v.size)
    if inst.u_max is None:
        return v * (1.0 - kappa / norm_v)
    if kappa == 0.0:
        return np.clip(v, -inst.u_max, inst.u_max)

    def h(s):  # nondecreasing: ||clip(s v)|| / s does not grow with s
        return kappa - float(np.linalg.norm(np.clip(s * v, -inst.u_max, inst.u_max))) / s * (1.0 - s)

    s = _root(h, 0.0, 1.0, kappa - norm_v, kappa)
    return np.clip(s * v, -inst.u_max, inst.u_max)


def reference_filter(inst: Instance) -> np.ndarray:
    """The filter's exact answer, computed without the cone solver.

    g(lam) = margin(shrink(lam)) is nondecreasing in the multiplier lam of
    the robust constraint (it is minus the derivative of the concave dual
    function), so the optimum is shrink(lam*) at its root, or
    shrink(0) when that already meets the constraint.
    """
    def g(lam):
        return _margin(inst, _shrink(inst, lam))

    g0 = g(0.0)
    if g0 >= 0.0:
        return _shrink(inst, 0.0)
    hi, ghi = 1.0, g(1.0)
    while ghi < 0.0 and hi < 1e300:  # feasible instances end this early
        hi *= 2.0
        ghi = g(hi)
    return _shrink(inst, _root(g, 0.0, hi, g0, ghi))


def check_filter(inst: Instance, u: np.ndarray) -> tuple[bool, bool]:
    """(safe, optimal) for the returned u, both judged from (p, a, u0).

    Safe: finite, certified margin >= -1e-8 against the exact (p, a), and
    inside the box.  Optimal: within OPT_RTOL * max(1, |u0|, |u*|) of the
    exact answer u* of reference_filter.
    """
    safe = (bool(np.all(np.isfinite(u))) and _margin(inst, u) >= -MARGIN_TOL
            and (inst.u_max is None or bool(np.all(np.abs(u) <= inst.u_max + BOX_TOL))))
    if not safe:
        return False, False
    exact = reference_filter(inst)
    scale = max(1.0, float(np.linalg.norm(inst.u0)), float(np.linalg.norm(exact)))
    return True, float(np.linalg.norm(u - exact)) <= OPT_RTOL * scale


class FilterStream:
    """A corpus of filter_auto calls, generated in set-up and then cycled.

    Any FilterError, InfeasibleError included, is a failure: every
    instance is feasible by construction.
    """

    corpus_size = 2048

    def __init__(self, make_corpus, seed: int, period: int, trace_pass: int,
                 op_s: float):
        self.period = period
        self.trace_pass = trace_pass
        self.op_s = op_s
        self.corpus = make_corpus(np.random.default_rng(seed), self.corpus_size)

    def run_op(self, i: int) -> OpResult:
        inst = self.corpus[i % self.corpus_size]
        t0 = time.perf_counter()
        try:
            # through the module attribute, so a traced run's wrapper is used
            res = rcbf_shield.filters.filter_auto(inst.p, inst.a, inst.u0, inst.theta,
                                                  u_max=inst.u_max)
        except FilterError:
            return OpResult(ops=1, seconds=time.perf_counter() - t0, failed=1,
                            wrong=False)
        seconds = time.perf_counter() - t0
        safe, optimal = check_filter(inst, res.u)
        bound = inst.u_max is not None and bool(np.any(np.abs(res.u) >= inst.u_max - BOX_TOL))
        return OpResult(ops=1, seconds=seconds, failed=0 if optimal else 1,
                        wrong=not safe, box_bound=bound)

    def close(self):
        pass


def make(name: str, seed: int, out_root: str):
    """Build the named workload; all input generation happens here."""
    if name == "vehicle_study":
        return VehicleStudy(seed, out_root)
    if name == "cone_filters":
        return FilterStream(cone_corpus, seed, period=32, trace_pass=128, op_s=0.03)
    if name == "boxed_filters":
        return FilterStream(boxed_corpus, seed, period=32, trace_pass=128,
                            op_s=0.038)
    raise ValueError(f"unknown workload {name!r}")
