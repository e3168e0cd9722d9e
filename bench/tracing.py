"""Spans and counters for the traced run, installed from outside the package.

``installed(tracer)`` replaces module attributes that callers resolve at
call time (``rcbf_shield.sim.barrier_terms``, ``rcbf_shield.filters.solve_socp``
and so on) with timing wrappers, and restores them on exit.  Presets
loaded through ``rcbf_shield.cli.load_scenario`` get counted copies of
their ``f``/``g``/``grad`` callables.  Spans stay in flat arrays in memory
until ``Tracer.write``.  Work done by the wrappers' own hooks (result
inspection, the phase-1 probe) is booked as probe time on every open span
and left out of span durations.
"""

from __future__ import annotations

import contextlib
from array import array
from collections import Counter
from dataclasses import replace
from time import perf_counter

import numpy as np

import rcbf_shield.cli
import rcbf_shield.filters
import rcbf_shield.sim
from rcbf_shield.socp import residuals

#: (module, attribute, span name).  sim and filters each imported
#: worst_case_input; both copies report as one sectors layer.
SPANS = (
    (rcbf_shield.cli, "main", "cli.main"),
    (rcbf_shield.cli, "load_scenario", "config.load_scenario"),
    (rcbf_shield.cli, "simulate", "sim.simulate"),
    (rcbf_shield.cli, "trajectory_csv_text", "output.trajectory_csv_text"),
    (rcbf_shield.sim, "barrier_terms", "barriers.barrier_terms"),
    (rcbf_shield.sim, "filter_auto", "filters.filter_auto"),
    (rcbf_shield.sim, "step_rk4", "sim.step_rk4"),
    (rcbf_shield.sim, "worst_case_input", "sectors.worst_case_input"),
    (rcbf_shield.filters, "filter_auto", "filters.filter_auto"),
    (rcbf_shield.filters, "filter_scalar", "filters.filter_scalar"),
    (rcbf_shield.filters, "filter_socp", "filters.filter_socp"),
    (rcbf_shield.filters, "filter_qp_channels", "filters.filter_qp_channels"),
    (rcbf_shield.filters, "solve_socp", "socp.solve_socp"),
    (rcbf_shield.filters, "worst_case_input", "sectors.worst_case_input"),
)

SOCP_STATUSES = ("optimal", "infeasible", "max_iterations", "numerical_failure")
ROUTES = {"filters.filter_scalar": "scalar", "filters.filter_socp": "socp",
          "filters.filter_qp_channels": "qp"}


class Tracer:
    """In-memory spans (name, parent, op, start, end, probe) and counters."""

    def __init__(self):
        self.names: list = []
        self.name_ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.probe = array("d")
        self.stack: list = []
        self.op_id = -1
        self.counts: Counter = Counter()
        self.iterations: list = []

    def _hook(self, fn, *args):
        # run fn outside every open span's measured time
        t0 = perf_counter()
        out = fn(*args)
        dt = perf_counter() - t0
        for idx in self.stack:
            self.probe[idx] += dt
        return out

    def wrap(self, name: str, fn, before=None, after=None):
        """Span around fn; before(args, kwargs) runs first, after(result)
        may replace the result.  Both run outside the span."""
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack = self.stack

        def traced(*args, **kwargs):
            if before is not None:
                self._hook(before, args, kwargs)
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.probe.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
            if after is not None:
                out = self._hook(after, out)
            return out

        return traced

    def counted(self, key: str, fn):
        counts = self.counts

        def counting(*args):
            counts[key] += 1
            return fn(*args)

        return counting

    # -- hooks ---------------------------------------------------------------

    def _count_route(self, route: str):
        def before(args, kwargs):
            self.counts[f"route.{route}"] += 1
        return before

    def _before_filter(self, args, kwargs):
        self.counts["filter.calls"] += 1

    def _after_filter(self, res):
        self.counts["filter.unaltered"] += not res.altered
        return res

    def _before_solve(self, args, kwargs):
        z0 = kwargs.get("z0")
        if z0 is not None and residuals(args[0], z0)[0] > 0.0:
            self.counts["socp.phase1"] += 1

    def _after_solve(self, res):
        self.counts[f"socp.status.{res.status}"] += 1
        self.iterations.append(res.iterations)
        return res

    def _after_simulate(self, traj):
        self.counts["sim.steps"] += traj.times.size
        return traj

    def _after_load(self, sc):
        dyn, bar = sc.dynamics, sc.barrier
        dyn = replace(dyn, f=self.counted("vehicle.f", dyn.f),
                      g=self.counted("vehicle.g", dyn.g))
        if bar.grad is not None:
            bar = replace(bar, grad=self.counted("vehicle.grad", bar.grad))
        return replace(sc, dynamics=dyn, barrier=bar)

    def hooks(self, name: str) -> dict:
        if name in ROUTES:
            return {"before": self._count_route(ROUTES[name])}
        return {
            "filters.filter_auto": {"before": self._before_filter,
                                    "after": self._after_filter},
            "socp.solve_socp": {"before": self._before_solve, "after": self._after_solve},
            "sim.simulate": {"after": self._after_simulate},
            "config.load_scenario": {"after": self._after_load},
        }.get(name, {})

    # -- results -------------------------------------------------------------

    def durations(self) -> dict:
        """name -> (net durations, self times) in seconds, as arrays."""
        names = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        net = (np.frombuffer(self.end) - np.frombuffer(self.start)
               - np.frombuffer(self.probe))
        children = np.zeros(net.size)
        has_parent = parent >= 0
        np.add.at(children, parent[has_parent], net[has_parent])
        own = net - children
        return {name: (net[names == nid], own[names == nid])
                for nid, name in enumerate(self.names)}

    def write(self, path: str, max_op: int):
        """CSV of the spans of ops below max_op (the first traced pass):
        span, op (shared by the spans of one operation), name, parent span,
        start and net duration in microseconds."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,op,name,parent,start_us,dur_us\n")
            for i in range(len(self.start)):
                if self.op[i] < max_op:
                    fh.write(f"{i},{self.op[i]},{self.names[self.name[i]]},"
                             f"{self.parent[i]},{self.start[i] * 1e6:.3f},"
                             f"{(self.end[i] - self.start[i] - self.probe[i]) * 1e6:.3f}\n")


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Install every wrapper in SPANS; restore the originals on exit."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in SPANS]
    try:
        for (mod, attr, name), (_, _, original) in zip(SPANS, saved):
            setattr(mod, attr, tracer.wrap(name, original, **tracer.hooks(name)))
        yield tracer
    finally:
        for mod, attr, original in saved:
            setattr(mod, attr, original)


def _p50_us(values) -> float:
    return float(np.median(values)) * 1e6 if len(values) else 0.0


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-layer metrics; counts are per pass, a layer that never ran reads 0."""
    spans = tracer.durations()
    empty = (np.zeros(0), np.zeros(0))

    def net(name):
        return spans.get(name, empty)[0]

    def own(name):
        return spans.get(name, empty)[1]

    def ratio(num, den):
        return float(num) / float(den) if den else 0.0

    def mean_ms(values):
        return ratio(values.sum() * 1e3, values.size)

    c = tracer.counts
    steps = c["sim.steps"]
    sim_time = net("sim.simulate").sum()
    filter_time = net("filters.filter_auto").sum()
    solve_time = net("socp.solve_socp").sum()
    its = np.asarray(tracer.iterations, dtype=float)
    solves = its.size
    out = {
        "barriers.barrier_terms.p50_us": (_p50_us(net("barriers.barrier_terms")), "us"),
        "barriers.barrier_terms.busy_frac": (
            ratio(net("barriers.barrier_terms").sum(), sim_time), "ratio"),
        "vehicle.f_evals_per_step": (ratio(c["vehicle.f"], steps), "count"),
        "vehicle.g_evals_per_step": (ratio(c["vehicle.g"], steps), "count"),
        "vehicle.grad_evals_per_step": (ratio(c["vehicle.grad"], steps), "count"),
        "sim.step_rk4.p50_us": (_p50_us(net("sim.step_rk4")), "us"),
        "sim.simulate.self_ms": (mean_ms(own("sim.simulate")), "ms"),
        "filters.filter_scalar.p50_us": (_p50_us(net("filters.filter_scalar")), "us"),
        "sectors.worst_case_input.p50_us": (_p50_us(net("sectors.worst_case_input")), "us"),
        "output.trajectory_csv_text.ms_per_run": (mean_ms(net("output.trajectory_csv_text")), "ms"),
        "cli.main.self_ms": (mean_ms(own("cli.main")), "ms"),
        "config.load_scenario.ms": (mean_ms(net("config.load_scenario")), "ms"),
        "socp.solve_socp.p50_us": (_p50_us(net("socp.solve_socp")), "us"),
        "socp.solve_socp.busy_frac": (ratio(solve_time, filter_time), "ratio"),
        "socp.iterations_mean": (float(its.mean()) if solves else 0.0, "count"),
        "socp.iterations_max": (float(its.max()) if solves else 0.0, "count"),
        "socp.us_per_iteration": (ratio(solve_time * 1e6, its.sum()), "us"),
        "socp.phase1_frac": (ratio(c["socp.phase1"], solves), "ratio"),
        "filters.filter_socp.p50_us": (_p50_us(net("filters.filter_socp")), "us"),
        "filters.filter_qp_channels.p50_us": (_p50_us(net("filters.filter_qp_channels")), "us"),
        "filters.self_us": (ratio((filter_time - solve_time) * 1e6, c["filter.calls"]), "us"),
        "filters.unaltered_frac": (ratio(c["filter.unaltered"], c["filter.calls"]), "ratio"),
    }
    for status in SOCP_STATUSES:
        out[f"socp.status.{status}"] = (ratio(c[f"socp.status.{status}"], passes), "count")
    for route in ROUTES.values():
        out[f"filters.route.{route}.calls"] = (ratio(c[f"route.{route}"], passes), "count")
    return out
