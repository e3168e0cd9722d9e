"""Closed-loop simulation of the filtered system against a sector adversary.

Each step evaluates the baseline controller, assembles the barrier
constraint (p, a) at the current state, filters the input, lets the
adversary choose the uncertain input w inside its ball, and advances

    xdot = f(x) + g(x) * scale * (u + w)

by one classical Runge-Kutta (RK4) step with u and w held constant over
the step (zero-order hold).  The adversary can be the nominal plant
(w = 0), the pointwise worst case aligned against the constraint
direction, or a scripted sector nonlinearity evaluated on the plant side
and mapped back through w = v / scale - u.

Each state is evaluated once: f(x), g(x), grad h(x) and h(x) come from
`barrier_terms` alongside (p, a) and feed the h and hdot records, and
xdot = f(x) + g(x) v from the hdot record is RK4's first stage.  A step
with a degree-2 barrier on an n-state plant thus calls f 4 times on
2n + 4 states (x and the 2n stencil points of psi are one stack), grad h
once on 2n + 1, g 4 times on 4 and h once: f on 14 states and grad h on
11 on the vehicle.  The records are byte for byte those of evaluating
each quantity anew wherever it is used.

Every callable takes a stack of states (see `barriers`), and `simulate`
checks this once per run: on a stack of two states each must return
each state's own value, bit for bit, or the run raises SimulationError.
`simulate_sweep` runs a scenario's design levels as the lanes of one
loop.  Its state is an (N, n) stack: the controller, `barrier_terms`,
the hdot record and the RK4 step run once per step on the stack, the
filter and the adversary once per lane.  So a step makes the calls of
one run, on N times the states, and each lane's records are byte for
byte those of `simulate` on its level alone.  `simulate` is the case of
one lane, on an (n,) state.  A lane with one input channel runs on
Python floats wherever the interval route filters (or nothing does) and
the adversary is nominal or the worst case: numpy is left to the model's
callables and the stack's products.

Filter infeasibility at a step falls back to the baseline input and
flags the step instead of aborting, so sweeps that brush infeasibility
remain comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Callable, Optional

import numpy as np

from .barriers import (
    Barrier,
    Dynamics,
    _matvec,
    _rowdot,
    barrier_terms,
    input_direction_defect,
)
from .filters import (
    InfeasibleError,
    _bounds,
    _check_finite,
    _interval,
    _interval_margin,
    _scalar_theta,
    filter_auto,
    filter_qp_channels,
    filter_scalar,
    filter_socp,
    robust_margin,
)
from .sectors import (
    NormalizedUncertainty,
    SectorBound,
    SectorNonlinearity,
    _channel_worst_case,
    apply_nonlinearity,
    in_level_range,
    worst_case_input,
)

__all__ = [
    "SimulationError",
    "Adversary",
    "Scenario",
    "SimulationResult",
    "step_rk4",
    "simulate",
    "simulate_sweep",
    "trajectory_metrics",
]

ADVERSARY_KINDS = ("nominal", "worst_case", "scripted")
SIM_FILTER_MODES = ("off", "auto", "scalar", "socp", "qp")


class SimulationError(RuntimeError):
    """Simulation could not start or produced a non-finite state."""


@dataclass(frozen=True)
class Adversary:
    """Plant-side realization of the sector uncertainty.

    Attributes:
        kind: "nominal" (w = 0), "worst_case" (w aligned against the
            constraint direction at the plant's level), or "scripted"
            (a concrete SectorNonlinearity).
        theta: Plant uncertainty level; None means "same as the design
            level".  May differ from the design level to study mismatch.
        scripted: The nonlinearity, required for kind "scripted".
    """

    kind: str = "nominal"
    theta: Optional[float] = None
    scripted: Optional[SectorNonlinearity] = None

    def __post_init__(self):
        if self.kind not in ADVERSARY_KINDS:
            raise ValueError(f"unknown adversary kind {self.kind!r}")
        if self.theta is not None and not in_level_range(self.theta):
            raise ValueError(f"plant level must satisfy 0 <= theta < 1, got {self.theta}")
        if (self.scripted is not None) != (self.kind == "scripted"):
            raise ValueError("scripted nonlinearity goes with kind='scripted' only")


@dataclass(frozen=True)
class Scenario:
    """One closed-loop run: plant, certificate, controller, adversary.

    Attributes:
        dynamics: Input-affine plant (f, g).
        barrier: Safety certificate with degree/gains set.
        uncertainty: Design-side (theta, scale) the filter certifies against.
        controller: Baseline feedback, states (..., n) -> u0 of shape (...)
            or (..., m), each state's own.
        adversary: What the plant actually does inside the sector.
        x0: Initial state, must be safe (h(x0) >= 0).
        dt: Step, seconds.
        horizon: Total time, seconds.
        filter_mode: "off", or the route every step calls: "auto"
            (`filter_auto`), "scalar", "socp" or "qp" (`filter_scalar`,
            `filter_socp`, `filter_qp_channels`).
        u_max: Optional symmetric input bound forwarded to the filter.
        name: Label used in output files.
        sweep_thetas: For sweep-style presets, the design levels that
            `simulate_sweep` runs; plain runs leave it None.
    """

    dynamics: Dynamics
    barrier: Barrier
    uncertainty: NormalizedUncertainty
    controller: Callable[[np.ndarray], object]
    adversary: Adversary
    x0: np.ndarray
    dt: float = 1e-3
    horizon: float = 2.0
    filter_mode: str = "auto"
    u_max: Optional[float] = None
    name: str = "scenario"
    sweep_thetas: Optional[tuple] = None

    def __post_init__(self):
        object.__setattr__(self, "x0", np.atleast_1d(np.asarray(self.x0, dtype=float)))
        if not (math.isfinite(self.dt) and math.isfinite(self.horizon)):
            raise ValueError(f"dt and horizon must be finite, got dt={self.dt}, "
                             f"horizon={self.horizon}")
        if not np.isfinite(self.x0).all():
            raise ValueError(f"x0 must be finite, got {self.x0.tolist()}")
        if self.dt <= 0.0 or self.horizon < self.dt:
            raise ValueError(f"need dt > 0 and horizon >= dt, got dt={self.dt}, "
                             f"horizon={self.horizon}")
        if self.filter_mode not in SIM_FILTER_MODES:
            raise ValueError(f"unknown filter mode {self.filter_mode!r}")
        if self.x0.shape != (self.dynamics.n,):
            raise ValueError(f"x0 has shape {self.x0.shape}, state dimension is "
                             f"{self.dynamics.n}")


@dataclass(frozen=True)
class SimulationResult:
    """Parallel per-step records; arrays share length n_steps + 1."""

    name: str
    dt: float
    times: np.ndarray
    states: np.ndarray
    u0s: np.ndarray
    us: np.ndarray
    ws: np.ndarray
    vs: np.ndarray
    h_vals: np.ndarray
    hdot_vals: np.ndarray
    margins: np.ndarray
    altered: np.ndarray
    infeasible: np.ndarray


def step_rk4(dyn: Dynamics, uncertainty: NormalizedUncertainty, x, u, w,
             dt: float) -> np.ndarray:
    """One RK4 step of xdot = f(x) + g(x) * scale * (u + w), u and w held,
    for each state of x (..., n) with its own u and w (..., m).

    `simulate` takes the step through `_rk4`, with the first stage from its
    hdot record, so it evaluates f and g at x once per step.
    """
    x = np.asarray(x, dtype=float)
    v = uncertainty.scale * (np.array(u, dtype=float, ndmin=1, copy=None)
                             + np.array(w, dtype=float, ndmin=1, copy=None))
    return _rk4(dyn, x, v, dt, dyn.f(x) + _matvec(dyn.g(x), v))


def _rk4(dyn: Dynamics, x: np.ndarray, v: np.ndarray, dt: float, k1: np.ndarray
         ) -> np.ndarray:
    """`step_rk4` with the held input v = scale * (u + w) and k1 given.

    The stage points x + c * k share one work array, which f and g must not
    keep, and the stages and their weighted sum are accumulated in place:
    the same IEEE operations in the same order as the textbook expressions,
    so the result is the same to the bit.
    """
    f, g = dyn.f, dyn.g
    half = 0.5 * dt
    y = k1 * half
    y += x
    k2 = f(y) + _matvec(g(y), v)
    np.multiply(k2, half, out=y)
    y += x
    k3 = f(y) + _matvec(g(y), v)
    np.multiply(k3, dt, out=y)
    y += x
    k4 = f(y) + _matvec(g(y), v)
    # x + (dt / 6) * (k1 + 2 k2 + 2 k3 + k4), left to right, in k2
    k2 *= 2.0
    k2 += k1
    k3 *= 2.0
    k2 += k3
    k2 += k4
    k2 *= dt / 6.0
    k2 += x
    return k2


def _lane_calls(sc: Scenario, floats: bool) -> tuple[Callable, Callable, Callable]:
    """The calls of one lane, chosen once per run, on one channel's floats
    or on (m,) arrays: filt(p, a, u0, theta) -> (u, margin, altered), which
    may raise InfeasibleError; margin(p, a, u, theta), the robust margin of
    an input the filter did not choose; and adversary(u, a, theta, t) -> w
    at the plant's level theta.  On floats each is the IEEE operations of
    its array form on one element, so the records keep their bytes."""
    adv, scale = sc.adversary, sc.uncertainty.scale
    margin = _interval_margin if floats else robust_margin
    if sc.filter_mode == "off":
        def filt(p, a, u0, theta):
            return u0, margin(p, a, u0, theta), False
    elif floats:
        bound = math.inf if sc.u_max is None else _bounds(sc.u_max, 1)[0]  # inf: no box

        def filt(p, a, u0, theta):
            _check_finite((p, a, u0))
            return _interval(p, a, u0, theta, bound)
    else:
        # read from this module when the run starts, so a wrapper installed
        # on one of its names sees the run's calls
        route = {"auto": filter_auto, "scalar": filter_scalar, "socp": filter_socp,
                 "qp": filter_qp_channels}[sc.filter_mode]

        def filt(p, a, u0, theta):
            res = route(p, a, u0, theta, u_max=sc.u_max)
            return res.u, res.margin, res.altered

    # the worst case is +0.0 wherever worst_case_input's |a| or |u| is 0: it
    # takes |x| = sqrt(x @ x), which is 0 exactly when x @ x is, underflow
    # included
    if adv.kind == "nominal":
        zero = 0.0 if floats else np.zeros(sc.dynamics.m)

        def adversary(u, a, theta, t):
            return zero
    elif adv.kind == "worst_case" and floats:
        def adversary(u, a, theta, t):
            if theta == 0.0 or a * a == 0.0 or u * u == 0.0:
                return 0.0
            return _channel_worst_case(u, a, theta)
    elif adv.kind == "worst_case":
        def adversary(u, a, theta, t):
            if theta == 0.0 or a.dot(a) == 0.0 or u.dot(u) == 0.0:
                return np.zeros(u.size)
            return worst_case_input(u, a, theta)
    else:
        def adversary(u, a, theta, t):
            # scripted: evaluate v = phi(u) in the plant's sector, then
            # invert the loop shift
            plant_sector = SectorBound(scale * (1.0 - theta), scale * (1.0 + theta))
            return apply_nonlinearity(adv.scripted, plant_sector, u, t) / scale - u
    return filt, margin, adversary


def _check_stacks(sc: Scenario):
    """Raise SimulationError unless each callable of sc returns, on a stack
    of two states, each state's own value bit for bit."""
    dyn, barrier = sc.dynamics, sc.barrier
    pair = np.stack((sc.x0, sc.x0 + np.arange(1.0, dyn.n + 1.0)))
    checks = [("dynamics.f", dyn.f), ("dynamics.g", dyn.g), ("barrier.h", barrier.h),
              ("barrier.grad", barrier.grad), ("controller", sc.controller)]
    for name, fn in checks:
        if fn is None:
            continue
        try:
            with np.errstate(all="ignore"):
                both = np.asarray(fn(pair), dtype=float)
                each = [np.asarray(fn(x), dtype=float) for x in pair]
            same = both.shape == (2,) + each[0].shape and all(
                both[j].tobytes() == y.tobytes() for j, y in enumerate(each))
        except (TypeError, ValueError, IndexError) as exc:  # what a one-state form raises
            raise SimulationError(f"{name} does not take a stack of states "
                                  f"(..., n): {exc}") from exc
        if not same:
            raise SimulationError(f"{name} does not return each state's own value "
                                  f"on a stack of states (..., n)")


def _lockstep(scenarios: list) -> list:
    """Run scenarios that differ only in `uncertainty.theta` and `name` as
    one closed loop on a stack of states, one result per scenario.

    One scenario keeps its (n,) state; N of them step an (N, n) stack.
    The baseline controller, `barrier_terms`, the hdot record and the RK4
    step run once per step on the stack; the filter and the adversary run
    per lane, on that lane's level.  With one input channel, the interval
    route or no filter, and the nominal or worst-case adversary, a lane
    runs on floats: p, a and u0 become floats once per step, and the lane
    records floats (`_lane_calls`).  Each lane's records are byte for byte
    those of its own run (the stack takes per-row products, see
    `barriers`).
    """
    sc = scenarios[0]
    for other in scenarios[1:]:
        if other.uncertainty.scale != sc.uncertainty.scale or any(
                getattr(other, f.name) is not getattr(sc, f.name)
                for f in fields(Scenario) if f.name not in ("uncertainty", "name")):
            raise ValueError(f"lane {other.name!r} differs from {sc.name!r} beyond its level")
    dyn, barrier, unc = sc.dynamics, sc.barrier, sc.uncertainty
    with np.errstate(all="ignore"):  # an overflowing h(x0) is reported below
        h0 = float(barrier.h(sc.x0))
    if not math.isfinite(h0):
        raise SimulationError(f"h(x0) = {h0} is not finite: the initial state is too large")
    if h0 < 0.0:
        raise SimulationError(f"initial state is unsafe: h(x0) = {h0}")
    if barrier.degree == 2:
        defect = unc.scale * input_direction_defect(barrier, dyn, sc.x0)
        if defect > 1e-12:
            raise SimulationError(
                f"barrier declared degree 2 but the input reaches its first "
                f"derivative (|grad_h @ g| = {defect:g} at x0)")
    _check_stacks(sc)

    # records are lane-major: lanes[i] indexes lane i's block of each, ()
    # for one run, whose records are its own
    single = len(scenarios) == 1
    lead = () if single else (len(scenarios),)
    lanes = [()] if single else [(i,) for i in range(len(scenarios))]
    n, m = dyn.n, dyn.m
    try:
        n_steps = int(round(sc.horizon / sc.dt))
        rows = n_steps + 1
        times = np.arange(rows) * sc.dt
        states = np.empty(lead + (rows, n))
        u0s, us, ws, vs = (np.empty(lead + (rows, m)) for _ in range(4))
        h_vals, hdot_vals, margins = (np.empty(lead + (rows,)) for _ in range(3))
        altered = np.zeros(lead + (rows,), dtype=bool)
        infeasible = np.zeros(lead + (rows,), dtype=bool)
    # OverflowError: an infinite quotient; ValueError: a size past numpy's limit
    except (MemoryError, OverflowError, ValueError) as exc:
        raise SimulationError(f"horizon / dt = {sc.horizon / sc.dt:.4g} steps are too many "
                              f"to record") from exc

    thetas = [run.uncertainty.theta for run in scenarios]
    plants = thetas if sc.adversary.theta is None else [sc.adversary.theta] * len(thetas)
    floats = (m == 1 and sc.filter_mode in ("off", "auto", "scalar")
              and sc.adversary.kind != "scripted"
              and all(np.ndim(t) == 0 for t in thetas + plants))
    if floats:  # the levels' checks, once per run
        thetas, plants = [_scalar_theta(t) for t in thetas], [float(t) for t in plants]
    filt, margin, adversary = _lane_calls(sc, floats)

    x = sc.x0.copy() if single else np.tile(sc.x0, (len(scenarios), 1))
    channel = (0,) if floats else ()  # a float lane writes its one channel's element
    for k, t in enumerate(times.tolist()):
        step = k if single else (slice(None), k)  # every lane
        u0 = u0s[step] = np.asarray(sc.controller(x)).reshape(lead + (m,))
        p, a, at_x = barrier_terms(barrier, dyn, unc, x, values=True)
        if floats:
            lane_p = [float(p)] if single else p.tolist()
            lane_a, lane_u0 = a.ravel().tolist(), u0.ravel().tolist()
        else:
            lane_p, lane_a, lane_u0 = ([y[lane] for lane in lanes] for y in (p, a, u0))
        for lane, pl, al, ul, theta, plant in zip(lanes, lane_p, lane_a, lane_u0, thetas,
                                                  plants):
            row = lane + (k,)
            try:
                u, margins[row], altered[row] = filt(pl, al, ul, theta)
            except InfeasibleError:
                u, margins[row], infeasible[row] = ul, margin(pl, al, ul, theta), True
            cell = row + channel
            us[cell] = u
            ws[cell] = w = adversary(u, al, plant, t)
            vs[cell] = unc.scale * (u + w)
        v = vs[step]
        states[step] = x
        h_vals[step] = at_x.h
        xdot = at_x.f + _matvec(at_x.g, v)  # RK4's first stage
        hdot_vals[step] = _rowdot(at_x.grad, xdot)
        if k < n_steps:
            x = _rk4(dyn, x, v, sc.dt, xdot)
            flat = x.reshape(-1)  # flat @ flat is finite only where every entry is
            if not (math.isfinite(flat.dot(flat)) or np.isfinite(x).all()):
                raise SimulationError(f"state diverged at t = {t + sc.dt:g}")

    return [SimulationResult(run.name, sc.dt, times, states[lane], u0s[lane], us[lane],
                             ws[lane], vs[lane], h_vals[lane], hdot_vals[lane],
                             margins[lane], altered[lane], infeasible[lane])
            for lane, run in zip(lanes, scenarios)]


def level_tag(theta: float) -> str:
    """A sweep level as its run and csv name show it (`simulate_sweep`)."""
    return f"{theta:g}"


def simulate(sc: Scenario) -> SimulationResult:
    """Run the closed loop and record every step (n_steps + 1 rows)."""
    return _lockstep([sc])[0]


def simulate_sweep(sc: Scenario) -> list:
    """Run sc once per level of `sc.sweep_thetas`, in sorted order, as one
    lockstep loop; one result per level, named `{sc.name}_theta{tag}`
    (`level_tag`), each equal to `simulate` on that level alone."""
    if not sc.sweep_thetas:
        raise ValueError(f"scenario {sc.name!r} has no sweep_thetas")
    scale = sc.uncertainty.scale
    return _lockstep([replace(sc, uncertainty=NormalizedUncertainty(theta=theta, scale=scale),
                              name=f"{sc.name}_theta{level_tag(theta)}", sweep_thetas=None)
                      for theta in sorted(sc.sweep_thetas)])


def trajectory_metrics(traj: SimulationResult, barrier: Barrier) -> dict:
    """Safety summary of one run.

    violation is any sampled h below 0; a dip between samples goes unseen.
    min_distance is reported when the barrier carries an obstacle radius
    (distance = sqrt(h + radius^2)); NaN otherwise.
    """
    idx = int(np.argmin(traj.h_vals))
    min_h = float(traj.h_vals[idx])
    if barrier.radius is not None:
        min_distance = math.sqrt(max(min_h + barrier.radius ** 2, 0.0))
    else:
        min_distance = math.nan
    return {
        "min_h": min_h,
        "t_min_h": float(traj.times[idx]),
        "min_distance": min_distance,
        "violation": bool(min_h < 0.0),
        "max_abs_u": float(np.max(np.abs(traj.us))),
        "steps_altered": int(np.count_nonzero(traj.altered)),
        "steps_infeasible": int(np.count_nonzero(traj.infeasible)),
    }
