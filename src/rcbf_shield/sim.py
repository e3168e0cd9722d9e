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
with a degree-2 barrier on an n-state plant thus calls f 2n + 4 times,
grad h 2n + 1 times (the 2n are the stencil points of psi), g 4 times and
h once: 14, 11, 4 and 1 on the vehicle.  The records are byte for byte
those of evaluating each quantity anew wherever it is used.

Filter infeasibility at a step falls back to the baseline input and
flags the step instead of aborting, so sweeps that brush infeasibility
remain comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .barriers import Barrier, Dynamics, barrier_terms, input_direction_defect
from .filters import FILTER_MODES, InfeasibleError, filter_auto, robust_margin
from .sectors import (
    NormalizedUncertainty,
    SectorBound,
    SectorNonlinearity,
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
    "trajectory_metrics",
]

ADVERSARY_KINDS = ("nominal", "worst_case", "scripted")
SIM_FILTER_MODES = ("off",) + FILTER_MODES


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
        controller: Baseline feedback x -> u0 (scalar or (m,)).
        adversary: What the plant actually does inside the sector.
        x0: Initial state, must be safe (h(x0) >= 0).
        dt: Step, seconds.
        horizon: Total time, seconds.
        filter_mode: "off" or a filter route ("auto", "scalar", "socp", "qp").
        u_max: Optional symmetric input bound forwarded to the filter.
        name: Label used in output files.
        sweep_thetas: For sweep-style presets, design levels to iterate;
            plain runs leave it None.
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
             dt: float, k1: Optional[np.ndarray] = None) -> np.ndarray:
    """One RK4 step of xdot = f(x) + g(x) * scale * (u + w), u and w held.

    k1, if given, must be f(x) + g(x) @ (scale * (u + w)) at this x, as
    `simulate` has it from the hdot record; the step then evaluates f and
    g at x no more.  The stage points x + c * k share one work array, which
    f and g must not keep, and the stages and their weighted sum are
    accumulated in place: the same IEEE operations in the same order as
    the textbook expressions, so the result is the same to the bit.
    """
    x = np.asarray(x, dtype=float)
    v = uncertainty.scale * (np.array(u, dtype=float, ndmin=1, copy=None)
                             + np.array(w, dtype=float, ndmin=1, copy=None))
    f, g = dyn.f, dyn.g
    if k1 is None:
        k1 = f(x) + g(x).dot(v)
    half = 0.5 * dt
    y = k1 * half
    y += x
    k2 = f(y) + g(y).dot(v)
    np.multiply(k2, half, out=y)
    y += x
    k3 = f(y) + g(y).dot(v)
    np.multiply(k3, dt, out=y)
    y += x
    k4 = f(y) + g(y).dot(v)
    # x + (dt / 6) * (k1 + 2 k2 + 2 k3 + k4), left to right, in k2
    k2 *= 2.0
    k2 += k1
    k3 *= 2.0
    k2 += k3
    k2 += k4
    k2 *= dt / 6.0
    k2 += x
    return k2


def _square(x: np.ndarray) -> float:
    """x @ x, on a float for one entry."""
    if x.size == 1:
        xi = x.item()
        return xi * xi
    return float(x.dot(x))


def _adversary_input(adv: Adversary, unc: NormalizedUncertainty, u: np.ndarray,
                     a: np.ndarray, t: float) -> np.ndarray:
    theta_plant = unc.theta if adv.theta is None else adv.theta
    if adv.kind == "nominal":
        return np.zeros(u.size)
    if adv.kind == "worst_case":
        # +0.0 wherever worst_case_input's |a| or |u| is 0: it takes
        # |x| = sqrt(x @ x), which is 0 exactly when x @ x is, underflow
        # included
        if theta_plant == 0.0 or _square(a) == 0.0 or _square(u) == 0.0:
            return np.zeros(u.size)
        return worst_case_input(u, a, theta_plant)
    # scripted: evaluate v = phi(u) in the plant's sector, then invert the
    # loop shift
    plant_sector = SectorBound(unc.scale * (1.0 - theta_plant),
                               unc.scale * (1.0 + theta_plant))
    v = apply_nonlinearity(adv.scripted, plant_sector, u, t)
    return v / unc.scale - u


def simulate(sc: Scenario) -> SimulationResult:
    """Run the closed loop and record every step (n_steps + 1 rows)."""
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

    n_steps = int(round(sc.horizon / sc.dt))
    n, m = dyn.n, dyn.m
    times = np.arange(n_steps + 1) * sc.dt
    states = np.empty((n_steps + 1, n))
    u0s = np.empty((n_steps + 1, m))
    us = np.empty((n_steps + 1, m))
    ws = np.empty((n_steps + 1, m))
    vs = np.empty((n_steps + 1, m))
    h_vals = np.empty(n_steps + 1)
    hdot_vals = np.empty(n_steps + 1)
    margins = np.empty(n_steps + 1)
    altered = np.zeros(n_steps + 1, dtype=bool)
    infeasible = np.zeros(n_steps + 1, dtype=bool)

    x = sc.x0.copy()
    for k in range(n_steps + 1):
        t = times[k]
        u0 = np.array(sc.controller(x), dtype=float, ndmin=1, copy=None)
        p, a, at_x = barrier_terms(barrier, dyn, unc, x, values=True)
        if sc.filter_mode == "off":
            u = u0
            margins[k] = robust_margin(p, a, u0, unc.theta)
        else:
            try:
                res = filter_auto(p, a, u0, unc.theta, u_max=sc.u_max,
                                  mode=sc.filter_mode)
                u = res.u
                margins[k] = res.margin
                altered[k] = res.altered
            except InfeasibleError:
                u = u0
                margins[k] = robust_margin(p, a, u0, unc.theta)
                infeasible[k] = True
        w = _adversary_input(sc.adversary, unc, u, a, float(t))
        v = unc.scale * (u + w)
        states[k] = x
        u0s[k], us[k], ws[k], vs[k] = u0, u, w, v
        h_vals[k] = at_x.h
        xdot = at_x.f + at_x.g.dot(v)  # RK4's first stage
        hdot_vals[k] = float(at_x.grad.dot(xdot))
        if k < n_steps:
            x = step_rk4(dyn, unc, x, u, w, sc.dt, k1=xdot)
            if not np.isfinite(x).all():
                raise SimulationError(f"state diverged at t = {t + sc.dt:g}")

    return SimulationResult(name=sc.name, dt=sc.dt, times=times, states=states,
                            u0s=u0s, us=us, ws=ws, vs=vs, h_vals=h_vals,
                            hdot_vals=hdot_vals, margins=margins,
                            altered=altered, infeasible=infeasible)


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
