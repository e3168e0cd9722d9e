"""Closed-loop simulation: integrator accuracy, adversary legality,
worst-case dominance, and infeasibility fallback."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from rcbf_shield.barriers import (
    Barrier,
    Dynamics,
    _numeric_gradient,
    gradient,
    linear_class_k,
    pole_gains,
)
from rcbf_shield.config import scenario_presets
from rcbf_shield.filters import InfeasibleError, filter_auto, robust_margin
from rcbf_shield.sectors import (
    NormalizedUncertainty,
    SectorBound,
    apply_nonlinearity,
    check_sector_qc,
    random_in_sector,
    saturation_in_sector,
    time_varying_gain,
    identity,
)
from rcbf_shield.sim import (
    Adversary,
    Scenario,
    SimulationError,
    SimulationResult,
    simulate,
    step_rk4,
    trajectory_metrics,
)
from rcbf_shield.vehicle import obstacle_barrier


def test_rk4_exponential_decay():
    # xdot = -x integrated over [0, 1] must hit exp(-1) to integrator order
    dyn = Dynamics(f=lambda x: -x, g=lambda x: np.zeros((1, 1)), n=1, m=1)
    unc = NormalizedUncertainty(theta=0.0, scale=1.0)
    x = np.array([1.0])
    for _ in range(100):
        x = step_rk4(dyn, unc, x, np.zeros(1), np.zeros(1), 0.01)
    assert x[0] == pytest.approx(math.exp(-1.0), abs=1e-9)


def test_rk4_input_enters_through_scale():
    # xdot = v with v = scale*(u + w): one step of a constant field is exact
    dyn = Dynamics(f=lambda x: np.zeros(1), g=lambda x: np.eye(1), n=1, m=1)
    unc = NormalizedUncertainty(theta=0.5, scale=2.0)
    x = step_rk4(dyn, unc, np.zeros(1), np.array([3.0]), np.array([-1.0]), 0.25)
    assert x[0] == pytest.approx(2.0 * (3.0 - 1.0) * 0.25)


def test_frozen_plant_stays_put():
    dyn = Dynamics(f=lambda x: np.zeros(1), g=lambda x: np.zeros((1, 1)), n=1, m=1)
    bar = Barrier(h=lambda x: float(x[0]), degree=1,
                  grad=lambda x: np.array([1.0]))
    sc = Scenario(dynamics=dyn, barrier=bar,
                  uncertainty=NormalizedUncertainty(theta=0.0, scale=1.0),
                  controller=lambda x: 0.0, adversary=Adversary(kind="nominal"),
                  x0=np.array([2.0]), dt=0.1, horizon=1.0, filter_mode="off")
    traj = simulate(sc)
    assert np.all(traj.states == 2.0)
    assert np.all(traj.h_vals == 2.0)
    assert traj.times.shape == (11,)


def test_unsafe_start_rejected():
    dyn = Dynamics(f=lambda x: np.zeros(1), g=lambda x: np.zeros((1, 1)), n=1, m=1)
    bar = Barrier(h=lambda x: float(x[0]), degree=1)
    sc = Scenario(dynamics=dyn, barrier=bar,
                  uncertainty=NormalizedUncertainty(theta=0.0, scale=1.0),
                  controller=lambda x: 0.0, adversary=Adversary(),
                  x0=np.array([-1.0]), filter_mode="off")
    with pytest.raises(SimulationError):
        simulate(sc)


def test_degree_two_declaration_is_checked():
    # h = 1 - x1 sees the input in its first derivative, so declaring it
    # degree 2 must be refused
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0], [1.0]])
    dyn = Dynamics(f=lambda x: A @ x, g=lambda x: B, n=2, m=1)
    bar = Barrier(h=lambda x: 1.0 - x[1], degree=2,
                  grad=lambda x: np.array([0.0, -1.0]), gains=(900.0, 60.0))
    sc = Scenario(dynamics=dyn, barrier=bar,
                  uncertainty=NormalizedUncertainty(theta=0.0, scale=1.0),
                  controller=lambda x: 0.0, adversary=Adversary(),
                  x0=np.zeros(2), filter_mode="off")
    with pytest.raises(SimulationError):
        simulate(sc)


def _short(sc, horizon=0.8):
    return replace(sc, horizon=horizon)


def test_adversaries_stay_inside_plant_sector():
    base = scenario_presets()["fig3_recbf"]
    theta_plant = 0.5
    plant_sector = SectorBound(1.0 - theta_plant, 1.0 + theta_plant)
    scripted = [
        identity(),
        time_varying_gain(10.0),
        time_varying_gain(3.0, 1.0),
        random_in_sector(0),
        saturation_in_sector(20.0, 40.0, plant_sector),
    ]
    for nl in scripted:
        sc = _short(replace(base, adversary=Adversary(
            kind="scripted", theta=theta_plant, scripted=nl)), horizon=0.4)
        traj = simulate(sc)
        for k in range(traj.times.size):
            assert check_sector_qc(traj.us[k], traj.vs[k], plant_sector)


def test_worst_case_stays_inside_ball():
    base = scenario_presets()["fig3_recbf"]
    traj = simulate(_short(base, horizon=0.4))
    theta_plant = 0.5
    for k in range(traj.times.size):
        radius = theta_plant * np.linalg.norm(traj.us[k])
        assert np.linalg.norm(traj.ws[k]) <= radius + 1e-9


def test_worst_case_dominates_scripted_fixtures():
    # the aligned worst case must end up at least as close to the obstacle
    # as any legal scripted realization of the same sector
    base = scenario_presets()["fig3_recbf"]
    worst = simulate(_short(base))
    h_worst = float(np.min(worst.h_vals))
    plant_sector = SectorBound(0.5, 1.5)
    scripted = [
        identity(),
        time_varying_gain(10.0),
        time_varying_gain(3.0, 1.0),
        random_in_sector(0),
        random_in_sector(42),
        saturation_in_sector(20.0, 40.0, plant_sector),
    ]
    for nl in scripted:
        sc = _short(replace(base, adversary=Adversary(
            kind="scripted", theta=0.5, scripted=nl)))
        h_script = float(np.min(simulate(sc).h_vals))
        assert h_worst <= h_script + 1e-6


def test_scripted_w_recovers_the_nonlinearity():
    base = scenario_presets()["fig3_recbf"]
    nl = random_in_sector(3)
    sc = _short(replace(base, adversary=Adversary(
        kind="scripted", theta=0.5, scripted=nl)), horizon=0.2)
    traj = simulate(sc)
    plant_sector = SectorBound(0.5, 1.5)
    for k in range(traj.times.size):
        v_direct = apply_nonlinearity(nl, plant_sector, traj.us[k],
                                      float(traj.times[k]))
        assert traj.vs[k] == pytest.approx(v_direct, abs=1e-12)
        assert traj.vs[k] == pytest.approx(traj.us[k] + traj.ws[k], abs=1e-12)


def test_infeasible_steps_fall_back_to_baseline():
    base = scenario_presets()["fig3_recbf"]
    sc = replace(base, u_max=0.02, horizon=0.8)
    traj = simulate(sc)
    m = trajectory_metrics(traj, sc.barrier)
    assert m["steps_infeasible"] > 0
    assert m["violation"]  # box this tight cannot save the run
    # flagged steps used the baseline input
    flagged = np.flatnonzero(traj.infeasible)
    assert np.array_equal(traj.us[flagged], traj.u0s[flagged])
    assert np.all(np.isfinite(traj.states))


def test_metrics_shape():
    base = scenario_presets()["fig3_recbf"]
    traj = simulate(_short(base, horizon=0.1))
    m = trajectory_metrics(traj, base.barrier)
    assert m["min_distance"] == pytest.approx(
        math.sqrt(m["min_h"] + base.barrier.radius ** 2))
    assert m["steps_altered"] == int(np.count_nonzero(traj.altered))
    bare = Barrier(h=base.barrier.h, degree=2, grad=base.barrier.grad,
                   gains=base.barrier.gains)
    assert math.isnan(trajectory_metrics(traj, bare)["min_distance"])


def test_adversary_validation():
    with pytest.raises(ValueError):
        Adversary(kind="chaotic")
    with pytest.raises(ValueError):
        Adversary(kind="worst_case", theta=1.0)
    with pytest.raises(ValueError):
        Adversary(kind="scripted")  # missing fixture
    with pytest.raises(ValueError):
        Adversary(kind="nominal", scripted=identity())


# -- reference step loop ------------------------------------------------------
# The closed loop as written before f, g, grad h and h were shared within a
# step: every quantity is evaluated where it is used, RK4 builds fresh stage
# arrays, and the worst case takes numpy norms.  simulate must match it to
# the byte.

def _reference_terms(barrier, dyn, unc, x):
    if barrier.degree == 1:
        grad = gradient(barrier, x)
        eta = barrier.class_k if barrier.class_k is not None else linear_class_k()
        p = float(grad @ dyn.f(x)) + float(eta(barrier.h(x)))
        return p, np.atleast_1d(np.asarray(unc.scale * (grad @ dyn.g(x)), dtype=float))
    grad = barrier.grad
    if grad is None:
        grad = lambda y: _numeric_gradient(barrier.h, y)
    psi = lambda y, fy: float(np.asarray(grad(y), dtype=float) @ fy)
    grad_psi = _numeric_gradient(lambda y: psi(y, dyn.f(y)), x)
    k0, k1 = barrier.gains
    fx = dyn.f(x)
    p = float(grad_psi @ fx) + k1 * psi(x, fx) + k0 * float(barrier.h(x))
    return p, np.atleast_1d(np.asarray(unc.scale * (grad_psi @ dyn.g(x)), dtype=float))


def _reference_rk4(dyn, unc, x, u, w, dt):
    v = unc.scale * (u + w)

    def rate(y):
        return dyn.f(y) + dyn.g(y) @ v

    k1 = rate(x)
    k2 = rate(x + 0.5 * dt * k1)
    k3 = rate(x + 0.5 * dt * k2)
    k4 = rate(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _reference_adversary(adv, unc, u, a, t):
    theta = unc.theta if adv.theta is None else adv.theta
    if adv.kind == "nominal":
        return np.zeros(u.size)
    if adv.kind == "worst_case":
        if theta == 0.0 or np.linalg.norm(a) == 0.0 or np.linalg.norm(u) == 0.0:
            return np.zeros(u.size)
        return -theta * np.linalg.norm(u) * a / np.linalg.norm(a)
    sector = SectorBound(unc.scale * (1.0 - theta), unc.scale * (1.0 + theta))
    return apply_nonlinearity(adv.scripted, sector, u, t) / unc.scale - u


def _reference_simulate(sc):
    dyn, barrier, unc = sc.dynamics, sc.barrier, sc.uncertainty
    n_steps = int(round(sc.horizon / sc.dt))
    rows = n_steps + 1
    m = dyn.m
    times = np.arange(rows) * sc.dt
    states, u0s, us, ws, vs = (np.empty((rows, k)) for k in (dyn.n, m, m, m, m))
    h_vals, hdot_vals, margins = np.empty(rows), np.empty(rows), np.empty(rows)
    altered, infeasible = np.zeros(rows, dtype=bool), np.zeros(rows, dtype=bool)
    x = sc.x0.copy()
    for k in range(rows):
        u0 = np.atleast_1d(np.asarray(sc.controller(x), dtype=float))
        p, a = _reference_terms(barrier, dyn, unc, x)
        u = u0
        if sc.filter_mode == "off":
            margins[k] = robust_margin(p, a, u0, unc.theta)
        else:
            try:
                res = filter_auto(p, a, u0, unc.theta, u_max=sc.u_max, mode=sc.filter_mode)
                u, margins[k], altered[k] = res.u, res.margin, res.altered
            except InfeasibleError:
                margins[k] = robust_margin(p, a, u0, unc.theta)
                infeasible[k] = True
        w = _reference_adversary(sc.adversary, unc, u, a, float(times[k]))
        v = unc.scale * (u + w)
        states[k] = x
        u0s[k], us[k], ws[k], vs[k] = u0, u, w, v
        h_vals[k] = barrier.h(x)
        hdot_vals[k] = float(gradient(barrier, x) @ (dyn.f(x) + dyn.g(x) @ v))
        if k < n_steps:
            x = _reference_rk4(dyn, unc, x, u, w, sc.dt)
    return SimulationResult(sc.name, sc.dt, times, states, u0s, us, ws, vs, h_vals,
                            hdot_vals, margins, altered, infeasible)


_RESULT_ARRAYS = ("times", "states", "u0s", "us", "ws", "vs", "h_vals",
                  "hdot_vals", "margins", "altered", "infeasible")


def _assert_same_records(got, want):
    for name in _RESULT_ARRAYS:
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and g.shape == w.shape, name
        assert g.tobytes() == w.tobytes(), f"{got.name}: {name} differs"


def _assert_bitwise_parity(sc):
    got = simulate(sc)
    _assert_same_records(got, _reference_simulate(sc))
    return got


def _integrator_2d():
    # planar single integrator with a drift toward the disk h < 0 around
    # (1, 0.2): two input channels, degree 1, analytic gradient
    center = np.array([1.0, 0.2])
    dyn = Dynamics(f=lambda x: np.array([0.4, -0.1 * x[1]]),
                   g=lambda x: np.array([[1.0, 0.2], [0.0, 0.9]]), n=2, m=2)
    bar = Barrier(h=lambda x: float((x - center) @ (x - center)) - 0.25, degree=1,
                  grad=lambda x: 2.0 * (x - center), class_k=linear_class_k(5.0))
    return dyn, bar


def _parity_scenarios():
    presets = scenario_presets()
    recbf = presets["fig3_recbf"]
    short = lambda sc, **kw: replace(sc, horizon=0.3, **kw)
    plant = SectorBound(0.5, 1.5)
    yield short(recbf)
    yield short(presets["fig3_lqr"])                      # filter_mode "off"
    yield short(presets["fig3_ecbf"])
    # degree 2 with no grad: both stencil levels are finite differences
    yield replace(recbf, horizon=0.05, barrier=replace(obstacle_barrier(), grad=None))
    for scripted in (saturation_in_sector(20.0, 40.0, plant),
                     time_varying_gain(10.0, 0.5), random_in_sector(5)):
        yield short(recbf, adversary=Adversary(kind="scripted", theta=0.5,
                                               scripted=scripted))
    yield short(recbf, adversary=Adversary(kind="worst_case", theta=0.3),
                uncertainty=NormalizedUncertainty(theta=0.6, scale=1.4))
    yield replace(recbf, horizon=0.6, u_max=0.05)         # infeasible from row 531
    for mode in ("socp", "qp"):
        yield short(recbf, filter_mode=mode)
    dyn, bar = _integrator_2d()
    base = Scenario(dynamics=dyn, barrier=bar,
                    uncertainty=NormalizedUncertainty(theta=0.4, scale=0.9),
                    controller=lambda x: np.array([-3.0 * x[0] + 4.0, 1.0 - x[1]]),
                    adversary=Adversary(kind="worst_case"), x0=np.array([-0.5, 0.0]),
                    dt=1e-2, horizon=1.5, name="mimo")
    for mode in ("auto", "socp", "qp"):
        yield replace(base, filter_mode=mode)
    # degree 1 with no grad: central differences of h
    yield replace(base, barrier=replace(bar, grad=None), name="mimo_fd")


def test_simulate_matches_the_reference_loop_bit_for_bit():
    runs = [_assert_bitwise_parity(sc) for sc in _parity_scenarios()]
    # the cases reach what they are there for
    assert any(r.infeasible.any() for r in runs)
    assert any(r.altered.any() and r.us.shape[1] == 2 for r in runs)


def _cycling_controller(values):
    it = itertools.cycle(values)
    return lambda x: next(it)


@pytest.mark.parametrize("gain, mode", [(1.0, "auto"), (1.0, "off"), (1e-170, "off"),
                                        (1e-170, "auto")])
def test_worst_case_zero_shortcuts_match_the_reference(gain, mode):
    # u = +-0.0 and u whose square underflows get w = +0.0; so does a = 1e-170,
    # whose square underflows although a is not zero (filtered too: the
    # scalar route's w* is +0.0 there)
    dyn = Dynamics(f=lambda x: np.array([1.0]), g=lambda x: np.array([[gain]]), n=1, m=1)
    bar = Barrier(h=lambda x: float(x[0]) + 10.0, degree=1, grad=lambda x: np.array([1.0]))
    values = (0.0, -0.0, 1e-170, -1e-170, 0.3, -0.3, 2.0)
    sc = Scenario(dynamics=dyn, barrier=bar,
                  uncertainty=NormalizedUncertainty(theta=0.5, scale=1.0),
                  controller=None, adversary=Adversary(kind="worst_case"),
                  x0=np.array([0.0]), dt=1e-2, horizon=0.2, filter_mode=mode)
    got = simulate(replace(sc, controller=_cycling_controller(values)))
    _assert_same_records(got, _reference_simulate(
        replace(sc, controller=_cycling_controller(values))))
    zero_rows = np.abs(got.us[:, 0]) < 1e-160
    assert zero_rows.sum() == 12 and not np.signbit(got.ws[zero_rows]).any()
    if gain == 1e-170:
        assert not np.signbit(got.ws).any() and not got.ws.any()


def _counted(counts, key, fn):
    def counting(*args):
        counts[key] += 1
        return fn(*args)
    return counting


def test_one_evaluation_per_state():
    # fig3_recbf: the degree-2 stencil costs f 10 and grad 10; the state x
    # itself costs f, g, grad and h once each, shared by (p, a), the h and
    # hdot records and RK4's k1; RK4's three further stages cost f and g
    # three times.  Set-up checks h(x0) and grad_h @ g at x0; the last row
    # takes no RK4 step.
    sc = replace(scenario_presets()["fig3_recbf"], horizon=0.1)
    counts = dict.fromkeys(("f", "g", "grad", "h"), 0)
    dyn = replace(sc.dynamics, f=_counted(counts, "f", sc.dynamics.f),
                  g=_counted(counts, "g", sc.dynamics.g))
    bar = replace(sc.barrier, h=_counted(counts, "h", sc.barrier.h),
                  grad=_counted(counts, "grad", sc.barrier.grad))
    traj = simulate(replace(sc, dynamics=dyn, barrier=bar))
    steps = traj.times.size - 1
    assert steps == 100
    assert counts["f"] == 14 * steps + 11
    assert counts["g"] == 4 * steps + 2
    assert counts["grad"] == 11 * steps + 12
    assert counts["h"] == steps + 2
