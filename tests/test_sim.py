"""Closed-loop simulation: integrator accuracy, adversary legality,
worst-case dominance, and infeasibility fallback."""

import math
from dataclasses import replace

import numpy as np
import pytest

from rcbf_shield.barriers import Barrier, Dynamics, linear_class_k
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
    _lockstep,
    simulate,
    simulate_sweep,
    step_rk4,
    trajectory_metrics,
)
from rcbf_shield.vehicle import lqr_controller, obstacle_barrier


def test_rk4_exponential_decay():
    # xdot = -x integrated over [0, 1] must hit exp(-1) to integrator order
    dyn = Dynamics(f=lambda x: -x, g=lambda x: np.zeros(x.shape + (1,)), n=1, m=1)
    unc = NormalizedUncertainty(theta=0.0, scale=1.0)
    x = np.array([1.0])
    for _ in range(100):
        x = step_rk4(dyn, unc, x, np.zeros(1), np.zeros(1), 0.01)
    assert x[0] == pytest.approx(math.exp(-1.0), abs=1e-9)


def test_rk4_input_enters_through_scale():
    # xdot = v with v = scale*(u + w): one step of a constant field is exact
    dyn = Dynamics(f=np.zeros_like, g=lambda x: np.ones(x.shape + (1,)), n=1, m=1)
    unc = NormalizedUncertainty(theta=0.5, scale=2.0)
    x = step_rk4(dyn, unc, np.zeros(1), np.array([3.0]), np.array([-1.0]), 0.25)
    assert x[0] == pytest.approx(2.0 * (3.0 - 1.0) * 0.25)


def _frozen_plant():
    dyn = Dynamics(f=np.zeros_like, g=lambda x: np.zeros(x.shape + (1,)), n=1, m=1)
    bar = Barrier(h=lambda x: x[..., 0], degree=1, grad=np.ones_like)
    return dyn, bar


def _no_input(x):
    return np.zeros(x.shape[:-1])


def test_frozen_plant_stays_put():
    dyn, bar = _frozen_plant()
    sc = Scenario(dynamics=dyn, barrier=bar,
                  uncertainty=NormalizedUncertainty(theta=0.0, scale=1.0),
                  controller=_no_input, adversary=Adversary(kind="nominal"),
                  x0=np.array([2.0]), dt=0.1, horizon=1.0, filter_mode="off")
    traj = simulate(sc)
    assert np.all(traj.states == 2.0)
    assert np.all(traj.h_vals == 2.0)
    assert traj.times.shape == (11,)


def test_unsafe_start_rejected():
    dyn, bar = _frozen_plant()
    sc = Scenario(dynamics=dyn, barrier=replace(bar, grad=None),
                  uncertainty=NormalizedUncertainty(theta=0.0, scale=1.0),
                  controller=_no_input, adversary=Adversary(),
                  x0=np.array([-1.0]), filter_mode="off")
    with pytest.raises(SimulationError):
        simulate(sc)


def test_degree_two_declaration_is_checked():
    # h = 1 - x1 sees the input in its first derivative, so declaring it
    # degree 2 must be refused
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0], [1.0]])
    dyn = Dynamics(f=lambda x: np.matmul(A, x[..., None])[..., 0],
                   g=lambda x: np.broadcast_to(B, x.shape[:-1] + B.shape), n=2, m=1)
    bar = Barrier(h=lambda x: 1.0 - x[..., 1], degree=2,
                  grad=lambda x: np.broadcast_to([0.0, -1.0], x.shape), gains=(900.0, 60.0))
    sc = Scenario(dynamics=dyn, barrier=bar,
                  uncertainty=NormalizedUncertainty(theta=0.0, scale=1.0),
                  controller=_no_input, adversary=Adversary(),
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

def _reference_gradient(func, x):
    # central differences one point at a time, at x + 0.0 and x with one
    # coordinate moved
    eps = 1e-6 * (1.0 + float(np.sqrt(x.dot(x))))
    out = np.empty(x.size)
    for i in range(x.size):
        plus, minus = x + 0.0, x.copy()
        plus[i], minus[i] = x[i] + eps, x[i] - eps
        out[i] = (func(plus) - func(minus)) / (2.0 * eps)
    return out


def _reference_terms(barrier, dyn, unc, x):
    grad = barrier.grad
    if grad is None:
        grad = lambda y: _reference_gradient(barrier.h, y)
    if barrier.degree == 1:
        eta = barrier.class_k if barrier.class_k is not None else linear_class_k()
        p = float(grad(x) @ dyn.f(x)) + float(eta(barrier.h(x)))
        return p, np.atleast_1d(np.asarray(unc.scale * (grad(x) @ dyn.g(x)), dtype=float))
    psi = lambda y, fy: float(np.asarray(grad(y), dtype=float) @ fy)
    grad_psi = _reference_gradient(lambda y: psi(y, dyn.f(y)), x)
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
        grad = barrier.grad(x) if barrier.grad else _reference_gradient(barrier.h, x)
        hdot_vals[k] = float(grad @ (dyn.f(x) + dyn.g(x) @ v))
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
    B = np.array([[1.0, 0.2], [0.0, 0.9]])

    def h(x):
        d = x - center
        return np.matmul(d[..., None, :], d[..., :, None])[..., 0, 0] - 0.25

    dyn = Dynamics(f=lambda x: np.stack([np.full(x.shape[:-1], 0.4), -0.1 * x[..., 1]], -1),
                   g=lambda x: np.broadcast_to(B, x.shape[:-1] + B.shape), n=2, m=2)
    bar = Barrier(h=h, degree=1, grad=lambda x: 2.0 * (x - center),
                  class_k=linear_class_k(5.0))
    return dyn, bar


def _integrator_control(x):
    return np.stack([-3.0 * x[..., 0] + 4.0, 1.0 - x[..., 1]], -1)


def _parity_scenarios():
    presets = scenario_presets()
    recbf = presets["fig3_recbf"]
    short = lambda sc, **kw: replace(sc, horizon=0.3, **kw)
    plant = SectorBound(0.5, 1.5)
    yield short(recbf)
    yield short(recbf, filter_mode="scalar")
    yield short(recbf, adversary=Adversary())             # nominal plant
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
                    controller=_integrator_control,
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


def _clock_controller(values, dt):
    """u cycles through values, row by row: the second state is a clock
    that counts steps of dt."""
    table = np.array(values)
    return lambda x: table[np.rint(x[..., 1] / dt).astype(int) % table.size]


@pytest.mark.parametrize("gain, mode", [(1.0, "auto"), (1.0, "off"), (1e-170, "off"),
                                        (1e-170, "auto")])
def test_worst_case_zero_shortcuts_match_the_reference(gain, mode):
    # u = +-0.0 and u whose square underflows get w = +0.0; so does a = 1e-170,
    # whose square underflows although a is not zero (filtered too: the
    # scalar route's w* is +0.0 there)
    B = np.array([[gain], [0.0]])
    dyn = Dynamics(f=np.ones_like, g=lambda x: np.broadcast_to(B, x.shape[:-1] + B.shape),
                   n=2, m=1)
    bar = Barrier(h=lambda x: x[..., 0] + 10.0, degree=1,
                  grad=lambda x: np.broadcast_to([1.0, 0.0], x.shape))
    values = (0.0, -0.0, 1e-170, -1e-170, 0.3, -0.3, 2.0)
    sc = Scenario(dynamics=dyn, barrier=bar,
                  uncertainty=NormalizedUncertainty(theta=0.5, scale=1.0),
                  controller=_clock_controller(values, 1e-2),
                  adversary=Adversary(kind="worst_case"),
                  x0=np.array([0.0, 0.0]), dt=1e-2, horizon=0.2, filter_mode=mode)
    got = simulate(sc)
    _assert_same_records(got, _reference_simulate(sc))
    zero_rows = np.abs(got.us[:, 0]) < 1e-160
    assert zero_rows.sum() == 12 and not np.signbit(got.ws[zero_rows]).any()
    if gain == 1e-170:
        assert not np.signbit(got.ws).any() and not got.ws.any()


@pytest.mark.parametrize("kind", ["worst_case", "nominal"])
def test_a_non_finite_baseline_stops_the_run_with_its_error(kind):
    # the baseline turns NaN from t = 0.036 on, once s passes -19: every
    # filter refuses the data, and the unfiltered run diverges a step later
    lqr = lqr_controller()
    sc = replace(scenario_presets()["fig3_recbf"], horizon=0.2,
                 controller=lambda x: np.where(x[..., 4] > -19.0, np.nan, lqr(x)))
    if kind == "nominal":
        sc = replace(sc, adversary=Adversary())
    for mode in ("auto", "scalar", "socp", "qp"):
        with pytest.raises(ValueError, match="constraint data must be finite"):
            simulate(replace(sc, filter_mode=mode))
    with pytest.raises(SimulationError, match=r"state diverged at t = 0\.037$"):
        simulate(replace(sc, filter_mode="off"))


def _counted(counts, key, fn):
    """fn, counting its calls and the states they pass in counts[key]."""
    def counting(x):
        calls, rows = counts[key]
        counts[key] = (calls + 1, rows + x.size // x.shape[-1])
        return fn(x)
    return counting


def _count_evaluations(sc, run):
    counts = dict.fromkeys(("f", "g", "grad", "h"), (0, 0))
    dyn = replace(sc.dynamics, f=_counted(counts, "f", sc.dynamics.f),
                  g=_counted(counts, "g", sc.dynamics.g))
    bar = replace(sc.barrier, h=_counted(counts, "h", sc.barrier.h),
                  grad=_counted(counts, "grad", sc.barrier.grad))
    run(replace(sc, dynamics=dyn, barrier=bar))
    return counts


def _expected_evaluations(steps, lanes):
    """(calls, states) of f, g, grad h and h on fig3_recbf.  Each row calls
    f and grad h once, on the stack of x and the degree-2 stencil's 10
    points; g and h on x.  RK4's three further stages call f and
    g.  The last row takes no RK4 step.  Set-up evaluates h(x0) and
    grad_h @ g at x0, and the stack check calls each callable on a stack of
    two states and on each of them: 3 calls on 4 states."""
    per_row = {"f": (1, 11), "g": (1, 1), "grad": (1, 11), "h": (1, 1)}
    per_step = {"f": (3, 3), "g": (3, 3), "grad": (0, 0), "h": (0, 0)}
    setup = {"f": (3, 4), "g": (4, 5), "grad": (4, 5), "h": (4, 5)}
    rows = steps + 1
    return {key: (per_row[key][0] * rows + per_step[key][0] * steps + setup[key][0],
                  lanes * (per_row[key][1] * rows + per_step[key][1] * steps)
                  + setup[key][1])
            for key in per_row}


def test_one_evaluation_per_state():
    # the state x costs f, g, grad and h once each, shared by (p, a), the h
    # and hdot records and RK4's k1, and x rides on the stencil's stack: a
    # step calls f 4 times on 14 states, grad h once on 11, g 4 times on 4
    # and h once
    sc = replace(scenario_presets()["fig3_recbf"], horizon=0.1)
    counts = _count_evaluations(sc, simulate)
    assert counts == _expected_evaluations(100, 1)
    assert counts["f"] == (4 * 100 + 4, 14 * 100 + 15)
    assert counts["grad"] == (1 * 100 + 5, 11 * 100 + 16)
    # four lanes: the same calls per step, on four times the states
    sweep = replace(scenario_presets()["fig4_sweep"], horizon=0.1)
    assert _count_evaluations(sweep, simulate_sweep) == _expected_evaluations(100, 4)


# -- lanes --------------------------------------------------------------------

def _per_level(sc):
    return [simulate(replace(sc, sweep_thetas=None, name=f"{sc.name}_theta{theta:g}",
                             uncertainty=NormalizedUncertainty(theta, sc.uncertainty.scale)))
            for theta in sorted(sc.sweep_thetas)]


def _sweep_scenarios():
    presets = scenario_presets()
    sweep = replace(presets["fig4_sweep"], horizon=0.3, sweep_thetas=(0.6, 0.2, 0.4, 0.8))
    plant = SectorBound(0.5, 1.5)
    yield sweep                                           # nominal plant
    for scripted in (saturation_in_sector(20.0, 40.0, plant),
                     time_varying_gain(10.0, 0.5), random_in_sector(5)):
        yield replace(sweep, adversary=Adversary(kind="scripted", theta=0.5,
                                                 scripted=scripted))
    yield replace(sweep, adversary=Adversary(kind="worst_case", theta=0.3),
                  uncertainty=NormalizedUncertainty(theta=0.2, scale=1.4))
    yield replace(sweep, horizon=0.6, u_max=0.05,         # infeasible lanes
                  adversary=Adversary(kind="worst_case", theta=0.5))
    for mode in ("off", "socp", "qp"):
        yield replace(sweep, filter_mode=mode)
    dyn, bar = _integrator_2d()
    mimo = Scenario(dynamics=dyn, barrier=bar,
                    uncertainty=NormalizedUncertainty(theta=0.4, scale=0.9),
                    controller=_integrator_control,
                    adversary=Adversary(kind="worst_case"), x0=np.array([-0.5, 0.0]),
                    dt=1e-2, horizon=1.5, name="mimo", sweep_thetas=(0.1, 0.4, 0.7))
    for mode in ("auto", "socp", "qp"):
        yield replace(mimo, filter_mode=mode)
    # one state and one input: every product has one term, so -1 * +0.0 in
    # g v and 1 * -0.0 in the hdot record keep the sign of their zero
    dyn = Dynamics(f=np.negative, g=lambda x: np.full(x.shape + (1,), -1.0), n=1, m=1)
    bar = Barrier(h=lambda x: x[..., 0] + 1.0, degree=1, grad=np.ones_like)
    yield Scenario(dynamics=dyn, barrier=bar,
                   uncertainty=NormalizedUncertainty(theta=0.2, scale=1.0),
                   controller=_no_input, adversary=Adversary(), x0=np.array([0.0]),
                   dt=1e-2, horizon=0.05, name="zeros", sweep_thetas=(0.2, 0.4))


def test_sweep_lanes_match_single_runs_bit_for_bit():
    lanes = []
    for sc in _sweep_scenarios():
        got, want = simulate_sweep(sc), _per_level(sc)
        assert [r.name for r in got] == [r.name for r in want]
        for g, w in zip(got, want):
            _assert_same_records(g, w)
        lanes += got
    # the cases reach what they are there for
    assert any(r.infeasible.any() for r in lanes)
    assert any(r.altered.any() and r.us.shape[1] == 2 for r in lanes)
    assert any(np.signbit(r.hdot_vals).any() for r in lanes)
    # lanes share all but their level
    sc = scenario_presets()["fig3_recbf"]
    with pytest.raises(ValueError, match="beyond its level"):
        _lockstep([sc, replace(sc, horizon=0.5)])


def _pointwise(sc, which):
    """sc with one callable that takes a single state only."""
    A = np.array([[0.0, 1.0], [-1.0, -0.5]])
    dyn, bar = sc.dynamics, sc.barrier
    if which == "dynamics.f":  # A @ x on a (2, 2) stack mixes its rows
        return replace(sc, dynamics=replace(dyn, f=lambda x: A @ x + 0.4))
    if which == "dynamics.g":
        return replace(sc, dynamics=replace(dyn, g=lambda x: np.eye(2)))
    if which == "barrier.h":
        return replace(sc, barrier=replace(bar, h=lambda x: float(x[0] * x[0]) - 0.1))
    if which == "barrier.grad":
        return replace(sc, barrier=replace(bar, grad=lambda x: np.array([x[0], 1.0])))
    return replace(sc, controller=lambda x: np.array([1.0 - x[0], -x[1]]))


@pytest.mark.parametrize("which", ["dynamics.f", "dynamics.g", "barrier.h",
                                   "barrier.grad", "controller"])
def test_a_callable_that_takes_one_state_only_is_refused(which):
    dyn, bar = _integrator_2d()
    sc = Scenario(dynamics=dyn, barrier=bar,
                  uncertainty=NormalizedUncertainty(theta=0.4, scale=0.9),
                  controller=_integrator_control, adversary=Adversary(kind="worst_case"),
                  x0=np.array([-0.5, 0.0]), dt=1e-2, horizon=0.1, name="mimo")
    simulate(sc)
    with pytest.raises(SimulationError, match=which):
        simulate(_pointwise(sc, which))
