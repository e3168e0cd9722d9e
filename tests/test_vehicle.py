"""Lateral vehicle model: frozen matrix entries, barrier spot values, and
baseline regulation."""

import math

import numpy as np
import pytest

from rcbf_shield.barriers import barrier_terms, gradient, input_direction_defect
from rcbf_shield.config import scenario_presets
from rcbf_shield.sectors import NormalizedUncertainty
from rcbf_shield.sim import Adversary, Scenario, simulate, step_rk4
from rcbf_shield.vehicle import (
    LQR_GAIN,
    VehicleParams,
    X0,
    lateral_dynamics,
    lqr_controller,
    obstacle_barrier,
)


def _state_matrices(dyn):
    eye = np.eye(dyn.n)
    f0 = dyn.f(np.zeros(dyn.n))
    A = np.column_stack([dyn.f(eye[:, i]) - f0 for i in range(dyn.n)])
    return A, dyn.g(np.zeros(dyn.n)), f0


def test_state_matrix_spot_values():
    A, B, drift = _state_matrices(lateral_dynamics())
    # (caf + car) / (m U) with the default parameters
    assert A[1, 1] == pytest.approx(-4.8588537211291705, rel=1e-12)
    assert A[1, 2] == pytest.approx(136.04790419161677, rel=1e-12)
    assert A[3, 3] == pytest.approx(-7.171603741496598, rel=1e-12)
    assert A[0, 1] == 1.0 and A[2, 3] == 1.0
    assert B[1, 0] == pytest.approx(73.65269461077844, rel=1e-12)
    assert B[3, 0] == pytest.approx(57.98571428571429, rel=1e-12)
    assert B[0, 0] == B[2, 0] == B[4, 0] == 0.0
    assert drift == pytest.approx([0.0, 0.0, 0.0, 0.0, 28.0])


def test_params_validation():
    for value in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="must be positive"):
            VehicleParams(mass=value)
        with pytest.raises(ValueError, match="must be positive"):
            VehicleParams(speed=value)
    for value in (1.0, math.nan, -math.inf):
        with pytest.raises(ValueError, match="enter negative"):
            VehicleParams(corner_front=value)
        with pytest.raises(ValueError, match="enter negative"):
            VehicleParams(corner_rear=value)
    for radius in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="obstacle radius must be positive"):
            obstacle_barrier(radius)


def test_lqr_controller_frozen():
    ctrl = lqr_controller()
    assert ctrl(X0) == pytest.approx(-2.82)
    assert np.array_equal(LQR_GAIN, [1.41, 0.41, 3.30, 0.24])
    tracked = lqr_controller(reference=[1.0, 0.0, 0.0, 0.0])
    assert tracked(np.zeros(5)) == pytest.approx(1.41)
    with pytest.raises(ValueError):
        lqr_controller(gain=[1.0, 2.0])
    with pytest.raises(ValueError, match="gain must be finite"):
        lqr_controller(gain=[math.nan, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="reference must be finite"):
        lqr_controller(reference=[math.inf, 0.0, 0.0, 0.0])


def test_obstacle_barrier_spot_values():
    bar = obstacle_barrier()
    dyn = lateral_dynamics()
    assert bar.h(X0) == pytest.approx(395.0)
    assert bar.gains == (900.0, 60.0)
    assert bar.radius == 3.0
    grad = gradient(bar, X0)
    assert grad == pytest.approx([4.0, 0.0, 0.0, 0.0, -40.0])
    assert float(grad @ dyn.f(X0)) == pytest.approx(-1120.0)
    # the input never reaches hdot: the barrier really is degree 2
    assert input_direction_defect(bar, dyn, X0) == 0.0
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.normal(size=5) * 10.0
        assert input_direction_defect(bar, dyn, x) == 0.0


def test_degree_two_constraint_terms_at_start():
    bar = obstacle_barrier()
    dyn = lateral_dynamics()
    unc = NormalizedUncertainty(theta=0.5, scale=1.0)
    p, a = barrier_terms(bar, dyn, unc, X0)
    # p = L_f^2 h + k1 L_f h + k0 h = 1568 - 60*1120 + 900*395
    assert p == pytest.approx(289868.0, abs=1e-3)
    # a = grad(L_f h) @ B = 4 * B[1,0]
    assert a[0] == pytest.approx(4.0 * 73.65269461077844, rel=1e-5)


def test_second_derivative_matches_flow():
    # p, a reproduce the second time derivative of h along the actual flow
    bar = obstacle_barrier()
    dyn = lateral_dynamics()
    unc = NormalizedUncertainty(theta=0.5, scale=1.0)
    x = np.array([1.5, 0.3, -0.05, 0.1, -12.0])
    v = np.array([0.4])
    p, a = barrier_terms(bar, dyn, unc, x)
    k0, k1 = bar.gains
    psi = float(gradient(bar, x) @ dyn.f(x))
    hddot_terms = p - k1 * psi - k0 * float(bar.h(x)) + float(a @ v)
    # central difference of hdot along the constant-input flow
    eps = 1e-5
    def hdot_at(t):
        y = x.copy()
        steps = 32
        dt = t / steps
        for _ in range(steps):
            y = step_rk4(dyn, unc, y, v / unc.scale, np.zeros(1), dt)
        return float(gradient(bar, y) @ (dyn.f(y) + dyn.g(y) @ v))
    hddot_fd = (hdot_at(eps) - hdot_at(-eps)) / (2.0 * eps)
    assert hddot_terms == pytest.approx(hddot_fd, rel=1e-4)


def test_nominal_regulation_without_obstacle():
    # baseline LQR alone drives the tracking states toward the lane center
    dyn = lateral_dynamics()
    bar = obstacle_barrier()
    sc = Scenario(dynamics=dyn, barrier=bar,
                  uncertainty=NormalizedUncertainty(theta=0.0, scale=1.0),
                  controller=lqr_controller(), adversary=Adversary(),
                  x0=np.array([2.0, 0.0, 0.0, 0.0, -200.0]),
                  dt=1e-3, horizon=2.0, filter_mode="off")
    traj = simulate(sc)
    assert abs(traj.states[-1, 0]) < 0.25 * abs(traj.states[0, 0])
    assert np.max(np.abs(traj.states[-1, :4])) < 1.0


def test_presets_cover_the_study():
    presets = scenario_presets()
    assert set(presets) == {"fig3_lqr", "fig3_ecbf", "fig3_recbf", "fig4_sweep"}
    assert presets["fig3_lqr"].filter_mode == "off"
    assert presets["fig3_ecbf"].uncertainty.theta == 0.0
    assert presets["fig3_recbf"].uncertainty.theta == 0.5
    # the plant plays worst case at 0.5 in every fig3 run
    for name in ("fig3_lqr", "fig3_ecbf", "fig3_recbf"):
        adv = presets[name].adversary
        assert adv.kind == "worst_case" and adv.theta == 0.5
    assert presets["fig4_sweep"].sweep_thetas == (0.2, 0.4, 0.6, 0.8)
    assert presets["fig4_sweep"].adversary.kind == "nominal"
    for sc in presets.values():
        assert sc.dt == 1e-3 and sc.horizon == 2.0
        assert np.array_equal(sc.x0, X0)
