"""Dense SOCP solver: smoke problems, invariances, and hard instances."""

import math

import numpy as np
import pytest

from rcbf_shield.socp import (
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    ConeProgram,
    SocBlock,
    dump_program,
    residuals,
    solve_socp,
)
from rcbf_shield.socp import _hsd, _stacked


def _ball(n, radius=1.0):
    return SocBlock(np.eye(n), np.zeros(n), np.zeros(n), radius)


def test_minimize_coordinate_on_disk():
    prog = ConeProgram(c=np.array([1.0, 0.0]), blocks=(_ball(2),), n_vars=2)
    res = solve_socp(prog)
    assert res.status == STATUS_OPTIMAL
    assert res.z == pytest.approx([-1.0, 0.0], abs=1e-7)
    assert res.objective == pytest.approx(-1.0, abs=1e-7)


def test_maximize_diagonal_on_disk():
    c = -np.array([1.0, 1.0]) / math.sqrt(2.0)
    prog = ConeProgram(c=c, blocks=(_ball(2),), n_vars=2)
    res = solve_socp(prog)
    assert res.z == pytest.approx([math.sqrt(0.5), math.sqrt(0.5)], abs=1e-7)


def test_linear_inequality_block():
    # min z s.t. z >= 0: a cone block with zero-row A
    prog = ConeProgram(c=np.array([1.0]),
                       blocks=(SocBlock(np.zeros((0, 1)), np.zeros(0),
                                        np.ones(1), 0.0),),
                       n_vars=1)
    res = solve_socp(prog)
    assert res.status == STATUS_OPTIMAL
    assert res.z[0] == pytest.approx(0.0, abs=1e-7)


def test_infeasible_pair_detected():
    blocks = (SocBlock(np.zeros((0, 1)), np.zeros(0), np.ones(1), -1.0),
              SocBlock(np.zeros((0, 1)), np.zeros(0), -np.ones(1), -1.0))
    prog = ConeProgram(c=np.array([1.0]), blocks=blocks, n_vars=1)
    res = solve_socp(prog)
    assert res.status == STATUS_INFEASIBLE


def _disk(center, radius=1.0):
    return SocBlock(np.eye(2), -np.asarray(center, dtype=float), np.zeros(2), radius)


def test_infeasible_pair_certificate():
    # two unit disks 4 apart: the verdict comes with a Farkas certificate,
    # y in the cones with H' y = 0 and k @ y < 0, so no z meets both
    prog = ConeProgram(c=np.array([0.3, -0.2]),
                       blocks=(_disk([2.0, 0.0]), _disk([-2.0, 0.0])), n_vars=2)
    res = solve_socp(prog)
    assert res.status == STATUS_INFEASIBLE
    assert np.isnan(res.z).all() and res.primal_residual == math.inf
    outcome, _, y, _ = _hsd(prog, 1e-8, 100)
    assert outcome == "infeasible"
    for yi in (y[:3], y[3:]):
        assert yi[0] > np.linalg.norm(yi[1:])
    H, k, _ = _stacked(prog)
    assert k @ y < 0.0
    assert np.abs(H.T @ y).max() <= -1e-8 * (k @ y)
    # the same disks 1.9 apart overlap: optimal, inside both
    near = ConeProgram(c=prog.c, blocks=(_disk([0.95, 0.0]), _disk([-0.95, 0.0])),
                       n_vars=2)
    res = solve_socp(near)
    assert res.status == STATUS_OPTIMAL and res.primal_residual <= 1e-8


def test_scalar_robust_instance_frozen():
    # min q - 0*u s.t. 0.5*|u| <= u - 1 and 2q >= u^2: optimum at u = 2
    theta, p = 0.5, -1.0
    robust = SocBlock(np.array([[theta, 0.0]]), np.zeros(1),
                      np.array([1.0, 0.0]), p)
    epi = SocBlock(np.array([[math.sqrt(2.0), 0.0], [0.0, 1.0]]),
                   np.array([0.0, -1.0]), np.array([0.0, 1.0]), 1.0)
    prog = ConeProgram(c=np.array([0.0, 1.0]), blocks=(robust, epi), n_vars=2)
    res = solve_socp(prog)
    assert res.status == STATUS_OPTIMAL
    assert res.z[0] == pytest.approx(2.0, abs=1e-7)
    assert 2.0 * res.z[1] == pytest.approx(4.0, abs=1e-6)


def test_solution_respects_feasibility_report():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        A = rng.normal(size=(n, n))
        prog = ConeProgram(c=rng.normal(size=n),
                           blocks=(SocBlock(A, np.zeros(n), np.zeros(n),
                                            float(rng.uniform(0.5, 3.0))),),
                           n_vars=n)
        res = solve_socp(prog)
        assert res.status == STATUS_OPTIMAL
        viol, obj = residuals(prog, res.z)
        assert viol <= 1e-7
        assert obj == pytest.approx(res.objective)
        assert res.primal_residual <= 1e-7


def test_scaling_invariance():
    # scaling the objective must not move the minimizer
    prog1 = ConeProgram(c=np.array([1.0, 2.0]), blocks=(_ball(2),), n_vars=2)
    prog2 = ConeProgram(c=1e6 * np.array([1.0, 2.0]), blocks=(_ball(2),), n_vars=2)
    z1 = solve_socp(prog1).z
    z2 = solve_socp(prog2).z
    assert z1 == pytest.approx(z2, abs=1e-7)


def test_determinism_bitwise():
    prog = ConeProgram(c=np.array([0.3, -1.2, 0.05]), blocks=(_ball(3, 2.0),),
                       n_vars=3)
    r1 = solve_socp(prog)
    r2 = solve_socp(prog)
    assert r1.z.tobytes() == r2.z.tobytes()
    assert r1.iterations == r2.iterations


def test_warm_hint_agrees_with_cold_start():
    # the solver takes no start hint; this program's optimum is 3 * (1, -0.4)
    # / ||(1, -0.4)||, on the disk's rim
    prog = ConeProgram(c=np.array([-1.0, 0.4]), blocks=(_ball(2, 3.0),), n_vars=2)
    res = solve_socp(prog)
    assert res.status == STATUS_OPTIMAL
    assert res.z == pytest.approx(3.0 * np.array([1.0, -0.4]) / math.sqrt(1.16), abs=1e-7)


def test_extreme_scaling_instance():
    # filter geometry that pushes the optimum to ~1e2 and the epigraph to
    # ~1e4; the epigraph identity must still hold tightly
    theta = 0.8663067374146757
    a = -0.10650190772282923
    p = -2.43871493673121
    u0 = 5.274838508767818
    robust = SocBlock(np.array([[theta * abs(a), 0.0]]), np.zeros(1),
                      np.array([a, 0.0]), p)
    epi = SocBlock(np.array([[math.sqrt(2.0), 0.0], [0.0, 1.0]]),
                   np.array([0.0, -1.0]), np.array([0.0, 1.0]), 1.0)
    prog = ConeProgram(c=np.array([-u0, 1.0]), blocks=(robust, epi), n_vars=2)
    res = solve_socp(prog)
    assert res.status == STATUS_OPTIMAL
    u, q = res.z
    assert abs(2.0 * q - u * u) <= 1e-6 * max(1.0, u * u)
    # the robust constraint is active at this optimum
    assert p + a * u - theta * abs(a) * abs(u) == pytest.approx(0.0, abs=1e-6)


def test_feasible_set_pinched_to_a_point():
    # minimize ||u - u0|| s.t. u1 <= 1, u2 <= 1, u1 + u2 >= 2: only u = (1, 1)
    # is feasible, no point is strictly so, and four blocks are active on
    # three variables, where the polish takes least-squares steps
    u0 = np.array([-1e3, 1.0])
    e_t = np.eye(3)[2]

    def below(d, e):
        return SocBlock(np.zeros((0, 3)), np.zeros(0), np.array(d), e)

    blocks = (SocBlock(np.eye(2, 3), -u0, e_t, 0.0), below([-1.0, 0.0, 0.0], 1.0),
              below([0.0, -1.0, 0.0], 1.0), below([1.0, 1.0, 0.0], -2.0))
    res = solve_socp(ConeProgram(c=e_t, blocks=blocks, n_vars=3))
    assert res.status == STATUS_OPTIMAL
    assert res.z == pytest.approx([1.0, 1.0, float(np.linalg.norm(1.0 - u0))], abs=1e-8)


def test_boundary_start_hint_is_repaired():
    # every solve starts at the embedding's central point, which no cone
    # rejects; this program's optimum is (-1, 0)
    prog = ConeProgram(c=np.array([1.0, 0.0]), blocks=(_ball(2),), n_vars=2)
    res = solve_socp(prog)
    assert res.status == STATUS_OPTIMAL
    assert res.z == pytest.approx([-1.0, 0.0], abs=1e-7)


def test_block_shape_validation():
    with pytest.raises(ValueError):
        SocBlock(np.zeros((2, 2)), np.zeros(3), np.zeros(2), 1.0)
    with pytest.raises(ValueError):
        SocBlock(np.zeros((2, 2)), np.zeros(2), np.zeros(3), 1.0)
    with pytest.raises(ValueError):
        ConeProgram(c=np.zeros(2), blocks=(), n_vars=2)
    with pytest.raises(ValueError):
        ConeProgram(c=np.zeros(3), blocks=(_ball(2),), n_vars=2)


def test_dump_program_round_trips_floats():
    prog = ConeProgram(c=np.array([0.1, -2.0]), blocks=(_ball(2, 1.5),), n_vars=2)
    text = dump_program(prog)
    lines = text.strip().split("\n")
    assert lines[0].startswith("socp n_vars=2 c=[")
    assert len(lines) == 2
    # repr formatting survives eval round trip
    c_text = lines[0].split("c=")[1]
    assert eval(c_text) == [0.1, -2.0]


def test_gap_and_dual_residual_reported():
    prog = ConeProgram(c=np.array([1.0, 0.0]), blocks=(_ball(2),), n_vars=2)
    res = solve_socp(prog)
    assert res.gap <= 1e-6
    assert res.dual_residual <= 1e-6
