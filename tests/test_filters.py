"""Safety-filter routes: projections, minimality, soundness, dispatch."""

import math
import re
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rcbf_shield.verify
from rcbf_shield.filters import (
    FilterError,
    InfeasibleError,
    channel_margin,
    filter_auto,
    filter_qp_channels,
    filter_scalar,
    filter_socp,
    robust_margin,
)
from rcbf_shield.sectors import worst_case_input
from rcbf_shield.socp import solve_socp
from rcbf_shield.verify import (
    _route_agreement_instances,
    _split_agreement_instances,
    _wide_scale_boxed_instances,
    _wide_scale_instances,
    ball_program,
    check_wide_scale_stress,
    split_program,
)


def test_halfspace_projection_frozen():
    # theta = 0: 1 - 2*u1 >= 0 clips u1 at 0.5, u2 untouched
    res = filter_socp(1.0, np.array([-2.0, 0.0]), np.array([1.0, 0.0]), 0.0)
    assert res.u == pytest.approx([0.5, 0.0], abs=1e-8)
    assert res.altered
    assert res.margin >= -1e-8


def test_feasible_baseline_returned_unaltered():
    p, a, u0 = 5.0, np.array([1.0]), np.array([0.2])
    for route in (filter_scalar, filter_socp):
        res = route(p, a, u0, 0.3)
        assert not res.altered
        assert np.array_equal(res.u, u0)
    res = filter_qp_channels(p, a, u0, np.array([0.3]))
    assert not res.altered and np.array_equal(res.u, u0)


def test_scalar_route_frozen_instance():
    # p = -1, a = 1, theta = 0.5, u0 = 0: need u - 0.5|u| >= 1, so u = 2
    res = filter_scalar(-1.0, np.array([1.0]), np.array([0.0]), 0.5)
    assert res.u[0] == pytest.approx(2.0, abs=1e-12)
    assert res.margin == pytest.approx(0.0, abs=1e-12)
    assert worst_case_input(res.u, [1.0], 0.5)[0] == pytest.approx(-1.0)  # -theta*|u|*sign(a)


def test_scalar_route_negative_direction():
    res = filter_scalar(-1.0, np.array([-1.0]), np.array([0.0]), 0.5)
    assert res.u[0] == pytest.approx(-2.0, abs=1e-12)


def test_routes_agree_on_scalar_grid():
    thetas = [0.0, 0.25, 0.5, 0.75]
    grid = np.linspace(-4.0, 4.0, 9)
    for theta in thetas:
        for p in (-2.0, 0.5):
            for u0v in grid:
                a = np.array([1.3])
                u0 = np.array([u0v])
                exact = filter_scalar(p, a, u0, theta)
                cone = filter_socp(p, a, u0, theta)
                split = filter_qp_channels(p, a, u0, np.array([theta]))
                assert cone.u[0] == pytest.approx(exact.u[0], abs=1e-6)
                assert split.u[0] == pytest.approx(exact.u[0], abs=1e-6)


def test_minimality_against_candidate_grid():
    # no feasible grid point may be closer to u0 than the filtered input
    p = -2.0
    a = np.array([1.0, -0.8])
    u0 = np.array([0.3, 0.4])
    theta = 0.4
    res = filter_socp(p, a, u0, theta)
    dist = np.linalg.norm(res.u - u0)
    xs = np.linspace(-6.0, 6.0, 61)
    for u1 in xs:
        for u2 in xs:
            cand = np.array([u1, u2])
            if robust_margin(p, a, cand, theta) >= 0.0:
                assert np.linalg.norm(cand - u0) >= dist - 1e-6


def test_split_route_minimality_per_channel():
    p = -1.5
    a = np.array([2.0, 1.0])
    u0 = np.array([-0.2, 0.1])
    theta = np.array([0.3, 0.6])
    res = filter_qp_channels(p, a, u0, theta)
    dist = np.linalg.norm(res.u - u0)
    xs = np.linspace(-4.0, 4.0, 41)
    for u1 in xs:
        for u2 in xs:
            cand = np.array([u1, u2])
            if channel_margin(p, a, cand, theta) >= 0.0:
                assert np.linalg.norm(cand - u0) >= dist - 1e-6


def test_margin_soundness_random():
    rng = np.random.default_rng(21)
    for _ in range(50):
        m = int(rng.integers(1, 4))
        p = float(rng.uniform(-4.0, 4.0))
        a = rng.normal(size=m)
        if np.linalg.norm(a) < 0.1:
            continue
        u0 = rng.uniform(-5.0, 5.0, size=m)
        theta = float(rng.uniform(0.0, 0.85))
        res = filter_auto(p, a, u0, theta)
        assert res.margin >= -1e-8
        # margin is attained by w*: realization at w* equals the margin
        realized = p + float(a @ (res.u + worst_case_input(res.u, a, theta)))
        assert realized == pytest.approx(res.margin, abs=1e-9)


def test_theta_monotone_conservatism():
    # growing the uncertainty level never shrinks the correction
    p = -1.0
    a = np.array([1.0])
    u0 = np.array([0.0])
    prev = 0.0
    for theta in (0.0, 0.2, 0.4, 0.6, 0.8):
        res = filter_scalar(p, a, u0, theta)
        assert res.u[0] >= prev - 1e-12
        prev = res.u[0]


def test_epigraph_identity_on_solved_instances():
    rng = np.random.default_rng(22)
    for _ in range(25):
        m = int(rng.integers(2, 4))
        p = float(rng.uniform(-4.0, 1.0))
        a = rng.normal(size=m) * 2.0
        if np.linalg.norm(a) < 0.1:
            continue
        u0 = rng.uniform(-4.0, 4.0, size=m)
        theta = float(rng.uniform(0.0, 0.8))
        # the oracle's epigraph is tight at its optimum, t = ||u - u0||, and
        # its u is the ball route's
        oracle = solve_socp(ball_program(p, a, u0, theta))
        assert oracle.status == "optimal"
        u, t = oracle.z[:-1], float(oracle.z[-1])
        assert t == pytest.approx(float(np.linalg.norm(u - u0)), abs=1e-6)
        assert np.abs(filter_socp(p, a, u0, theta).u - u).max() <= 1e-6


def test_split_complementarity():
    # the oracle's split variables are complementary at its optimum, and
    # u+ - u- is the split route's u
    p = 4.0762984749473965
    a = np.array([9.64485474318362, 1.1367904403207176, 4.642268968237971])
    u0 = np.array([-6.396332715908006, 6.648924621031636, 2.1654095544854552])
    theta = np.array([0.5436452256153305, 0.21777456908258824, 0.6033186995540122])
    res = filter_qp_channels(p, a, u0, theta)
    oracle = solve_socp(split_program(p, a, u0, theta))
    assert oracle.status == "optimal"
    u_pos, u_neg = oracle.z[:3], oracle.z[3:6]
    assert float(np.minimum(u_pos, u_neg).max()) <= 1e-8
    assert res.u == pytest.approx(u_pos - u_neg, abs=1e-8)
    assert res.margin >= -1e-8


def test_degenerate_direction_paths():
    # a = 0 with p >= 0: constraint holds regardless of u
    res = filter_socp(0.5, np.zeros(2), np.array([1.0, -2.0]), 0.4)
    assert not res.altered
    assert res.margin == pytest.approx(0.5)
    # a = 0 with p < 0: nothing the input can do
    with pytest.raises(InfeasibleError) as exc:
        filter_socp(-0.5, np.zeros(2), np.array([1.0, -2.0]), 0.4)
    assert exc.value.degenerate


def test_box_bound_clips_and_raises():
    # feasible within the box: projection lands on the box face
    res = filter_scalar(-1.0, np.array([1.0]), np.array([0.0]), 0.0, u_max=3.0)
    assert res.u[0] == pytest.approx(1.0, abs=1e-9)
    # required input exceeds the box
    with pytest.raises(InfeasibleError):
        filter_scalar(-10.0, np.array([1.0]), np.array([0.0]), 0.0, u_max=3.0)
    with pytest.raises(InfeasibleError):
        filter_socp(-10.0, np.array([1.0, 0.0]), np.zeros(2), 0.0, u_max=3.0)
    with pytest.raises(ValueError):
        filter_scalar(0.0, np.array([1.0]), np.array([0.0]), 0.0, u_max=-1.0)


def test_box_bound_cone_route():
    res = filter_socp(-2.0, np.array([1.0, 1.0]), np.zeros(2), 0.3, u_max=5.0)
    assert np.all(np.abs(res.u) <= 5.0 + 1e-9)
    assert res.margin >= -1e-8


def test_infeasible_boxed_ball_instance_raises_infeasible():
    # the best margin in the box, at clip(t * a), is about -5.34
    with pytest.raises(InfeasibleError):
        filter_socp(-5.542674796167171,
                    np.array([-1.1169477397595844, 0.0694000696209158]),
                    np.array([-0.25959683055585825, 0.9390790605230682]),
                    0.8808730959700994, u_max=1.513503348106984)


def test_box_only_split_instance_returns_clipped_baseline():
    # the robust constraint is slack at the clipped baseline, so the box
    # projection of u0 is the exact answer
    p = 0.5973975381345245
    a = np.array([-1.0559641164152618, 0.34168764136572916, -0.5001940216960492,
                  -0.8360703817315657, -3.3587999265767237])
    u0 = np.array([-1.257368553308213, 2.5385835826998635, -0.8147134764277002,
                   2.2752995032631915, -3.89208545693527])
    theta = np.array([0.45277260927192425, 0.7989140605925743, 0.16104830611899,
                      0.4872800923367017, 0.262139894386334])
    u_max = 2.998345136530706
    res = filter_qp_channels(p, a, u0, theta, u_max=u_max)
    assert np.abs(res.u - np.clip(u0, -u_max, u_max)).max() <= 1e-12
    assert res.margin >= 0.0


def test_exact_routes_never_run_the_cone_solver(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the cone solver ran on an exact route")

    monkeypatch.setattr("rcbf_shield.filters.solve_socp", forbidden)
    rng = np.random.default_rng(23)
    for _ in range(40):
        m = int(rng.integers(1, 5))
        p = float(rng.uniform(-5.0, 0.0))
        a = rng.uniform(0.5, 2.0, size=m) * rng.choice([-1.0, 1.0], size=m)
        u0 = rng.uniform(-5.0, 5.0, size=m)
        theta = rng.uniform(0.0, 0.5, size=m)
        results = [filter_socp(p, a, u0, float(theta[0])),
                   filter_qp_channels(p, a, u0, theta),
                   filter_qp_channels(p, a, u0, theta, u_max=50.0),
                   filter_socp(p, a[:1], u0[:1], float(theta[0]), u_max=50.0)]
        for res in results:
            assert res.margin >= 0.0
        # the interval formula is certified to the filters' -1e-8 only
        assert filter_scalar(p, a[:1], u0[:1], float(theta[0])).margin >= -1e-8
    # the ball route under a box, feasible by construction: the point
    # t * a / ||a|| with t = u_max / max|a_i / ||a|||, on the box, has margin
    # p + (1 - theta) t ||a||.  The box binds wherever the unboxed answer
    # leaves it.
    binding = 0
    for m in (2, 3, 4):
        for _ in range(10):
            a = rng.normal(size=m)
            theta = float(rng.uniform(0.0, 0.8))
            u_max = float(rng.uniform(0.5, 2.0))
            reach = u_max * float(np.linalg.norm(a) / np.abs(a).max())
            p = -float(rng.uniform(0.8, 0.95)) * (1.0 - theta) * reach * float(np.linalg.norm(a))
            u0 = -3.0 * u_max * np.sign(a)  # the clipped baseline fails
            res = filter_socp(p, a, u0, theta, u_max=u_max)
            assert res.margin >= 0.0 and np.abs(res.u).max() <= u_max
            if np.abs(filter_socp(p, a, u0, theta).u).max() > u_max:
                binding += 1
                assert np.abs(res.u).max() == pytest.approx(u_max, abs=1e-12)
    assert binding >= 20


def test_wide_scale_stress_corpus_is_certified_and_optimal():
    res = check_wide_scale_stress()
    assert res.passed, res.detail


def test_wide_scale_stress_fails_on_a_moved_answer(monkeypatch):
    # every answer moved by 1e-5 of its scale: ten times the bound
    def moved(p, a, u0, theta, u_max=None):
        res = filter_auto(p, a, u0, theta, u_max=u_max)
        scale = max(1.0, float(np.linalg.norm(u0)), float(np.linalg.norm(res.u)))
        return replace(res, u=res.u + 1e-5 * scale * np.eye(a.size)[0])

    monkeypatch.setattr(rcbf_shield.verify, "filter_auto", moved)
    res = check_wide_scale_stress(n_instances=8)
    assert not res.passed
    assert float(re.search(r"disagreement (\S+)", res.detail).group(1)) > 9e-6, res.detail


def test_wide_scale_stress_fails_on_an_oracle_that_is_not_optimal(monkeypatch):
    def failing(prog):
        return replace(solve_socp(prog), status="numerical_failure")

    monkeypatch.setattr(rcbf_shield.verify, "solve_socp", failing)
    res = check_wide_scale_stress(n_instances=8)
    assert not res.passed
    assert "12 of 12 solver runs not optimal" in res.detail
    assert "first miss ended numerical_failure:\nsocp n_vars=" in res.detail


# (p, a, u0, theta, u_max) and the answer of the nested root searches that
# the breakpoint prox of the boxed ball route replaced, frozen
_BOXED_BALL_CASES = {
    "zero a_i": ((-0.9, [1.2, 0.0, -0.7], [-2.0, 1.5, 3.0], 0.4, [1.0, 0.5, 0.8]),
                 [1.0, 0.3259075356600285, -0.493833206879412]),
    "zero v_i": ((-0.7, [0.9, 0.0, -1.1], [-1.5, 0.0, 3.0], 0.3, [0.8, 0.6, 0.4]),
                 [0.6507833262675785, 0.0, -0.4]),
    "tied breakpoints": ((-0.8, [1.0, -1.0, 0.5], [-3.0, 3.0, -1.5], 0.35, [0.5, 0.5, 0.8]),
                         [0.5, -0.5, 0.5242801814179108]),
    # the corner (3, 4) has margin -20 + 25 - 1 * 5 = 0 and the margin grows
    # toward it on both channels: it is the one safe input in the box
    "every channel clamped": ((-20.0, [3.0, 4.0], [-10.0, 2.0], 0.2, [3.0, 4.0]),
                              [3.0, 4.0]),
    # theta = 0: clip(u0 + lam a), here (-1, -1.5 + 2 lam) at lam = 9 / 8
    "lam kappa = 0": ((-0.5, [1.0, 2.0], [-3.0, -1.5], 0.0, [1.0, 1.0]), [-1.0, 0.75]),
    "one channel": ((-0.6, [-1.5], [2.0], 0.5, [1.0]), [-0.8000000000000003]),
}


@pytest.mark.parametrize("case", sorted(_BOXED_BALL_CASES))
def test_boxed_ball_route_frozen_and_against_oracle(case):
    (p, a, u0, theta, u_max), expected = _BOXED_BALL_CASES[case]
    a, u0, u_max = np.array(a), np.array(u0), np.array(u_max)
    res = filter_socp(p, a, u0, theta, u_max=u_max)
    assert res.margin >= 0.0 and np.all(np.abs(res.u) <= u_max)
    assert res.u == pytest.approx(expected, rel=1e-12, abs=1e-15)
    oracle = solve_socp(ball_program(p, a, u0, theta, u_max))
    assert oracle.status == "optimal"
    assert np.abs(res.u - oracle.z[:-1]).max() <= 1e-6


def test_boxed_ball_route_across_scales():
    # a scaled by alpha, u0 and the box by beta, p by alpha * beta: the
    # answer scales by beta
    for case in ("zero a_i", "zero v_i", "tied breakpoints"):
        (p, a, u0, theta, u_max), expected = _BOXED_BALL_CASES[case]
        for alpha in (1e-2, 1.0, 1e3):
            for beta in (1e-2, 1.0, 1e3):
                box = beta * np.array(u_max)
                res = filter_socp(alpha * beta * p, alpha * np.array(a), beta * np.array(u0),
                                  theta, u_max=box)
                assert res.margin >= 0.0 and np.all(np.abs(res.u) <= box)
                assert res.u / beta == pytest.approx(expected, rel=1e-12, abs=1e-15)


def test_boxed_ball_route_finds_the_best_margin_in_the_box():
    # the box's best margin, a @ u - theta ||a|| ||u|| over a 201 x 201 grid,
    # bounds the true one from below: 99.9% of it must be met
    rng = np.random.default_rng(25)
    xs = np.linspace(-1.0, 1.0, 201)
    grid = np.stack(np.meshgrid(xs, xs), axis=-1).reshape(-1, 2)
    for _ in range(20):
        a = rng.normal(size=2)
        theta = float(rng.uniform(0.05, 0.9))
        u_max = rng.uniform(0.3, 1.5, size=2)
        pts = grid * u_max
        best = float(np.max(pts @ a - theta * np.linalg.norm(a) * np.linalg.norm(pts, axis=1)))
        res = filter_socp(-0.999 * best, a, -3.0 * u_max * np.sign(a), theta, u_max=u_max)
        assert res.margin >= 0.0 and np.all(np.abs(res.u) <= u_max)


def test_boxed_ball_route_decides_infeasibility_as_the_oracle():
    # the route raises exactly where the oracle certifies infeasibility
    rng = np.random.default_rng(24)
    raised = 0
    for i in range(40):
        m = int(rng.integers(2, 5))
        a = rng.normal(size=m)
        if i % 7 == 0:
            a[0] = 0.0
        u0 = rng.normal(size=m) * 2.0
        theta = float(rng.uniform(0.0, 0.8))
        u_max = rng.uniform(0.3, 1.5, size=m)
        p = float(rng.normal() * 1.5)
        oracle = solve_socp(ball_program(p, a, u0, theta, u_max))
        try:
            res = filter_socp(p, a, u0, theta, u_max=u_max)
        except InfeasibleError:
            raised += 1
            assert oracle.status == "infeasible", i
            continue
        assert oracle.status == "optimal", i
        assert res.margin >= 0.0 and np.all(np.abs(res.u) <= u_max)
        assert np.abs(res.u - oracle.z[:-1]).max() <= 1e-6
    assert 5 <= raised <= 35


def test_auto_dispatch(monkeypatch):
    calls = []
    for name in ("filter_scalar", "filter_socp", "filter_qp_channels"):
        monkeypatch.setattr(f"rcbf_shield.filters.{name}",
                            lambda *args, name=name, **kwargs: calls.append(name))
    p, u0 = -1.0, np.array([0.0])
    a = np.array([1.0])
    filter_auto(p, a, u0, 0.5)  # one channel: the interval
    filter_auto(p, np.array([1.0, 0.5]), np.zeros(2), 0.5)  # several: the ball
    filter_auto(p, a, u0, np.array([0.5]))  # per-channel levels: the split
    assert calls == ["filter_scalar", "filter_socp", "filter_qp_channels"]


def test_small_continuity_in_p():
    a = np.array([1.0, -0.4])
    u0 = np.array([0.2, 0.1])
    base = filter_socp(-1.0, a, u0, 0.5).u
    bumped = filter_socp(-1.0 + 1e-6, a, u0, 0.5).u
    assert np.linalg.norm(base - bumped) <= 1e-4


def test_validation_errors():
    with pytest.raises(ValueError):
        filter_scalar(0.0, np.array([1.0, 2.0]), np.array([0.0, 0.0]), 0.5)
    with pytest.raises(ValueError):
        filter_socp(np.nan, np.array([1.0]), np.array([0.0]), 0.5)
    with pytest.raises(ValueError):
        filter_socp(0.0, np.array([1.0]), np.array([0.0]), 1.0)
    with pytest.raises(ValueError):
        filter_qp_channels(0.0, np.array([1.0]), np.array([0.0]), np.array([-0.1]))


@settings(deadline=None, max_examples=50)
@given(p=st.floats(-5.0, 5.0), theta=st.floats(0.0, 0.9),
       a1=st.floats(0.1, 5.0), sign=st.sampled_from([-1.0, 1.0]),
       u0v=st.floats(-8.0, 8.0))
def test_scalar_filter_is_sound_and_minimal(p, theta, a1, sign, u0v):
    a = np.array([sign * a1])
    u0 = np.array([u0v])
    res = filter_scalar(p, a, u0, theta)
    assert res.margin >= -1e-9
    # minimality: any u strictly between u0 and the answer is infeasible
    if res.altered:
        for frac in (0.25, 0.5, 0.75):
            mid = u0 + frac * (res.u - u0)
            assert robust_margin(p, a, mid, theta) < 1e-9


def _bits(x) -> bytes:
    return struct.pack("<d", float(x))


def _scalar_reference(p, a, u0, theta, u_max=None):
    """The interval route on one-element arrays, its certificate from
    `robust_margin`: (u, margin)."""
    a, u0 = np.array([a]), np.array([u0])
    u = u0.copy() if u_max is None else np.clip(u0, -u_max, u_max)
    if not robust_margin(p, a, u, theta) >= 0.0:
        av, uv = float(a[0]), float(u0[0])
        if av == 0.0:
            raise InfeasibleError(
                f"input direction vanished (a = 0) with negative drift term p = {p}",
                degenerate=True)
        lo_slope = -p / ((1.0 - theta) * av)
        hi_slope = -p / ((1.0 + theta) * av)
        if av > 0.0:
            u_l = max(lo_slope, hi_slope)
            hi = math.inf if u_max is None else u_max
            if u_l > hi:
                raise InfeasibleError(
                    f"feasible interval [{u_l}, inf) lies outside the bound {hi}")
            u = np.array([min(max(uv, u_l if u_max is None else max(u_l, -u_max)), hi)])
        else:
            u_h = min(lo_slope, hi_slope)
            lo = -math.inf if u_max is None else -u_max
            if u_h < lo:
                raise InfeasibleError(
                    f"feasible interval (-inf, {u_h}] lies outside the bound {lo}")
            u = np.array([max(min(uv, u_h if u_max is None else min(u_h, u_max)), lo)])
    return float(u[0]), robust_margin(p, a, u, theta)


def _scalar_corpus(n=3000, seed=20211):
    """Instances (p, a, u0, theta, u_max) over signs, zeros and scales."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        a = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 3.0))
        u0 = float(rng.normal() * 10.0 ** rng.uniform(-2.0, 2.0))
        p = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 4.0))
        theta = float(rng.uniform(0.0, 0.95))
        u_max = None
        if i % 7 == 0:
            u0 = float(rng.choice([0.0, -0.0]))
        if i % 11 == 0:
            p = float(rng.choice([0.0, -0.0]))
        if i % 5 == 0:
            theta = 0.0
        if i % 13 == 0:
            a = float(rng.choice([0.0, -0.0]))
        if i % 3 == 0:  # the box: from well inside the answer to far out
            u_max = float(10.0 ** rng.uniform(-2.0, 3.0))
        out.append((p, a, u0, theta, u_max))
    return out


def test_scalar_route_is_bit_exact_against_the_array_certificate():
    seen = {"unaltered": 0, "interval": 0, "box binds": 0, "box slack": 0,
            "outside the bound": 0, "degenerate": 0, "zero baseline": 0}
    for p, a, u0, theta, u_max in _scalar_corpus():
        try:
            want = _scalar_reference(p, a, u0, theta, u_max)
        except InfeasibleError as err:
            with pytest.raises(InfeasibleError) as got:
                filter_scalar(p, np.array([a]), np.array([u0]), theta, u_max=u_max)
            assert str(got.value) == str(err)
            assert got.value.degenerate == err.degenerate
            seen["degenerate" if err.degenerate else "outside the bound"] += 1
            continue
        res = filter_scalar(p, np.array([a]), np.array([u0]), theta, u_max=u_max)
        assert res.u.shape == (1,)
        got = (res.u[0], res.margin)
        assert [_bits(v) for v in got] == [_bits(v) for v in want], (p, a, u0, theta, u_max)
        assert res.altered == (abs(want[0] - u0) > 1e-8)
        seen["interval" if res.altered else "unaltered"] += 1
        seen["zero baseline"] += u0 == 0.0
        if u_max is not None:
            seen["box binds" if abs(want[0]) == u_max else "box slack"] += 1
    assert min(seen.values()) > 0, seen


def test_scalar_route_keeps_its_argument_errors():
    one, two = np.array([1.0]), np.array([1.0, 2.0])
    cases = [
        ((0.0, two, np.zeros(2), 0.5), {}, "interval route needs one channel"),
        ((0.0, one, np.zeros(2), 0.5), {}, "shape mismatch"),
        ((np.nan, one, one, 0.5), {}, "constraint data must be finite"),
        ((0.0, np.array([np.inf]), one, 0.5), {}, "constraint data must be finite"),
        ((0.0, one, np.array([-np.inf]), 0.5), {}, "constraint data must be finite"),
        ((0.0, two, np.array([np.nan, 0.0]), 0.5), {}, "constraint data must be finite"),
        ((0.0, one, one, 1.0), {}, "uncertainty level"),
        ((0.0, one, one, -0.1), {}, "uncertainty level"),
        ((0.0, one, one, 0.5), {"u_max": 0.0}, "box bounds must be positive"),
        ((0.0, one, one, 0.5), {"u_max": -2.0}, "box bounds must be positive"),
        ((0.0, one, one, 0.5), {"u_max": np.nan}, "box bounds must be positive"),
    ]
    for args, kwargs, message in cases:
        with pytest.raises(ValueError, match=message):
            filter_scalar(*args, **kwargs)
    # scalars and one-element lists stand for one channel, as before
    res = filter_scalar(-1.0, 1.0, [0.0], 0.5, u_max=np.array([3.0]))
    assert res.u.tolist() == [2.0]


# ---------------------------------------------------------------------------
# The cone routes as they ran on arrays before they moved to plain floats,
# kept as the reference of the float routes: the same checks and messages,
# the baseline, and the dual root over the numpy prox (the ball route under
# a box walks its clip breakpoints, with Newton for the shrink scale).


def _ref_illinois(f, lo, hi, flo, fhi):
    side = 0
    for _ in range(200):
        if fhi == 0.0 or hi - lo <= 1e-15 * hi:
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


def _ref_multiplier(g, g0, aa):
    lo, glo = 0.0, g0
    hi = max(-glo / max(aa, 1e-300), 1e-300)
    while not (ghi := g(hi)) >= 0.0:
        if hi > 1e300:
            raise InfeasibleError("no multiplier meets the robust constraint")
        lo, glo, hi = hi, ghi, 2.0 * hi
    return _ref_illinois(g, lo, hi, glo, ghi)


def _ref_breakpoints(x, ub, below):
    pts = sorted((b / abs(xi), b * b, xi * xi) for xi, b in zip(x, ub) if b < below * abs(xi))
    free = [0.0] * (len(pts) + 1)
    free[-1] = sum(xi * xi for xi, b in zip(x, ub) if not b < below * abs(xi))
    for j in range(len(pts) - 1, -1, -1):
        free[j] = free[j + 1] + pts[j][2]
    return pts, free


def _ref_box_reach(a, ub, kappa):
    pts, free = _ref_breakpoints(a, ub, math.inf)
    k2, clamped = kappa * kappa, 0.0
    for j, (_, b2, _) in enumerate(pts):
        clamped += b2
        f = free[j + 1]
        if j + 1 == len(pts) or (f < k2 and clamped <= (k2 - f) * pts[j + 1][0] ** 2):
            return math.sqrt(clamped / (k2 - f))


def _ref_shrink_scale(v, ub, k, norm_v):
    pts, free = _ref_breakpoints(v, ub, 1.0)
    if not pts or k >= norm_v * (1.0 - pts[0][0]):
        return 1.0 - k / norm_v
    clamped = 0.0
    for j, (s, b2, _) in enumerate(pts):
        clamped += b2
        end = pts[j + 1][0] if j + 1 < len(pts) else 1.0
        f = free[j + 1]
        if k * end >= math.sqrt(clamped + f * end * end) * (1.0 - end):
            break
    for _ in range(100):
        n = math.sqrt(clamped + f * s * s)
        r = n * (1.0 - s) - k * s
        if r <= 0.0:
            break
        nxt = min(s + r * s * n / (clamped + f * s * s * s), end)
        if not nxt > s:
            break
        s = nxt
    return s


def _ref_boxed_ball_root(p, a, u0, kappa, ub, margin):
    al, ul, bl = a.tolist(), u0.tolist(), ub.tolist()
    if kappa > 0.0:
        best = np.clip(_ref_box_reach(al, bl, kappa) * a, -ub, ub)
    else:
        best = np.sign(a) * ub
    if margin(best) < 0.0:
        raise InfeasibleError(
            f"no input within the box satisfies the robust constraint (p={p})")

    def shrink(lam):
        v = [x + lam * y for x, y in zip(ul, al)]
        k, norm_v = lam * kappa, math.hypot(*v)
        if norm_v <= k:
            return [0.0] * len(v)
        s = _ref_shrink_scale(v, bl, k, norm_v) if k > 0.0 else 1.0
        return [max(-b, min(b, s * x)) for x, b in zip(v, bl)]

    def g(lam):
        u = shrink(lam)
        return p + sum(x * y for x, y in zip(al, u)) - kappa * math.hypot(*u)

    lam = _ref_multiplier(g, margin(np.clip(u0, -ub, ub)), float(a @ a))
    step = math.ulp(lam)
    while margin(u := np.array(shrink(lam))) < 0.0:
        if lam > 1e300:
            raise InfeasibleError("no multiplier meets the robust constraint")
        lam, step = lam + step, 2.0 * step
    return u


def _ref_dual_root(p, a, u0, theta, ub, margin, ball):
    kappa = theta * float(np.linalg.norm(a))
    if ball and ub is not None:
        return _ref_boxed_ball_root(p, a, u0, kappa, ub, margin)
    load = theta * np.abs(a)
    if ub is not None and margin(np.sign(a) * ub) < 0.0:
        raise InfeasibleError(
            f"no input within the box satisfies the robust constraint (p={p})")

    def shrink(lam):
        v = u0 + lam * a
        if not ball:
            u = np.sign(v) * np.maximum(np.abs(v) - lam * load, 0.0)
            return u if ub is None else np.clip(u, -ub, ub)
        k, norm_v = lam * kappa, float(np.linalg.norm(v))
        if norm_v <= k:
            return np.zeros(v.size)
        return v * (1.0 - k / norm_v)

    def g(lam):
        return margin(shrink(lam))

    return shrink(_ref_multiplier(g, g(0.0), float(a @ a)))


def _ref_filter(p, a, u0, theta, u_max=None, ball=True):
    """u of the array-era filter_socp (ball) or filter_qp_channels."""
    p = float(p)
    a = np.atleast_1d(np.asarray(a, dtype=float))
    u0 = np.atleast_1d(np.asarray(u0, dtype=float))
    if a.ndim != 1 or u0.shape != a.shape:
        raise ValueError(f"shape mismatch: a {a.shape}, u0 {u0.shape}")
    if not (math.isfinite(p) and np.all(np.isfinite(a)) and np.all(np.isfinite(u0))):
        raise ValueError("constraint data must be finite")
    if ball:
        theta = float(theta)
        if not 0.0 <= theta < 1.0:
            raise ValueError(f"uncertainty level must satisfy 0 <= theta < 1, got {theta}")
    else:
        theta = np.broadcast_to(np.asarray(theta, dtype=float), (a.size,)).astype(float)
        if not np.all((theta >= 0.0) & (theta < 1.0)):
            raise ValueError("per-channel levels must lie in [0, 1)")
    ub = None
    if u_max is not None:
        ub = np.broadcast_to(np.asarray(u_max, dtype=float), (a.size,)).astype(float)
        if not np.all(np.isfinite(ub)) or np.any(ub <= 0.0):
            raise ValueError("box bounds must be positive and finite")

    def margin(v):
        if ball:
            return robust_margin(p, a, v, theta)
        return channel_margin(p, a, v, theta)

    u = u0.copy() if ub is None else np.clip(u0, -ub, ub)
    if margin(u) >= 0.0:
        return u
    if not a.any():
        raise InfeasibleError(
            f"input direction vanished (a = 0) with negative drift term p = {p}",
            degenerate=True)
    return _ref_dual_root(p, a, u0, theta, ub, margin, ball)


def _split_prox(a, u0, theta, ub, lam):
    u = np.sign(u0 + lam * a) * np.maximum(np.abs(u0 + lam * a) - lam * theta * np.abs(a), 0.0)
    return u if ub is None else np.clip(u, -ub, ub)


def _split_kinks(a, u0, theta, ub):
    """lam > 0 where a channel's positive part (slope a_i - theta_i |a_i|)
    leaves 0 or reaches ub_i, or its negative part (a_i + theta_i |a_i|)
    leaves 0 or reaches -ub_i."""
    bound = np.full(a.size, np.inf) if ub is None else ub
    out = []
    for x, y, t, b in zip(u0, a, theta, bound):
        if y != 0.0:
            for d, ends in ((y - t * abs(y), (0.0, b)), (y + t * abs(y), (0.0, -b))):
                out += [k for k in ((e - x) / d for e in ends) if 0.0 < k < math.inf]
    return sorted(out)


_PARITY_KINDS = ("random", "tied", "on a kink", "past the last kink", "every channel clamped",
                 "infeasible box")


def _parity_corpus(n=1800, seed=20212):
    """(kind, p, a, u0, theta, u_max, ball) over m 2..5 and scales 1e-2..1e4:
    zero a_i, u0 entries of +-0.0 and p = 0 mixed in, plus the kinds above."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        kind = _PARITY_KINDS[i % len(_PARITY_KINDS)]
        m = 2 + (i // len(_PARITY_KINDS)) % 4
        ball = (i // 24) % 2 == 0 and kind not in ("on a kink", "past the last kink")
        sa, su = 10.0 ** rng.uniform(-2.0, 4.0, size=2)
        a = rng.normal(size=m) * sa
        u0 = rng.normal(size=m) * su
        theta = float(rng.uniform(0.0, 0.9)) if ball else rng.uniform(0.0, 0.9, size=m)
        u_max = None
        if kind in ("every channel clamped", "infeasible box") or (
                kind not in ("past the last kink",) and (i // 48) % 2 == 1):
            u_max = su * 10.0 ** rng.uniform(-1.0, 0.5, size=m)
        if i % 5 == 0:
            a[int(rng.integers(m))] = 0.0
        if i % 7 == 0:
            u0[int(rng.integers(m))] = float(rng.choice([0.0, -0.0]))
        if kind == "tied":
            a[1], u0[1] = a[0], u0[0]
            if not ball:
                theta[1] = theta[0]
            if u_max is not None:
                u_max[1] = u_max[0]
        tv = theta if not ball else np.full(m, theta)
        pen = (lambda u: robust_margin(0.0, a, u, theta)) if ball else (
            lambda u: channel_margin(0.0, a, u, tv))
        base = pen(u0 if u_max is None else np.clip(u0, -u_max, u_max))
        p = -base - float(10.0 ** rng.uniform(-3.0, 1.0)) * sa * su
        if i % 11 == 0:
            p = 0.0
        elif kind == "on a kink":
            # a kink with the margin rising on both sides: next to a stretch
            # where it stays flat at 0, where the array route stops depends
            # on rounding (test_split_route_lands_on_a_kink_beside_a_flat_stretch
            # holds the float route to the exact answer there)
            kinks = _split_kinks(a, u0, tv, u_max)
            ends = [0.0] + kinks + [2.0 * kinks[-1] if kinks else 1.0]
            g = [pen(_split_prox(a, u0, tv, u_max, lam)) for lam in ends]
            mid = [pen(_split_prox(a, u0, tv, u_max, 0.5 * (x + y))) for x, y in zip(ends, ends[1:])]
            tol = 1e-9 * sa * su
            rising = [j for j in range(1, len(ends) - 1)
                      if mid[j - 1] + tol < g[j] < mid[j] - tol]
            if rising:
                p = -g[rising[int(rng.integers(len(rising)))]]
        elif kind == "past the last kink":
            kinks = _split_kinks(a, u0, tv, None)
            far = 4.0 * (kinks[-1] if kinks else 1.0)
            p = -pen(_split_prox(a, u0, tv, None, far))
        elif kind in ("every channel clamped", "infeasible box"):
            if ball:  # a box along |a|: its corner is the best input in it
                a = np.where(a == 0.0, sa, a)
                u_max = abs(a) * (su / sa)
            best = pen(np.sign(a) * u_max)
            p = -best
            if kind == "infeasible box":
                p -= abs(best) * float(10.0 ** rng.uniform(-3.0, 0.3))
        out.append((kind, p, a, u0, theta, u_max, ball))
    return out


def test_float_routes_match_the_array_routes():
    seen = {}
    for kind, p, a, u0, theta, u_max, ball in _parity_corpus():
        route, cert = (filter_socp, robust_margin) if ball else (filter_qp_channels, channel_margin)
        args = (p, a, u0, theta)
        try:
            want = _ref_filter(*args, u_max=u_max, ball=ball)
        except InfeasibleError:
            try:
                res = route(*args, u_max=u_max)
            except InfeasibleError:
                seen[kind, "infeasible"] = seen.get((kind, "infeasible"), 0) + 1
                continue
            # only where the box's best margin is 0 up to rounding may the
            # float route certify an input that the array route missed
            assert kind == "every channel clamped", (kind, args, u_max)
            assert res.margin >= 0.0 and res.margin == cert(p, a, res.u, theta)
            assert np.all(np.abs(res.u) <= u_max)
            scale = abs(p) + float(np.abs(a) @ u_max)
            assert abs(cert(p, a, np.sign(a) * u_max, theta)) <= 1e-14 * scale
            seen[kind, "certified where the array route raised"] = seen.get(
                (kind, "certified where the array route raised"), 0) + 1
            continue
        res = route(*args, u_max=u_max)
        assert res.margin >= 0.0 and res.margin == cert(p, a, res.u, theta), (kind, args, u_max)
        scale = max(1.0, float(np.linalg.norm(u0)), float(np.linalg.norm(res.u)))
        assert np.linalg.norm(res.u - want) <= 1e-12 * scale, (kind, args, u_max)
        if u_max is not None:
            assert np.all(np.abs(res.u) <= u_max)
        key = kind, ("ball" if ball else "split") + (" boxed" if u_max is not None else "")
        seen[key] = seen.get(key, 0) + 1
    for kind in _PARITY_KINDS[:-1]:
        assert seen.get((kind, "split"), 0) + seen.get((kind, "split boxed"), 0) > 0, kind
    for key in ("ball", "ball boxed", "split", "split boxed"):
        assert seen.get(("random", key), 0) > 0, key
    assert seen.get(("tied", "ball boxed"), 0) > 0
    assert seen.get(("infeasible box", "infeasible"), 0) > 0
    assert seen.get(("every channel clamped", "ball boxed"), 0) > 0
    assert seen.get(("every channel clamped", "split boxed"), 0) > 0


_BOXED_KINDS = ("flat start", "zero a_i", "tied breakpoints", "random")


def _boxed_ball_corpus(n=480, seed=20218):
    """(kind, p, a, u0, theta, ub) for the ball route under a box, m 2..5,
    |a| and |u0| at scales 1e-2..1e3: the box-projected baseline fails and
    the box holds a safe input.  "flat start": every channel of u0 lies
    outside the box, so all are clamped at lam = 0; "tied breakpoints":
    channel 1 mirrors channel 0, so both clamp at the same s."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        kind = _BOXED_KINDS[i % len(_BOXED_KINDS)]
        m = 2 + (i // len(_BOXED_KINDS)) % 4
        sa, su = 10.0 ** rng.uniform(-2.0, 3.0, size=2)
        a = rng.normal(size=m) * sa
        ub = su * rng.uniform(0.3, 1.5, size=m)
        u0 = ub * rng.uniform(-3.0, 3.0, size=m)
        theta = float(rng.choice([0.0, rng.uniform(0.0, 0.9)], p=[0.1, 0.9]))
        if kind == "flat start":
            u0 = ub * rng.uniform(1.0, 3.0, size=m) * rng.choice([-1.0, 1.0], size=m)
        elif kind == "zero a_i":
            a[int(rng.integers(m))] = 0.0
        elif kind == "tied breakpoints":
            sign = float(rng.choice([-1.0, 1.0]))
            a[1], u0[1], ub[1] = sign * a[0], sign * u0[0], ub[0]
        kappa = theta * float(np.linalg.norm(a))
        if kappa > 0.0:
            best = np.clip(_ref_box_reach(a.tolist(), ub.tolist(), kappa) * a, -ub, ub)
        else:
            best = np.sign(a) * ub
        base = robust_margin(0.0, a, np.clip(u0, -ub, ub), theta)
        top = robust_margin(0.0, a, best, theta)
        if not top > base:
            continue  # the baseline is the box's best input: nothing to search
        p = -(base + float(rng.uniform(0.05, 0.95)) * (top - base))
        out.append((kind, p, a, u0, theta, ub))
    return out


def _ref_clamped(a, u0, theta, ub, lam):
    """Signs of the channels that the reference prox clamps at lam."""
    v = u0 + lam * a
    k, norm_v = lam * theta * float(np.linalg.norm(a)), float(np.linalg.norm(v))
    if norm_v <= k:
        return [0] * a.size
    s = _ref_shrink_scale(v.tolist(), ub.tolist(), k, norm_v) if k > 0.0 else 1.0
    return [int(np.sign(x)) if abs(s * x) >= b else 0 for x, b in zip(v, ub)]


def test_boxed_ball_search_matches_the_reference(monkeypatch):
    # the active-set search against the array-era reference, over flat
    # starts, zero a_i, tied breakpoints and searches whose clamped set at
    # the root differs from the one at their first point
    firsts = []

    def spy(gd, g0, y):
        def first(lam):
            if len(firsts) < calls[0]:
                firsts.append(lam)
            return gd(lam)
        return newton(first, g0, y)

    newton, calls = rcbf_shield.filters._newton_root, [0]
    monkeypatch.setattr(rcbf_shield.filters, "_newton_root", spy)
    seen = dict.fromkeys(_BOXED_KINDS[:-1] + ("set changes",), 0)
    for kind, p, a, u0, theta, ub in _boxed_ball_corpus():
        calls[0] += 1
        want = _ref_filter(p, a, u0, theta, u_max=ub)
        res = filter_socp(p, a, u0, theta, u_max=ub)
        assert res.margin >= 0.0 and np.all(np.abs(res.u) <= ub), (kind, p, a, u0, theta, ub)
        scale = max(1.0, float(np.linalg.norm(u0)), float(np.linalg.norm(res.u)))
        assert np.linalg.norm(res.u - want) <= 1e-12 * scale, (kind, p, a, u0, theta, ub)
        assert len(firsts) == calls[0], "every instance searches"
        if kind != "random":
            seen[kind] += 1
        root = [int(np.sign(x)) if abs(x) == b else 0 for x, b in zip(res.u, ub)]
        seen["set changes"] += root != _ref_clamped(a, u0, theta, ub, firsts[-1])
    assert min(seen.values()) >= 20, seen


def test_boxed_ball_search_breaks_a_newton_cycle(monkeypatch):
    cases = [
        # instance 1003 of the seed-7919 boxed_filters corpus: Newton cycles
        # about a kink of g where the clamped set changes, and the search
        # takes 66 evaluations with the cycling test switched off
        (-0.17189336222366555,
         [-0.07408994557951523, -0.41395342767488236, 0.1072497587953909,
          -0.16568163646488399, 0.13505119489363598],
         [1.0220116286237013, 2.2430249995243456, 0.9067805957219265,
          1.7389815367543844, -1.2309949454956683],
         0.6255042944053705, 0.9603123914633849),
        # route-agreement instance 691, unboxed: the root lies within an ulp
        # above the bracket's lower end, and the search took 53 evaluations
        # while the doubling that closed the bracket counted as a crossing
        (-0.38502981718345897, [-3.7499933402935226], [5.9360892251070005],
         0.32336698044573564, None),
    ]
    newton, evals = rcbf_shield.filters._newton_root, []

    def spy(gd, g0, y):
        def counted(lam):
            evals.append(lam)
            return gd(lam)
        return newton(counted, g0, y)

    monkeypatch.setattr(rcbf_shield.filters, "_newton_root", spy)
    for p, a, u0, theta, u_max in cases:
        a, u0 = np.array(a), np.array(u0)
        evals.clear()
        res = filter_socp(p, a, u0, theta, u_max=u_max)
        assert 0 < len(evals) <= 20, (p, len(evals))
        assert res.margin >= 0.0 and (u_max is None or np.all(np.abs(res.u) <= u_max))
        want = _ref_filter(p, a, u0, theta, u_max=u_max)
        scale = max(1.0, float(np.linalg.norm(u0)), float(np.linalg.norm(res.u)))
        assert np.linalg.norm(res.u - want) <= 1e-12 * scale


def test_newton_root_on_a_smooth_and_a_kinked_g():
    # arctan(lam - c) flattens away from its root, where Newton overshoots;
    # the kinked g changes slope by 1e+-3 at its root c.  Where g >= 0, gd
    # hands [lam] as the answer with its margin: g itself from `end` on,
    # and below it a fixed deficit, -g(end), over the stretch [c, end) of
    # 16 ulps, about the rounding bound of a float margin on six channels,
    # where g is already >= 0 but the margin does not certify.  The band is
    # 0, so each search must find the root itself
    def kinked(c, k):
        return lambda x: (x - c, 1.0) if x < c else (k * (x - c), k)

    for c in (0.5, 3.0, 50.0, 1e3):
        gs = {"arctan": lambda x, c=c: (math.atan(x - c), 1.0 / (1.0 + (x - c) ** 2)),
              "kink 1e-3": kinked(c, 1e-3), "kink 1e3": kinked(c, 1e3)}
        for name, g in gs.items():
            for end in (c, c + 16.0 * math.ulp(c)):
                for y in 10.0 ** np.arange(-3, 5):
                    evals = []

                    def gd(lam, g=g, end=end):
                        evals.append(lam)
                        gx, dx = g(lam)
                        if gx < 0.0:
                            return gx, dx, None, gx, 0.0
                        return gx, dx, [lam], gx if lam >= end else -g(end)[0], 0.0

                    (root,), value = rcbf_shield.filters._newton_root(gd, g(0.0)[0], float(y))
                    case = (name, c, end, y, root, len(evals))
                    assert value == g(root)[0] >= 0.0 and root >= end, case
                    assert abs(root - c) <= 1e-12 * c, case
                    assert len(evals) <= 25, case


def test_newton_root_that_never_certifies_raises_a_plain_filter_error():
    # a g that stays below 0 and flat doubles lam past 1e300, and a margin
    # that stays below 0 where g >= 0 runs the search out of steps: neither
    # shows that no input is safe, so neither is an InfeasibleError
    never = [lambda lam: (-1.0, 0.0, None, -1.0, 0.0),
             lambda lam: (lam - 1.0, 1.0, None, lam - 1.0, 0.0) if lam < 1.0
             else (lam - 1.0, 1.0, [lam], -1.0, 0.0)]
    for gd in never:
        with pytest.raises(FilterError, match="did not converge") as err:
            rcbf_shield.filters._newton_root(gd, -1.0, 0.5)
        assert not isinstance(err.value, InfeasibleError)


def test_ball_route_answers_where_w_cancels_near_theta_one():
    # feasible (u0 + t a / ||a|| is safe from t ~ 1 on the first), yet the
    # closed-form g took w = t - theta ||v|| with t ~ ||v||: it cancelled
    # and sat one ulp of p below 0 for thousands of ulps of mu, until the
    # search ran out of steps and the route raised InfeasibleError
    cases = [
        (-9.583835255715457e-09,
         [-1.6447225662454777e-05, 1.263822046891847e-06, 6.106721121738712e-06,
          5.685963419137721e-07, 8.860639831691738e-06],
         [-0.0005347902813436868, 0.0005448554250364343, -0.00017406099470670705,
          0.0007298578831204773, 0.0006457531583523582], 0.9992926285250259),
        (-1.8003339216508057e-16,
         [-1.5636082909803754e-12, 5.8868660812907284e-12, 2.03742419648717e-11,
          -1.0656767812629343e-12, -1.7631302605688764e-11],
         [-2.1848238282275277e-07, 1.594695301656103e-06, 2.4400856900527216e-06,
          3.880852500650075e-07, 8.842215346866538e-07], 0.9999726833473151),
    ]
    for p, a, u0, theta in cases:
        a, u0 = np.array(a), np.array(u0)
        res = filter_socp(p, a, u0, theta)
        assert res.margin >= 0.0 and res.margin == robust_margin(p, a, res.u, theta)
        # optimal by the KKT conditions: the constraint is active, and u - u0
        # is a positive multiple of the margin's gradient at u (the solver
        # fails on the second instance, at ~1e-11 of a's scale)
        norm_a, norm_u = np.linalg.norm(a), np.linalg.norm(res.u)
        assert res.margin <= 1e-15 * (abs(p) + np.abs(a) @ np.abs(res.u) + theta * norm_a * norm_u)
        grad, step = a - theta * norm_a * res.u / norm_u, res.u - u0
        lam = step @ grad / (grad @ grad)
        assert lam > 0.0 and np.linalg.norm(step - lam * grad) <= 1e-9 * np.linalg.norm(step)


def test_cone_routes_keep_their_argument_errors():
    two, three = np.array([1.0, -2.0]), np.array([1.0, 2.0, 3.0])
    nan, inf = math.nan, math.inf
    bad = [  # (p, a, u0, theta, u_max), theta a scalar; the split route also gets it per channel
        (nan, two, two, 0.5, None), (inf, two, two, 0.5, None), (0.0, [1.0, nan], two, 0.5, None),
        (0.0, two, [0.0, -inf], 0.5, None), (0.0, two, three, 0.5, None),
        (0.0, two.reshape(2, 1), two.reshape(2, 1), 0.5, None), (0.0, [[1.0, 2.0]], two, 0.5, None),
        (0.0, two, two, 1.0, None), (0.0, two, two, -0.1, None), (0.0, two, two, nan, None),
        (0.0, two, two, 0.5, 0.0), (0.0, two, two, 0.5, -1.0), (0.0, two, two, 0.5, nan),
        (0.0, two, two, 0.5, inf), (0.0, two, two, 0.5, [1.0, 0.0]), (0.0, two, two, 0.5, three),
        (0.0, two, two, 0.5, np.ones((2, 2))),
    ]
    per_channel = [(0.0, two, two, [0.5, 1.0], None), (0.0, two, two, [0.5, nan], None),
                   (0.0, two, two, [0.1, 0.2, 0.3], None), (0.0, two, two, np.full((2, 2), 0.5), None)]
    checked = 0
    for ball, cases in ((True, bad), (False, bad + per_channel)):
        route = filter_socp if ball else filter_qp_channels
        for p, a, u0, theta, u_max in cases:
            with pytest.raises(Exception) as want:
                _ref_filter(p, a, u0, theta, u_max=u_max, ball=ball)
            with pytest.raises(Exception) as got:
                route(p, a, u0, theta, u_max=u_max)
            assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))
            checked += 1
    assert checked == 2 * len(bad) + len(per_channel)
    # lists, 0-d arrays and numpy scalars stand for the arrays they make
    for ball in (True, False):
        route = filter_socp if ball else filter_qp_channels
        theta = 0.3 if ball else [0.3, 0.6]
        for p, a, u0, u_max in ((np.float64(-2.0), [1.0, -0.5], [0.0, 0.0], None),
                                (-2.0, [1.0, -0.5], (0.5, 0.0), [4.0, 4.0]),
                                (-1.0, np.array(2.0), np.array(-1.0), np.array(3.0))):
            th = theta if ball or np.ndim(a) else 0.3
            want = _ref_filter(p, a, u0, th, u_max=u_max, ball=ball)
            res = route(p, a, u0, th, u_max=u_max)
            assert res.u.shape == want.shape and np.abs(res.u - want).max() <= 1e-12
            assert res.margin >= 0.0


def test_ball_route_survives_an_underflowing_a_dot_a():
    # a @ a underflows to 0 below |a| ~ 1e-162; ||a|| is taken with hypot
    res = filter_socp(1.0, [1e-170, 0.0], [1.0, 0.0], 0.5)
    assert np.array_equal(res.u, [1.0, 0.0]) and not res.altered
    for p, u0, u_max in ((-1e-300, [-1.0, 0.0], None), (-1e-300, [0.0, 0.0], None),
                         (-1e-300, [-1.0, 2.0], 1.0), (-1e-300, [0.0, 0.0], 1.0),
                         (-1.0, [0.0, 0.0], None), (-1.0, [0.0, 0.0], 1.0)):
        try:
            res = filter_socp(p, [1e-170, 0.0], u0, 0.5, u_max=u_max)
        except InfeasibleError:
            continue
        assert res.margin >= 0.0 and res.margin == robust_margin(p, [1e-170, 0.0], res.u, 0.5)


def test_boxed_ball_route_solves_a_failing_margin_near_underflow():
    # g(0) = p is subnormal or tiny beside the box's best margin: the first
    # point -p / ||a|| (in mu = lam ||a||) is already the root, and the box
    # corner is safe
    for p, u_max in ((-1e-300, 1e30), (-1e-310, 1.0)):
        res = filter_socp(p, [1.0, 1.0], [0.0, 0.0], 0.0, u_max=u_max)
        assert res.margin >= 0.0 and res.margin == robust_margin(p, [1.0, 1.0], res.u, 0.0)
        assert res.u[0] == res.u[1] and 0.0 < res.u[0] <= 1e-299


def test_boxed_ball_route_steps_past_a_flat_start_on_a_tiny_failing_margin():
    # Both channels start clamped and g = p stays flat up to lam = 1, where
    # the first one frees; the root lies just past it.  The first point
    # -p / ||a|| is ~1e-150 or subnormal, so doubling alone would need ~500
    # steps to leave the stretch: the search has to jump to its end
    for p in (-1e-150, -1e-310):
        res = filter_socp(p, [1.0, -1.0], [-2.0, -2.0], 0.0, u_max=1.0)
        assert res.margin >= 0.0 and res.margin == robust_margin(p, [1.0, -1.0], res.u, 0.0)
        assert np.allclose(res.u, [-1.0, -1.0], rtol=0.0, atol=1e-12)


def test_split_route_lands_on_a_kink_beside_a_flat_stretch():
    # p puts the root of g on a kink k, so u(k) is the exact answer.  Where
    # no channel moves on one side of k, g stays 0 there and the sign of
    # its rounding is arbitrary: a failed certificate must send the route
    # on to where u moves again, not double its way past that point
    rng = np.random.default_rng(31)
    flat = 0
    for i in range(1500):
        m = 2 + i % 4
        sa, su = 10.0 ** rng.uniform(-2.0, 4.0, size=2)
        a, u0 = rng.normal(size=m) * sa, rng.normal(size=m) * su
        theta = rng.uniform(0.0, 0.9, size=m)
        u_max = su * 10.0 ** rng.uniform(-1.0, 0.5, size=m) if i % 2 else None
        kinks = _split_kinks(a, u0, theta, u_max)
        if not kinks:
            continue
        j = int(rng.integers(len(kinks)))
        want = _split_prox(a, u0, theta, u_max, kinks[j])
        p = -channel_margin(0.0, a, want, theta)
        if u_max is not None and channel_margin(p, a, np.sign(a) * u_max, theta) <= 1e-12 * abs(p):
            continue  # the box's best input: whether it certifies is rounding
        res = filter_qp_channels(p, a, u0, theta, u_max=u_max)
        scale = max(1.0, float(np.linalg.norm(u0)), float(np.linalg.norm(want)))
        assert res.margin >= 0.0 and np.linalg.norm(res.u - want) <= 1e-12 * scale, (i, p)
        sides = [0.5 * (x + kinks[j]) for x in ([kinks[j - 1]] if j else [0.0])
                 + ([kinks[j + 1]] if j + 1 < len(kinks) else [])]
        flat += any(np.array_equal(_split_prox(a, u0, theta, u_max, lam), want) for lam in sides)
    assert flat >= 20, flat


def _numpy_margin(p, a, u, theta):
    """The margin by numpy's BLAS arithmetic, as the array-era certificate
    took it, and T = |p| + sum_i |a_i u_i| + the penalty term."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    with np.errstate(all="ignore"):  # the overflow case below reads inf - inf
        if np.ndim(theta):
            penalty = (np.atleast_1d(np.asarray(theta, dtype=float)) * np.abs(a)) @ np.abs(u)
        else:
            penalty = theta * np.linalg.norm(u) * np.linalg.norm(a)
        return float(p + a @ u - penalty), abs(p) + float(np.abs(a * u).sum()) + abs(float(penalty))


def test_numpy_margin_of_every_answer_stays_within_the_rounding_bound():
    # a cone route's certificate is its float margin; numpy evaluates the
    # same formula in other roundings and may read it below 0, but by no
    # more than the two evaluations' standard error bounds together,
    # 2 (m + 2) 2^-53 T
    answers = []
    for p, a, theta, u0, ub in _route_agreement_instances(1000):
        routes = [(filter_socp, theta)] + ([(filter_qp_channels, np.array([theta]))]
                                           if a.size == 1 else [])
        for route, th in routes:
            try:
                answers.append((p, a, th, route(p, a, u0, th, u_max=ub)))
            except InfeasibleError:
                pass
    for p, a, theta, u0, ub in _split_agreement_instances(1000):
        answers.append((p, a, theta, filter_qp_channels(p, a, u0, theta, u_max=ub)))
    for p, a, u0, theta, ub in [*_wide_scale_instances(200), *_wide_scale_boxed_instances(100)]:
        route = filter_qp_channels if np.ndim(theta) else filter_socp
        answers.append((p, a, theta, route(p, a, u0, theta, u_max=ub)))
    worst, several = 0.0, 0
    for p, a, theta, res in answers:
        cert = channel_margin if np.ndim(theta) else robust_margin
        assert res.margin >= 0.0 and res.margin == cert(p, a, res.u, theta)
        value, scale = _numpy_margin(p, a, res.u, theta)
        worst = min(worst, value / (2.0 * (a.size + 2) * 2.0 ** -53 * scale))
        several += a.size > 1
    assert worst >= -1.0, worst
    assert len(answers) > 3000 and several > 1400, (len(answers), several)


def test_one_channel_margins_repeat_the_numpy_bits():
    # on one channel the float margins take numpy's IEEE operations wherever
    # no square under- or overflows, so filter_scalar's bit-exact margin and
    # every vehicle digest hold
    cases = [(p, a, u0, theta) for p, a, u0, theta, _ in _scalar_corpus()]
    cases += [(0.0, 33.8, -0.0, 0.0), (-0.0, -0.0, 5.0, 0.2)]  # signed zeros
    for p, a, u, theta in cases:
        want = _numpy_margin(p, [a], [u], theta)[0]
        assert _bits(robust_margin(p, [a], [u], theta)) == _bits(want), (p, a, u, theta)
        want = _numpy_margin(p, [a], [u], [theta])[0]
        assert _bits(channel_margin(p, [a], [u], [theta])) == _bits(want), (p, a, u, theta)
        assert _bits(channel_margin(p, a, u, theta)) == _bits(want), (p, a, u, theta)
    # a * a or u * u underflowing or overflowing, where numpy's sqrt(x * x)
    # is not |x|: the norms stay |x|
    for p, a, u, theta in ((0.0, 1e-170, 3.0, 0.5), (0.0, -2.0, 1e-170, 0.3),
                           (1.0, 1e160, 1e-160, 0.5), (1.0, 1e200, 1e200, 0.5)):
        want = p + (0.0 + a * u) - theta * abs(u) * abs(a)
        assert _bits(robust_margin(p, [a], [u], theta)) == _bits(want), (p, a, u, theta)
        want = p + (0.0 + a * u) - (0.0 + theta * abs(a) * abs(u))
        assert _bits(channel_margin(p, [a], [u], [theta])) == _bits(want), (p, a, u, theta)
    # |a| * 0 is 0, so the safe input u = 0 is returned with its margin p
    res = filter_scalar(1.0, 1e200, 0.0, 0.5)
    assert res.u.tolist() == [0.0] and res.margin == 1.0 and not res.altered


def test_margins_reject_vectors_of_unequal_length():
    # a bare zip would truncate the longer vector silently
    two, three = [1.0, -2.0], [1.0, 2.0, 3.0]
    for a, u in ((two, three), (three, two), ([[1.0, -2.0]], two), (two, [[1.0], [2.0]])):
        with pytest.raises(ValueError):
            robust_margin(0.5, a, u, 0.3)
        with pytest.raises(ValueError):
            channel_margin(0.5, a, u, 0.3)
    for theta in ([0.1, 0.2], [0.1, 0.2, 0.3, 0.4], [[0.1, 0.2, 0.3]]):
        with pytest.raises(ValueError):
            channel_margin(0.5, three, three, theta)
    # one level stands for every channel, as numpy broadcasts it
    assert channel_margin(0.5, three, two + [0.0], [0.3]) == channel_margin(
        0.5, three, two + [0.0], [0.3, 0.3, 0.3])


def test_a_nan_margin_is_never_certified():
    # products past the float range give the box's best input a margin of
    # inf - inf, which neither clears nor fails the constraint: a typed
    # error, not an answer certified by NaN and not a verdict of infeasible
    a, u0 = [1e200, 1e200], [-1e200, 0.0]
    for route, theta in ((filter_socp, 0.5), (filter_qp_channels, [0.5, 0.5])):
        with pytest.raises(FilterError, match="NaN") as err:
            route(-1.0, a, u0, theta, u_max=1e200)
        assert not isinstance(err.value, InfeasibleError)
    # the same at the baseline, and on the interval route
    with pytest.raises(FilterError, match="NaN"):
        filter_socp(-1.0, a, [1e200, -1e200], 0.5)
    with pytest.raises(FilterError, match="NaN"):
        filter_scalar(-1.0, 1e200, 1e200, 0.5)


def test_split_search_takes_few_evaluations(monkeypatch):
    # the split route's dual root is one more client of _newton_root, on its
    # own margin and that margin's closed-form slope
    newton, evals = rcbf_shield.filters._newton_root, []

    def spy(gd, g0, y):
        def counted(lam):
            evals[-1] += 1
            return gd(lam)
        evals.append(0)
        return newton(counted, g0, y)

    monkeypatch.setattr(rcbf_shield.filters, "_newton_root", spy)
    for p, a, theta, u0, ub in _split_agreement_instances(1000):
        assert filter_qp_channels(p, a, u0, theta, u_max=ub).margin >= 0.0
    assert len(evals) > 500, len(evals)
    assert max(evals) <= 30 and sum(evals) <= 5 * len(evals), (max(evals), sum(evals) / len(evals))
    # the channel sits clamped at -b, then at 0, so g is flat on two
    # stretches: each is crossed in one step, where doubling took 37
    # evaluations.  A channel with a_i = 0 never moves and ends no stretch.
    p, a, u0, theta, ub = (-4.525330960738214e-06, 0.02601907078772417, -8.393344504392426,
                           0.4501420207205075, 0.021459689875079402)
    for zero_u0 in (None, 0.0, 5.0):
        rows = [(a, u0, theta, ub)] + ([] if zero_u0 is None else [(0.0, zero_u0, 0.3, 1.0)])
        evals.clear()
        res = filter_qp_channels(p, *map(list, zip(*rows)))
        assert res.margin >= 0.0 and evals[0] <= 8, (zero_u0, evals)


def test_an_overflowing_split_slope_raises_filter_error():
    # a_i u0_i past the float range, so the baseline margin is -inf: a typed
    # error, not an OverflowError, nor an InfeasibleError
    with pytest.raises(FilterError, match="overflows") as err:
        filter_qp_channels(-1.0, [1e200, 1e200], [-1e200, 0.0], [0.5, 0.5])
    assert not isinstance(err.value, InfeasibleError)
    # ||a||^2 and (|a_i| - theta_i |a_i|)^2 overflow, but every margin is
    # finite: a certified answer, u = 2e-160, with or without the box
    for ub in (None, [1.0]):
        r = filter_qp_channels(-1.0, [1e160], [-1.0], [0.5], u_max=ub)
        assert r.margin >= 0.0 and r.margin == channel_margin(-1.0, [1e160], r.u, [0.5])
        assert abs(r.u[0]) <= 1e-14
    # ||a|| itself overflows; the answer is about [-1e-301, 3e-301]
    a = [1.5e308, 1.5e308]
    r = filter_qp_channels(-1.0, a, [-1e-300, 0.0], [0.5, 0.5])
    assert r.margin >= 0.0 and r.margin == channel_margin(-1.0, a, r.u, [0.5, 0.5])
    assert np.allclose(r.u, [-1e-301, 3e-301], rtol=1e-6, atol=0.0)


def test_ball_route_searches_where_the_square_of_a_overflows():
    # ||a||^2 overflows, but every margin is finite: the searches run in
    # mu = lam ||a||, which needs no square of a.  The answer is the point
    # of the cone a @ u >= theta ||a|| ||u|| nearest u0, [-(2 - sqrt 3) / 4,
    # 1 / 4] up to ~1e-160, inside the box u_max = 1 too
    a, u0 = [1e160, 1e160], [-1.0, 0.0]
    for u_max in (None, 1.0):
        res = filter_socp(-1.0, a, u0, 0.5, u_max=u_max)
        assert res.margin >= 0.0 and res.margin == robust_margin(-1.0, a, res.u, 0.5)
        assert np.allclose(res.u, [-(2.0 - math.sqrt(3.0)) / 4.0, 0.25], rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("boxed", [False, True])
def test_ball_route_answers_keep_their_bits_when_p_and_a_scale_by_a_power_of_two(boxed):
    # 2^k p and 2^k a scale every margin and g by 2^k exactly and leave the
    # search's iterates in mu = lam ||a|| as they are, for k from the
    # underflow of a @ a to the overflow of ||a||^2
    searched = 0
    for p, a, theta, u0, ub in _route_agreement_instances(1000):
        if (ub is not None) != boxed:
            continue
        try:
            want = filter_socp(p, a, u0, theta, u_max=ub)
        except InfeasibleError:
            want = None
        for k in (-600, 530):
            try:
                got = filter_socp(math.ldexp(p, k), np.ldexp(a, k), u0, theta, u_max=ub)
            except InfeasibleError:
                assert want is None, (k, p, a, theta, u0, ub)
                continue
            assert want is not None and got.u.tobytes() == want.u.tobytes(), (k, p, a, u0)
            assert got.altered == want.altered
        searched += want is not None and want.altered
    assert searched >= 90
