"""Safety-filter routes: projections, minimality, soundness, dispatch."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rcbf_shield.filters import (
    InfeasibleError,
    ball_oracle,
    channel_margin,
    filter_auto,
    filter_qp_channels,
    filter_scalar,
    filter_socp,
    robust_margin,
)
from rcbf_shield.sectors import worst_case_input
from rcbf_shield.verify import check_wide_scale_stress


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
    assert res.w_star[0] == pytest.approx(-1.0)  # -theta*|u|*sign(a)


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
        realized = p + float(a @ (res.u + res.w_star))
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
        res = filter_socp(p, a, u0, theta)
        if res.q_star is not None and res.altered:
            assert 2.0 * res.q_star == pytest.approx(float(res.u @ res.u), abs=1e-6)


def test_split_complementarity():
    res = filter_qp_channels(
        4.0762984749473965,
        np.array([9.64485474318362, 1.1367904403207176, 4.642268968237971]),
        np.array([-6.396332715908006, 6.648924621031636, 2.1654095544854552]),
        np.array([0.5436452256153305, 0.21777456908258824, 0.6033186995540122]))
    assert res.u_pos is not None and res.u_neg is not None
    assert float(np.minimum(res.u_pos, res.u_neg).max()) <= 1e-8
    assert res.u == pytest.approx(res.u_pos - res.u_neg, abs=1e-12)
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
    res = filter_auto(p, a, u0, theta, u_max=u_max, mode="socp")
    assert res.margin >= 0.0 and np.all(np.abs(res.u) <= u_max)
    assert res.u == pytest.approx(expected, rel=1e-12, abs=1e-15)
    if case != "every channel clamped":  # a lone safe point has no interior
        oracle = ball_oracle(p, a, u0, theta, u_max)
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
    # the oracle's phase 1 ends "infeasible" on most infeasible instances
    # and "numerical_failure" on the rest; it never ends "optimal" there
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
        oracle = ball_oracle(p, a, u0, theta, u_max)
        try:
            res = filter_socp(p, a, u0, theta, u_max=u_max)
        except InfeasibleError:
            raised += 1
            assert oracle.status != "optimal", i
            continue
        assert oracle.status == "optimal", i
        assert res.margin >= 0.0 and np.all(np.abs(res.u) <= u_max)
        assert np.abs(res.u - oracle.z[:-1]).max() <= 1e-6
    assert 5 <= raised <= 35


def test_auto_dispatch():
    p, u0 = -1.0, np.array([0.0])
    a = np.array([1.0])
    assert filter_auto(p, a, u0, 0.5).q_star is None  # scalar closed form
    r_vec = filter_auto(p, np.array([1.0, 0.5]), np.zeros(2), 0.5)
    assert r_vec.q_star is not None  # cone route
    r_chan = filter_auto(p, a, u0, np.array([0.5]))
    assert r_chan.u_pos is not None  # split route
    with pytest.raises(ValueError):
        filter_auto(p, a, u0, 0.5, mode="nope")


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
    `robust_margin` and `worst_case_input`: (u, margin, w_star)."""
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
    w = worst_case_input(u, a, theta) if a[0] != 0.0 else np.zeros(1)
    return float(u[0]), robust_margin(p, a, u, theta), float(w[0])


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
        assert res.u.shape == res.w_star.shape == (1,)
        got = (res.u[0], res.margin, res.w_star[0])
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
