"""Numerical self-checks runnable from the command line.

Each check draws deterministic random instances, compares an
implementation against an independent oracle or a cross-route
counterpart, and reports the worst deviation next to its tolerance.
The quick suite trims instance counts to stay under ten seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from .config import load_scenario
from .filters import (
    InfeasibleError,
    channel_margin,
    filter_auto,
    filter_qp_channels,
    filter_scalar,
    filter_socp,
    robust_margin,
)
from .sectors import (
    NormalizedUncertainty,
    optimal_multiplier,
    worst_case_input,
    worst_case_oracle,
)
from .sim import simulate, step_rk4
from .socp import (
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    ConeProgram,
    SocBlock,
    dump_program,
    solve_socp,
)
from .vehicle import X0, lateral_dynamics

__all__ = [
    "CheckResult",
    "ball_program",
    "split_program",
    "check_worst_case_oracle",
    "check_multiplier_identity",
    "check_route_agreement",
    "check_split_agreement",
    "check_margin_soundness",
    "check_wide_scale_stress",
    "check_theta_zero_reduction",
    "check_rk4_order",
    "check_determinism",
    "run_checks",
    "format_report",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, measured: float, bound: float) -> CheckResult:
    return CheckResult(name, bool(measured <= bound),
                       f"worst {measured:.3g} vs bound {bound:.3g}")


def _random_direction(rng: np.random.Generator, m: int) -> np.ndarray:
    v = rng.normal(size=m)
    n = np.linalg.norm(v)
    while n < 1e-12:
        v = rng.normal(size=m)
        n = np.linalg.norm(v)
    return v / n


def check_worst_case_oracle(n_instances: int = 100) -> CheckResult:
    """Closed-form ball minimizer vs dense sampling of admissible w
    (`worst_case_oracle`'s 10,000 points)."""
    rng = np.random.default_rng(11)
    worst_beaten = 0.0
    worst_gap_rel = 0.0
    for _ in range(n_instances):
        m = int(rng.integers(1, 4))
        u = _random_direction(rng, m) * rng.uniform(0.5, 5.0)
        a = _random_direction(rng, m) * rng.uniform(0.5, 5.0)
        theta = rng.uniform(0.05, 0.9)
        w_star = worst_case_input(u, a, theta)
        exact = float(a @ (u + w_star))
        w_best = worst_case_oracle(u, a, theta)
        sampled = float(a @ (u + w_best))
        budget = theta * np.linalg.norm(u) * np.linalg.norm(a)
        worst_beaten = max(worst_beaten, exact - sampled)
        worst_gap_rel = max(worst_gap_rel, (sampled - exact) / budget)
    beaten_ok = worst_beaten <= 1e-9
    gap_ok = worst_gap_rel <= 1e-2
    detail = (f"sampling above closed form by at most {worst_gap_rel:.3g} of the "
              f"ball budget (bound 0.01); closed form beaten by {worst_beaten:.3g}")
    return CheckResult("worst_case_oracle", beaten_ok and gap_ok, detail)


def check_multiplier_identity() -> CheckResult:
    """Stationarity a + 2*lambda*w* = 0 of the inner ball problem, on 1000
    instances."""
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(1, 4))
        u = _random_direction(rng, m) * rng.uniform(0.1, 10.0)
        a = _random_direction(rng, m) * rng.uniform(0.1, 10.0)
        theta = rng.uniform(0.01, 0.99)
        w_star = worst_case_input(u, a, theta)
        lam = optimal_multiplier(u, a, theta)
        resid = np.linalg.norm(a + 2.0 * lam * w_star) / np.linalg.norm(a)
        worst = max(worst, resid)
    return _result("multiplier_identity", worst, 1e-10)


def _scalar_instances(rng: np.random.Generator, n: int):
    for _ in range(n):
        p = rng.uniform(-5.0, 5.0)
        a = np.array([rng.uniform(0.1, 10.0) * rng.choice([-1.0, 1.0])])
        theta = rng.uniform(0.0, 0.9)
        u0 = np.array([rng.uniform(-10.0, 10.0)])
        yield p, a, theta, u0


def _boxed_instances(rng: np.random.Generator, n: int):
    # feasible by construction: with d = a / ||a||, the point t * d,
    # t = ub / max|d_i|, lies in the box with margin p + (1 - theta) t ||a||
    for _ in range(n):
        m = int(rng.integers(1, 4))
        a = _random_direction(rng, m) * rng.uniform(0.1, 10.0)
        theta = rng.uniform(0.0, 0.9)
        ub = np.full(m, 10.0 ** rng.uniform(-0.5, 0.5))
        reach = ub[0] / float(np.abs(a).max() / np.linalg.norm(a))
        p = -rng.uniform(0.1, 0.9) * (1.0 - theta) * reach * float(np.linalg.norm(a))
        u0 = ub * rng.uniform(-3.0, 3.0, size=m)
        yield p, a, theta, u0, ub


def _boxed_infeasible_instances(rng: np.random.Generator, n: int):
    # the geometry of _boxed_instances with p at 1.05 .. 3 times the margin
    # of its point along a: infeasible unless a point off the a direction
    # does better in the box, which none does on m = 1
    for _, a, theta, u0, ub in _boxed_instances(rng, n):
        along = (1.0 - theta) * float(ub[0] * (a @ a) / np.abs(a).max())
        yield -rng.uniform(1.05, 3.0) * along, a, theta, u0, ub


def _routes(p, a, theta, u0, ub):
    # every route that takes the instance: the ball route, and on m = 1 the
    # interval and split routes too
    routes = [lambda: filter_socp(p, a, u0, theta, u_max=ub)]
    if a.size == 1:
        routes += [lambda: filter_scalar(p, a, u0, theta, u_max=ub),
                   lambda: filter_qp_channels(p, a, u0, np.array([theta]), u_max=ub)]
    return routes


def ball_program(p: float, a: np.ndarray, u0: np.ndarray, theta: float,
                 ub: Optional[np.ndarray] = None) -> ConeProgram:
    """The paper's ball-route cone program over z = (u, t).

    Minimize t s.t. ||u - u0|| <= t, theta*||a||*||u|| <= p + a @ u and the
    box |u_i| <= ub_i if given: the min-norm problem in its SOCP form, at
    the scale of u.
    """
    m = a.size
    n = m + 1
    span = np.eye(m, n)  # z -> u
    e_t = np.eye(n)[m]
    blocks = [
        SocBlock(theta * float(np.linalg.norm(a)) * span, np.zeros(m),
                 np.concatenate([a, [0.0]]), p),
        SocBlock(span, -u0, e_t, 0.0),
    ]
    if ub is not None:
        blocks += [SocBlock(np.zeros((0, n)), np.zeros(0), sign * span[i], float(ub[i]))
                   for i in range(m) for sign in (-1.0, 1.0)]
    return ConeProgram(c=e_t, blocks=tuple(blocks), n_vars=n)


def split_program(p: float, a: np.ndarray, u0: np.ndarray, theta_vec: np.ndarray,
                  ub: Optional[np.ndarray] = None) -> ConeProgram:
    """The split route's cone program over z = (u+, u-, t), u = u+ - u-.

    Minimize t s.t. ||(u+ - u0, u- + u0)|| <= t, u+, u- >= 0, the one
    linear constraint p + (a - theta*|a|) @ u+ - (a + theta*|a|) @ u- >= 0
    and |u_i| <= ub_i if given.  The norm's square is
    ||u+||^2 + ||u-||^2 - 2 u0 @ u + 2 ||u0||^2.  Where u+ and u- are
    complementary, the constraint is the per-channel margin and the square
    is ||u - u0||^2 + ||u0||^2; and the optimum is complementary, as
    shrinking both sides of a channel keeps u, keeps or raises the margin
    and lowers the norm.  So the optimal u is the split route's, and unique.
    """
    m = a.size
    n = 2 * m + 1
    load = theta_vec * np.abs(a)
    span = np.hstack([np.eye(m), -np.eye(m), np.zeros((m, 1))])  # z -> u
    e_t = np.eye(n)[2 * m]
    blocks = [
        SocBlock(np.zeros((0, n)), np.zeros(0), np.concatenate([a - load, -a - load, [0.0]]), p),
        SocBlock(np.eye(2 * m, n), np.concatenate([-u0, u0]), e_t, 0.0),
    ]
    blocks += [SocBlock(np.zeros((0, n)), np.zeros(0), row, 0.0) for row in np.eye(n)[:2 * m]]
    if ub is not None:
        blocks += [SocBlock(np.zeros((0, n)), np.zeros(0), sign * span[i], float(ub[i]))
                   for i in range(m) for sign in (-1.0, 1.0)]
    return ConeProgram(c=e_t, blocks=tuple(blocks), n_vars=n)


def _oracle(p, a, u0, theta, ub) -> tuple:
    """The interior-point solver on the paper's min-norm program of an
    instance: `split_program` when theta is an array, else `ball_program`.
    Returns (status, u, t, program), u = u+ - u- on the split program;
    u and t mean something only when the status is optimal."""
    split = np.ndim(theta) > 0
    prog = (split_program if split else ball_program)(p, a, u0, theta, ub)
    res, m = solve_socp(prog), a.size
    u = res.z[:m] - res.z[m:2 * m] if split else res.z[:m]
    return res.status, u, float(res.z[-1]), prog


def _dump_first(wrong: list) -> str:
    # the first solver run that missed, as replayable `dump_program` text
    if not wrong:
        return ""
    status, prog = wrong[0]
    return f"; first miss ended {status}:\n{dump_program(prog)}"


def _route_agreement_instances(n_instances: int) -> list:
    """(p, a, theta, u0, ub) of `check_route_agreement`."""
    rng = np.random.default_rng(13)
    cases = [(p, a, theta, u0, None) for p, a, theta, u0 in _scalar_instances(rng, n_instances)]
    for _ in range(n_instances // 10):
        m = int(rng.integers(2, 4))
        p = rng.uniform(-5.0, 5.0)
        a = _random_direction(rng, m) * rng.uniform(0.1, 10.0)
        theta = rng.uniform(0.0, 0.9)
        u0 = rng.uniform(-10.0, 10.0, size=m)
        cases.append((p, a, theta, u0, None))
    cases += _boxed_instances(rng, n_instances // 10)
    cases += _boxed_infeasible_instances(rng, n_instances // 10)
    return cases


def check_route_agreement(n_instances: int = 1000) -> CheckResult:
    """Every route against the interior-point solver on the paper's program.

    On m = 1 the interval, ball and split routes must all match the
    solver; n_instances // 10 more instances with m = 2..3 check the ball
    route, and n_instances // 10 boxed ones with m = 1..3 check all three
    routes (m = 1) or the ball route under the box.  The solver's own
    epigraph must be tight, t = ||u - u0||.  n_instances // 10 boxed
    instances past the reach of the box (mostly infeasible) check the
    verdict: each route must raise InfeasibleError exactly where the
    solver certifies infeasibility, and return where it is optimal.
    """
    cases = _route_agreement_instances(n_instances)
    worst_u = 0.0
    worst_epi = 0.0
    raised = certified = 0
    wrong = []  # (status, program) of each solver verdict unlike the routes'
    for p, a, theta, u0, ub in cases:
        routes = _routes(p, a, theta, u0, ub)
        answers = []
        for route in routes:
            try:
                answers.append(route().u)
            except InfeasibleError:
                pass
        status, u_ref, t, prog = _oracle(p, a, u0, theta, ub)
        if not answers:
            raised += 1
            certified += status == STATUS_INFEASIBLE
        if status != (STATUS_OPTIMAL if answers else STATUS_INFEASIBLE) or (
                answers and len(answers) < len(routes)):
            wrong.append((status, prog))
            continue
        if answers:
            worst_u = max(worst_u, *(float(np.abs(u - u_ref).max()) for u in answers))
            worst_epi = max(worst_epi, abs(t - float(np.linalg.norm(u_ref - u0))))
    ok = not wrong and worst_u <= 1e-6 and worst_epi <= 1e-6
    detail = (f"max route disagreement {worst_u:.3g} (bound 1e-06); "
              f"max |t - ||u - u0||| {worst_epi:.3g} (bound 1e-06); "
              f"{len(wrong)} of {len(cases)} solver verdicts unlike the routes' "
              f"({certified} of {raised} infeasible instances certified)")
    return CheckResult("route_agreement", ok, detail + _dump_first(wrong))


def _split_agreement_instances(n_instances: int):
    """(p, a, theta, u0, ub) of `check_split_agreement`."""
    rng = np.random.default_rng(14)
    for i in range(n_instances):
        m = int(rng.integers(2, 6))
        a = rng.uniform(0.1, 10.0, size=m) * rng.choice([-1.0, 1.0], size=m)
        theta = rng.uniform(0.0, 0.9, size=m)
        if i % 2:
            ub = 10.0 ** rng.uniform(-0.5, 0.5, size=m)
            p = -rng.uniform(0.1, 0.99) * float((1.0 - theta) @ (np.abs(a) * ub))
            u0 = ub * rng.uniform(-3.0, 3.0, size=m)
        else:
            ub = None
            p = rng.uniform(-5.0, 5.0)
            u0 = rng.uniform(-10.0, 10.0, size=m)
        yield p, a, theta, u0, ub


def check_split_agreement(n_instances: int = 1000) -> CheckResult:
    """The split route against the interior-point solver on its own program.

    m = 2..5 with one level per channel (see `split_program`); every other
    instance has a per-channel box and is feasible by construction: the box
    corner along sign(a) has margin p + sum_i (1 - theta_i) |a_i| ub_i, of
    which p takes a share.  The route's u must match the solver's
    u = u+ - u- within 1e-6.
    """
    worst = 0.0
    wrong = []
    for p, a, theta, u0, ub in _split_agreement_instances(n_instances):
        u = filter_qp_channels(p, a, u0, theta, u_max=ub).u
        status, u_ref, _, prog = _oracle(p, a, u0, theta, ub)
        if status != STATUS_OPTIMAL:
            wrong.append((status, prog))
            continue
        worst = max(worst, float(np.abs(u - u_ref).max()))
    detail = (f"max route disagreement {worst:.3g} (bound 1e-06); "
              f"{len(wrong)} of {n_instances} solver runs not optimal")
    return CheckResult("split_agreement", not wrong and worst <= 1e-6,
                       detail + _dump_first(wrong))


def check_margin_soundness() -> CheckResult:
    """Reported robust margin must lower-bound every admissible realization:
    1000 instances, 2000 realizations drawn for each."""
    rng = np.random.default_rng(15)
    worst_margin = 0.0
    worst_gap = 0.0
    for _ in range(1000):
        m = int(rng.integers(1, 4))
        p = rng.uniform(-5.0, 5.0)
        a = _random_direction(rng, m) * rng.uniform(0.1, 10.0)
        theta = rng.uniform(0.0, 0.9)
        u0 = rng.uniform(-10.0, 10.0, size=m)
        res = filter_auto(p, a, u0, theta)
        worst_margin = max(worst_margin, -res.margin)
        radius = theta * np.linalg.norm(res.u)
        dirs = rng.normal(size=(2000, m))
        norms = np.maximum(np.linalg.norm(dirs, axis=1), 1e-300)
        radii = radius * rng.uniform(0.0, 1.0, size=2000) ** (1.0 / m)
        ws = dirs / norms[:, None] * radii[:, None]
        realized = p + (res.u + ws) @ a
        worst_gap = max(worst_gap, float(res.margin - realized.min()))
    ok = worst_margin <= 1e-6 and worst_gap <= 1e-9
    detail = (f"margin floor {-worst_margin:.3g} (bound -1e-06); margin exceeded a "
              f"realization by {worst_gap:.3g}")
    return CheckResult("margin_soundness", ok, detail)


def _wide_scale_instances(n: int):
    # |a|, |u0| and |p| log-uniform over decades: the scales of the vehicle
    # study's own constraint data; split and ball routes alternate
    rng = np.random.default_rng(2109)
    for i in range(n):
        m = 2 + i % 4
        a = rng.normal(size=m)
        a *= 10.0 ** rng.uniform(0.0, 2.7) / np.linalg.norm(a)
        u0 = rng.normal(size=m)
        u0 *= 10.0 ** rng.uniform(-2.0, 3.5) / np.linalg.norm(u0)
        p = 10.0 ** rng.uniform(-1.0, 6.0) * (1.0 if rng.random() < 0.25 else -1.0)
        theta = rng.uniform(0.05, 0.9, size=m) if i % 2 else float(rng.uniform(0.05, 0.9))
        yield p, a, u0, theta, None


def _wide_scale_boxed_instances(n: int):
    # the ball route under a per-channel box of 1e-2 .. 3e3, feasible by
    # construction: with d = a / ||a||, the point t * d, t = min ub_i / |d_i|,
    # lies in the box with margin p + (1 - theta) t ||a||; p takes a share
    # beta of that.  u0 reaches three box widths, one channel outside.
    rng = np.random.default_rng(2110)
    for i in range(n):
        m = 2 + i % 4
        a = _random_direction(rng, m) * 10.0 ** rng.uniform(0.0, 2.7)
        if i % 7 == 3:
            a[int(rng.integers(m))] = 0.0
        theta = float(rng.uniform(0.05, 0.9))
        ub = 10.0 ** rng.uniform(-2.0, 3.5) * rng.uniform(0.5, 2.0, size=m)
        reach = float(np.min(ub / np.maximum(np.abs(a) / np.linalg.norm(a), 1e-300)))
        p = -rng.uniform(0.1, 0.99) * (1.0 - theta) * reach * float(np.linalg.norm(a))
        u0 = ub * rng.uniform(-3.0, 3.0, size=m)
        k = int(rng.integers(m))
        u0[k] = ub[k] * rng.uniform(1.0, 3.0) * rng.choice([-1.0, 1.0])
        yield p, a, u0, theta, ub


def check_wide_scale_stress(n_instances: int = 200) -> CheckResult:
    """Cone routes on wide-scale data: certified, and the solver's answer.

    n_instances unboxed ones alternate the split and ball routes;
    n_instances // 2 more take the ball route under a box.  Every answer
    must have float margin >= 0.0 and lie in the box, every solver run on
    its program (see `_oracle`) must end optimal, and the answer must lie
    within 1e-6 max(1, ||u0||, ||u||) of the solver's u.
    """
    worst = 0.0
    unsafe = 0
    wrong = []
    cases = [*_wide_scale_instances(n_instances),
             *_wide_scale_boxed_instances(n_instances // 2)]
    for p, a, u0, theta, ub in cases:
        u = filter_auto(p, a, u0, theta, u_max=ub).u
        margin = (channel_margin if np.ndim(theta) else robust_margin)(p, a, u, theta)
        unsafe += not (margin >= 0.0 and (ub is None or bool(np.all(np.abs(u) <= ub))))
        status, u_ref, _, prog = _oracle(p, a, u0, theta, ub)
        if status != STATUS_OPTIMAL:
            wrong.append((status, prog))
            continue
        scale = max(1.0, float(np.linalg.norm(u0)), float(np.linalg.norm(u)))
        worst = max(worst, float(np.abs(u - u_ref).max()) / scale)
    detail = (f"max route disagreement {worst:.3g} of scale (bound 1e-06); "
              f"{len(wrong)} of {len(cases)} solver runs not optimal; {unsafe} of "
              f"{len(cases)} answers below margin 0 or outside the box")
    return CheckResult("wide_scale_stress", not wrong and unsafe == 0 and worst <= 1e-6,
                       detail + _dump_first(wrong))


def check_theta_zero_reduction() -> CheckResult:
    """At theta=0 the filter is the halfspace projection of u0, on 1000
    instances."""
    rng = np.random.default_rng(16)
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(1, 4))
        p = rng.uniform(-5.0, 5.0)
        a = _random_direction(rng, m) * rng.uniform(0.1, 10.0)
        u0 = rng.uniform(-10.0, 10.0, size=m)
        shift = max(0.0, -(p + float(a @ u0))) / float(a @ a)
        u_exact = u0 + shift * a
        res = filter_auto(p, a, u0, 0.0)
        worst = max(worst, float(np.abs(res.u - u_exact).max()))
        res_qp = filter_qp_channels(p, a, u0, np.zeros(m))
        worst = max(worst, float(np.abs(res_qp.u - u_exact).max()))
    return _result("theta_zero_reduction", worst, 1e-8)


def _march(dt: float) -> np.ndarray:
    # 0.5 s open loop with the input held fixed: the smooth problem that exposes
    # the integrator's own order (the closed loop replans every step and is
    # limited by the hold, not by the integrator)
    dyn = lateral_dynamics()
    unc = NormalizedUncertainty(theta=0.5, scale=1.0)
    u = np.array([-2.82])
    w = np.array([0.7])
    x = X0.astype(float).copy()
    for _ in range(round(0.5 / dt)):
        x = step_rk4(dyn, unc, x, u, w, dt)
    return x


def check_rk4_order() -> CheckResult:
    """Halving dt must cut the endpoint error by at least 8x (expect ~16x)."""
    ref = _march(2.5e-4)
    err_coarse = float(np.abs(_march(4e-3) - ref).max())
    err_fine = float(np.abs(_march(2e-3) - ref).max())
    ratio = err_coarse / err_fine if err_fine > 0 else np.inf
    return CheckResult("rk4_order", ratio >= 8.0,
                       f"error ratio {ratio:.2f} on dt halving (bound 8)")


def check_determinism() -> CheckResult:
    """Same scenario twice (the `fig3_recbf` preset, 2 s) must give
    byte-identical csv text."""
    from .output import trajectory_csv_text

    sc = load_scenario("fig3_recbf")
    text_a = trajectory_csv_text(simulate(sc))
    text_b = trajectory_csv_text(simulate(sc))
    same = text_a == text_b
    return CheckResult("determinism", same,
                       f"{len(text_a)} csv bytes {'identical' if same else 'differ'} "
                       f"across reruns")


_QUICK: List[Callable[[], CheckResult]] = [
    lambda: check_worst_case_oracle(n_instances=30),
    lambda: check_route_agreement(n_instances=150),
    lambda: check_split_agreement(n_instances=150),
    check_rk4_order,
]

_FULL: List[Callable[[], CheckResult]] = [
    check_worst_case_oracle,
    check_multiplier_identity,
    check_route_agreement,
    check_split_agreement,
    check_margin_soundness,
    check_wide_scale_stress,
    check_theta_zero_reduction,
    check_rk4_order,
    check_determinism,
]


def run_checks(depth: str = "quick") -> List[CheckResult]:
    if depth not in ("quick", "full"):
        raise ValueError(f"depth must be 'quick' or 'full', got {depth!r}")
    suite = _QUICK if depth == "quick" else _FULL
    return [check() for check in suite]


def format_report(results: List[CheckResult]) -> str:
    width = max(len(r.name) for r in results)
    lines = [f"{r.name:<{width}}  {'pass' if r.passed else 'FAIL'}  {r.detail}"
             for r in results]
    total = sum(r.passed for r in results)
    lines.append(f"{total}/{len(results)} checks passed")
    return "\n".join(lines)
