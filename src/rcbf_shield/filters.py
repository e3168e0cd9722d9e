"""Safety filters: minimally alter a baseline input subject to a robust
barrier constraint.

Given constraint data (p, a), a baseline u0 and an uncertainty level
theta, each filter returns the u closest to u0 (Euclidean norm) with

    p + a @ (u + w) >= 0   for every ||w|| <= theta * ||u||,

which after minimizing over w is the second-order cone condition

    p + a @ u - theta * ||u|| * ||a|| >= 0.

Three interchangeable routes are provided: this ball route (any input
dimension), an exact interval projection for one input channel, and a
split route for per-channel levels, whose worst case decouples into
p + a @ u - sum_i theta_i |a_i| |u_i| >= 0.  All routes first try the
baseline: when its projection onto the input box (u0 without a box)
meets the constraint, it is the answer.  Otherwise the cone routes take
the exact dual root (see `_dual_root`), with or without a box: a 1-D
monotone search in the constraint's multiplier over a closed-form prox.
The ball route under a box finds its prox's two inner scalars by a walk
over the sorted clip breakpoints instead of a root search (see
`_boxed_ball_root`).  No filter runs the interior-point solver: it
solves the paper's cone program only in `ball_oracle`, the self-checks'
independent oracle.

Optionally a symmetric box |u_i| <= u_max_i restricts the input set;
infeasibility against the box is raised as an error, never relaxed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .sectors import (
    DegenerateGradientError,
    in_level_range,
    per_channel_worst_case,
    worst_case_input,
)
from .socp import ConeProgram, SocBlock, SocpResult, solve_socp

__all__ = [
    "FilterError",
    "InfeasibleError",
    "FilterResult",
    "robust_margin",
    "channel_margin",
    "ball_oracle",
    "filter_scalar",
    "filter_socp",
    "filter_qp_channels",
    "filter_auto",
]

#: The threshold on ||u - u0|| below which the result counts as unaltered.
TOL_FEAS = 1e-8

FILTER_MODES = ("auto", "scalar", "socp", "qp")


class FilterError(RuntimeError):
    """The filter could not produce a certified safe input."""


class InfeasibleError(FilterError):
    """No input satisfies the robust constraint (within bounds, if given)."""

    def __init__(self, message: str, degenerate: bool = False):
        super().__init__(message)
        self.degenerate = degenerate


@dataclass(frozen=True)
class FilterResult:
    """Filtered input with its certificate data.

    Attributes:
        u: Safe input, always 1-D.
        w_star: Worst admissible uncertainty at u (zero vector when theta=0).
        margin: Robust constraint value at u; >= -1e-8 on success.
        altered: Whether u differs from the baseline beyond tolerance.
        q_star: Epigraph value of the cone routes, 2*q_star == ||u||^2;
            None for the interval route.
        u_pos, u_neg: Split variables of the per-channel route,
            u_pos = max(u, 0) and u_neg = max(-u, 0); else None.
    """

    u: np.ndarray
    w_star: np.ndarray
    margin: float
    altered: bool
    q_star: Optional[float] = None
    u_pos: Optional[np.ndarray] = None
    u_neg: Optional[np.ndarray] = None


def robust_margin(p: float, a, u, theta: float) -> float:
    """Worst-case constraint value p + a @ u - theta * ||u|| * ||a||."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    return float(p + a @ u - theta * np.linalg.norm(u) * np.linalg.norm(a))


def channel_margin(p: float, a, u, theta_vec) -> float:
    """Per-channel worst case p + a @ u - sum_i theta_i |a_i| |u_i|."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    theta_vec = np.atleast_1d(np.asarray(theta_vec, dtype=float))
    return float(p + a @ u - (theta_vec * np.abs(a)) @ np.abs(u))


def _validate(p, a, u0) -> tuple[float, np.ndarray, np.ndarray]:
    p = float(p)
    a = np.atleast_1d(np.asarray(a, dtype=float))
    u0 = np.atleast_1d(np.asarray(u0, dtype=float))
    if a.ndim != 1 or u0.shape != a.shape:
        raise ValueError(f"shape mismatch: a {a.shape}, u0 {u0.shape}")
    if not (math.isfinite(p) and np.all(np.isfinite(a)) and np.all(np.isfinite(u0))):
        raise ValueError("constraint data must be finite")
    return p, a, u0


def _scalar_theta(theta) -> float:
    theta = float(theta)
    if not in_level_range(theta):
        raise ValueError(f"uncertainty level must satisfy 0 <= theta < 1, got {theta}")
    return theta


def _box(u_max, m: int) -> Optional[np.ndarray]:
    if u_max is None:
        return None
    ub = np.broadcast_to(np.asarray(u_max, dtype=float), (m,)).astype(float)
    if not np.all(np.isfinite(ub)) or np.any(ub <= 0.0):
        raise ValueError("box bounds must be positive and finite")
    return ub


def _baseline(p: float, a: np.ndarray, u0: np.ndarray, ub: Optional[np.ndarray],
              margin: Callable[[np.ndarray], float]) -> Optional[np.ndarray]:
    """Box projection of u0 (the answer: the box holds the feasible set)
    when it meets the robust constraint, else None.  With a = 0 no input
    moves the constraint, so it either holds here or cannot be met."""
    u = u0.copy() if ub is None else np.clip(u0, -ub, ub)
    if margin(u) >= 0.0:
        return u
    if not a.any():
        raise InfeasibleError(
            f"input direction vanished (a = 0) with negative drift term p = {p}",
            degenerate=True)
    return None


def _ball_worst_case(u: np.ndarray, a: np.ndarray, theta: float) -> np.ndarray:
    return worst_case_input(u, a, theta) if a.any() else np.zeros(u.size)


def _illinois(f: Callable[[float], float], lo: float, hi: float, flo: float,
              fhi: float) -> float:
    """Upper end hi of a root bracket of a nondecreasing f, flo < 0 <= fhi,
    so f(hi) >= 0: Illinois regula falsi, bisecting when the secant leaves
    the bracket, down to a relative width of 1e-15."""
    side = 0
    for _ in range(200):  # a bound only: 1e-15 is reached far sooner
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


def _multiplier(g: Callable[[float], float], g0: float, aa: float) -> float:
    """Root in lam of the nondecreasing g, given g(0) = g0 < 0 and
    aa = ||a||^2: bracketed by doubling from -g0 / aa, then refined by
    `_illinois`, so g >= 0 at the answer."""
    lo, glo = 0.0, g0
    hi = max(-glo / max(aa, 1e-300), 1e-300)
    while not (ghi := g(hi)) >= 0.0:  # NaN (overflow) is unmet
        if hi > 1e300:
            raise InfeasibleError("no multiplier meets the robust constraint")
        lo, glo, hi = hi, ghi, 2.0 * hi
    return _illinois(g, lo, hi, glo, ghi)


def _dual_root(p: float, a: np.ndarray, u0: np.ndarray, theta, ub: Optional[np.ndarray],
               margin: Callable[[np.ndarray], float], ball: bool) -> np.ndarray:
    """Exact answer of a cone route whose box-projected baseline fails.

    u(lam) = shrink(u0 + lam * a) minimizes ||u - u0||^2 / 2 - lam * margin(u)
    over the input set, so g(lam) = margin(u(lam)), minus the derivative of
    the concave dual, is continuous and nondecreasing.  shrink is the prox
    of the penalty plus the box: per-channel (split) soft thresholding then
    the clip, both separable, or block (ball) soft thresholding; the ball
    route under a box has its own prox (see `_boxed_ball_root`).  The root
    in lam is taken by `_multiplier`, so g >= 0 at the answer: the margin
    is certified.
    """
    kappa = theta * float(np.linalg.norm(a))
    if ball and ub is not None:
        return _boxed_ball_root(p, a, u0, kappa, ub, margin)
    load = theta * np.abs(a)
    if ub is not None:
        # the best margin in the box: each channel at its bound along a_i
        if margin(np.sign(a) * ub) < 0.0:
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

    return shrink(_multiplier(g, g(0.0), float(a @ a)))


def _breakpoints(x: list, ub: list, below: float) -> tuple[list, list]:
    """Clip breakpoints b_i = ub_i / |x_i| < below, sorted, as triples
    (b_i, ub_i^2, x_i^2), and free[j], the sum of x_i^2 over the channels
    still free past the j-th breakpoint (free[0]: all of them).  x_i = 0
    never clamps."""
    pts = sorted((b / abs(xi), b * b, xi * xi) for xi, b in zip(x, ub) if b < below * abs(xi))
    free = [0.0] * (len(pts) + 1)
    free[-1] = sum(xi * xi for xi, b in zip(x, ub) if not b < below * abs(xi))
    for j in range(len(pts) - 1, -1, -1):
        free[j] = free[j + 1] + pts[j][2]
    return pts, free


def _box_reach(a: list, ub: list, kappa: float) -> float:
    """The t > 0 with ||clip(t * a)|| = kappa * t, for 0 < kappa < ||a||.

    Between sorted breakpoints ub_i / |a_i| the clamped channels give
    C = sum ub_i^2 and the free ones F = sum a_i^2, so
    ||clip(t * a)||^2 = C + t^2 F and t = sqrt(C / (kappa^2 - F)) on the
    first segment whose end meets ||clip(t * a)|| <= kappa * t.
    """
    pts, free = _breakpoints(a, ub, math.inf)
    k2, clamped = kappa * kappa, 0.0
    for j, (_, b2, _) in enumerate(pts):  # past the last one F = 0 < kappa^2
        clamped += b2
        f = free[j + 1]
        if j + 1 == len(pts) or (f < k2 and clamped <= (k2 - f) * pts[j + 1][0] ** 2):
            return math.sqrt(clamped / (k2 - f))


def _shrink_scale(v: list, ub: list, k: float, norm_v: float) -> float:
    """The s in (0, 1] with ||clip(s * v)|| * (1 - s) / s = k, 0 < k < ||v||.

    On the segment before the first breakpoint ub_i / |v_i| nothing is
    clamped and s = 1 - k / ||v||.  Past it, with C and F as in
    `_box_reach`, phi(s) = k - sqrt(C / s^2 + F) * (1 - s) is increasing
    and concave, so Newton from the segment's left end climbs to the root
    from below and never leaves the segment.
    """
    pts, free = _breakpoints(v, ub, 1.0)
    if not pts or k >= norm_v * (1.0 - pts[0][0]):
        return 1.0 - k / norm_v
    clamped = 0.0
    for j, (s, b2, _) in enumerate(pts):
        clamped += b2
        end = pts[j + 1][0] if j + 1 < len(pts) else 1.0
        f = free[j + 1]
        if k * end >= math.sqrt(clamped + f * end * end) * (1.0 - end):
            break
    for _ in range(100):  # a bound only: quadratic convergence ends far sooner
        n = math.sqrt(clamped + f * s * s)
        r = n * (1.0 - s) - k * s  # -s * phi(s), > 0 below the root
        if r <= 0.0:
            break
        nxt = min(s + r * s * n / (clamped + f * s * s * s), end)
        if not nxt > s:
            break
        s = nxt
    return s


def _boxed_ball_root(p: float, a: np.ndarray, u0: np.ndarray, kappa: float,
                     ub: np.ndarray, margin: Callable[[np.ndarray], float]) -> np.ndarray:
    """`_dual_root` of the ball route under the box |u_i| <= ub_i.

    The prox of lam * kappa * ||u|| plus the box at v = u0 + lam * a is 0
    when ||v|| <= lam * kappa, else clip(s * v) with s from
    `_shrink_scale`.  Whether the box admits a safe input is decided first
    from its best margin, at clip(t * a) with t from `_box_reach` (the
    corner sign(a) * ub when kappa = 0).  Both scalars and the search in
    lam run on plain floats; the answer is then certified with `margin`,
    stepping lam up from its last ulp while the certified margin is below 0.
    """
    al, ul, bl = a.tolist(), u0.tolist(), ub.tolist()
    if kappa > 0.0:
        best = np.clip(_box_reach(al, bl, kappa) * a, -ub, ub)
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
        s = _shrink_scale(v, bl, k, norm_v) if k > 0.0 else 1.0
        return [max(-b, min(b, s * x)) for x, b in zip(v, bl)]

    def g(lam):
        u = shrink(lam)
        return p + sum(x * y for x, y in zip(al, u)) - kappa * math.hypot(*u)

    lam = _multiplier(g, margin(np.clip(u0, -ub, ub)), float(a @ a))
    step = math.ulp(lam)
    while margin(u := np.array(shrink(lam))) < 0.0:
        if lam > 1e300:
            raise InfeasibleError("no multiplier meets the robust constraint")
        lam, step = lam + step, 2.0 * step
    return u


def ball_oracle(p: float, a: np.ndarray, u0: np.ndarray, theta: float,
                ub: Optional[np.ndarray] = None) -> SocpResult:
    """The interior-point solver on the paper's ball-route cone program.

    Over z = (u, q): minimize q - u0 @ u s.t. theta*||a||*||u|| <= p + a @ u,
    the rotated-cone epigraph ||(sqrt(2) u, q - 1)|| <= q + 1, i.e.
    2q >= ||u||^2, and the box |u_i| <= ub_i if given.  The start is u0
    when it strictly meets the constraint and lies strictly inside the box,
    else a point along a != 0, where the margin grows at rate
    (1-theta)*||a||.  No filter calls it: it is the self-checks' oracle.
    """
    m = a.size
    n = m + 1
    norm_a = float(np.linalg.norm(a))
    span = np.hstack([np.eye(m), np.zeros((m, 1))])
    e_q = np.eye(n)[m]
    blocks = [
        SocBlock(theta * norm_a * span, np.zeros(m), np.concatenate([a, [0.0]]), p),
        SocBlock(np.vstack([math.sqrt(2.0) * span, e_q[None, :]]),
                 np.concatenate([np.zeros(m), [-1.0]]), e_q, 1.0),
    ]
    if ub is not None:
        for i in range(m):
            blocks += [SocBlock(np.zeros((0, n)), np.zeros(0), sign * span[i],
                                float(ub[i])) for sign in (-1.0, 1.0)]
    prog = ConeProgram(c=np.concatenate([-u0, [1.0]]), blocks=tuple(blocks), n_vars=n)
    if robust_margin(p, a, u0, theta) > 0.0 and (ub is None or np.all(np.abs(u0) < ub)):
        u_hint = u0
    else:
        u_hint = (1.0 + max(0.0, -p)) / ((1.0 - theta) * norm_a) * a / norm_a
    return solve_socp(prog, z0=np.concatenate([u_hint, [0.5 * float(u_hint @ u_hint) + 1.0]]))


def filter_scalar(p, a, u0, theta, u_max=None, tol: float = TOL_FEAS) -> FilterResult:
    """Exact single-channel filter via the feasible interval.

    For a > 0 the robust constraint is u >= u_l with
    u_l = max(-p/((1-theta)a), -p/((1+theta)a)) (the two slopes of the
    piecewise-linear constraint on either side of u = 0), so the closest
    feasible point is max(u_l, u0); a < 0 mirrors to an upper endpoint.

    Past the checks it runs on plain floats.  With |x| = sqrt(x * x), the
    margin (p + (a*u + 0.0)) - (theta*|u|)*|a| and w* = ((-theta*|u|)*a)/|a|
    repeat the IEEE operations of `robust_margin` and `worst_case_input` on
    one channel (a @ u sums from +0.0), so every value equals theirs bit
    for bit.
    """
    p = float(p)
    # np.atleast_1d(np.asarray(x, dtype=float)) in one call
    a = np.array(a, dtype=float, ndmin=1, copy=None)
    u0 = np.array(u0, dtype=float, ndmin=1, copy=None)
    if a.ndim != 1 or u0.shape != a.shape:
        raise ValueError(f"shape mismatch: a {a.shape}, u0 {u0.shape}")
    al, ul = a.tolist(), u0.tolist()
    if not (math.isfinite(p) and all(map(math.isfinite, al + ul))):
        raise ValueError("constraint data must be finite")
    theta = _scalar_theta(theta)
    if a.size != 1:
        raise ValueError(f"interval route needs one channel, got {a.size}")
    (av,), (uv,) = al, ul
    bound = math.inf  # no box
    if u_max is not None:
        bound = float(np.broadcast_to(np.asarray(u_max, dtype=float), (1,))[0])
        if not (math.isfinite(bound) and bound > 0.0):
            raise ValueError("box bounds must be positive and finite")
    norm_a = math.sqrt(av * av)

    def margin(v):
        return (p + (av * v + 0.0)) - (theta * math.sqrt(v * v)) * norm_a

    u = min(max(uv, -bound), bound)
    if not margin(u) >= 0.0:
        if av == 0.0:
            raise InfeasibleError(
                f"input direction vanished (a = 0) with negative drift term p = {p}",
                degenerate=True)
        lo_slope = -p / ((1.0 - theta) * av)  # binds where sign(u) == sign(a)
        hi_slope = -p / ((1.0 + theta) * av)
        if av > 0.0:
            u_l = max(lo_slope, hi_slope)
            if u_l > bound:
                raise InfeasibleError(
                    f"feasible interval [{u_l}, inf) lies outside the bound {bound}")
            u = min(max(uv, max(u_l, -bound)), bound)
        else:
            u_h = min(lo_slope, hi_slope)
            if u_h < -bound:
                raise InfeasibleError(
                    f"feasible interval (-inf, {u_h}] lies outside the bound {-bound}")
            u = max(min(uv, min(u_h, bound)), -bound)
    if av == 0.0:
        w_star = 0.0
    elif norm_a == 0.0:  # a * a underflowed, as in worst_case_input
        raise DegenerateGradientError("constraint direction a is zero")
    else:
        w_star = ((-theta * math.sqrt(u * u)) * av) / norm_a
    # positional: keywords cost a frozen dataclass another 0.5 us per call
    return FilterResult(np.array([u]), np.array([w_star]), margin(u), abs(u - uv) > tol)


def filter_socp(p, a, u0, theta, u_max=None, tol: float = TOL_FEAS) -> FilterResult:
    """Ball-route filter: minimize ||u - u0|| s.t. theta*||a||*||u|| <= p + a @ u
    (and the box), exactly by the dual root."""
    p, a, u0 = _validate(p, a, u0)
    theta = _scalar_theta(theta)
    ub = _box(u_max, a.size)

    def margin(v):
        return robust_margin(p, a, v, theta)

    u = _baseline(p, a, u0, ub, margin)
    if u is None:
        u = _dual_root(p, a, u0, theta, ub, margin, ball=True)
    return FilterResult(u=u, w_star=_ball_worst_case(u, a, theta), margin=margin(u),
                        altered=bool(np.linalg.norm(u - u0) > tol),
                        q_star=0.5 * float(u @ u))


def filter_qp_channels(p, a, u0, theta, u_max=None,
                       tol: float = TOL_FEAS) -> FilterResult:
    """Per-channel filter: minimize ||u - u0|| subject to
    p + a @ u - sum_i theta_i |a_i| |u_i| >= 0 (and the box), exactly by
    the dual root.  The level may differ per channel.  Also reports the
    split u = u_pos - u_neg, |u| = u_pos + u_neg, with u_pos * u_neg = 0.
    """
    p, a, u0 = _validate(p, a, u0)
    m = a.size
    theta_vec = np.broadcast_to(np.asarray(theta, dtype=float), (m,)).astype(float)
    if not in_level_range(theta_vec):
        raise ValueError("per-channel levels must lie in [0, 1)")
    ub = _box(u_max, m)

    def margin(v):
        return channel_margin(p, a, v, theta_vec)

    u = _baseline(p, a, u0, ub, margin)
    if u is None:
        u = _dual_root(p, a, u0, theta_vec, ub, margin, ball=False)
    return FilterResult(u=u, w_star=per_channel_worst_case(u, a, theta_vec),
                        margin=margin(u), altered=bool(np.linalg.norm(u - u0) > tol),
                        q_star=0.5 * float(u @ u),
                        u_pos=np.clip(u, 0.0, None), u_neg=np.clip(-u, 0.0, None))


def filter_auto(p, a, u0, theta, u_max=None, tol: float = TOL_FEAS,
                mode: str = "auto") -> FilterResult:
    """Dispatch to the fitting route.

    Per-channel theta (any array) goes to the split route; otherwise one
    channel uses the exact interval and several use the ball route.
    """
    if mode not in FILTER_MODES:
        raise ValueError(f"unknown filter mode {mode!r}")
    if mode == "auto":
        if np.ndim(theta) > 0:
            mode = "qp"
        else:
            mode = "scalar" if np.atleast_1d(np.asarray(a)).size == 1 else "socp"
    if mode == "scalar":
        return filter_scalar(p, a, u0, theta, u_max=u_max, tol=tol)
    if mode == "socp":
        return filter_socp(p, a, u0, theta, u_max=u_max, tol=tol)
    return filter_qp_channels(p, a, u0, theta, u_max=u_max, tol=tol)
