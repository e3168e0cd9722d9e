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
monotone search in the constraint's multiplier over a closed-form prox,
two-dimensional on the ball route without a box (`_ball_root`), a search
over the sorted kinks of a piecewise-linear margin on the split route
(`_split_root`), and Newton on the margin's closed-form slope under a box
(`_boxed_ball_root`), where each evaluation is O(1) on the set of clamped
channels but for one pass that tests the set, and a stretch where g is
flat ends in one step.  Both ball searches run `_newton_root`: Newton
steps, kept in a root bracket by doubling, the Illinois secant and
bisection, up to the first point with g >= 0 whose own step is
converged.  Every route runs on plain floats, and the margin
has one definition, `robust_margin` or `channel_margin` on floats (sums
from +0.0, norms by hypot): a cone route stops at the first u whose
margin is >= 0 and reports it as the certificate.  Numpy's `a @ u` and
norms may read it below 0, by at most 2 (m + 2) 2^-53 T,
T = |p| + sum_i |a_i u_i| + the penalty term (the two evaluations'
summed error bounds).  No filter runs the interior-point solver: it is
the self-checks' oracle, on the paper's min-norm programs in SOCP form,
minimize t s.t. ||u - u0|| <= t (`ball_program`, via `ball_oracle`, and
`split_program`).

Optionally a symmetric box |u_i| <= u_max_i restricts the input set;
infeasibility against the box is raised as an error, never relaxed.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import partial
from operator import mul, sub
from typing import Callable, Optional

import numpy as np

# worst_case_input is no route's any more; it stays a module attribute,
# which the traced benchmark wraps
from .sectors import in_level_range, worst_case_input  # noqa: F401
from .socp import ConeProgram, SocBlock, SocpResult, solve_socp

__all__ = [
    "FilterError",
    "InfeasibleError",
    "FilterResult",
    "robust_margin",
    "channel_margin",
    "ball_program",
    "ball_oracle",
    "split_program",
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
        margin: Robust constraint value at u (`robust_margin` or
            `channel_margin`); >= -1e-8 on success, >= 0 on the cone routes.
        altered: Whether u differs from the baseline beyond tolerance.
    """

    u: np.ndarray
    w_star: np.ndarray
    margin: float
    altered: bool


def robust_margin(p: float, a, u, theta: float) -> float:
    """Worst-case constraint value p + a @ u - theta * ||u|| * ||a|| on
    floats (see the module docstring); a ValueError unless a and u are
    vectors of one length."""
    al, ul = _vectors(a, u)
    return float(_ball_margin(p, al, theta, _norm(al), ul))


def channel_margin(p: float, a, u, theta_vec) -> float:
    """Per-channel worst case p + a @ u - sum_i theta_i |a_i| |u_i| on
    floats (see the module docstring); a ValueError unless a and u are
    vectors of one length and theta_vec broadcasts to it."""
    al, ul = _vectors(a, u)
    load = [t * abs(x) for t, x in zip(_per_channel(theta_vec, len(al)).tolist(), al)]
    return float(_split_margin(p, al, load, ul))


def _dot(x, y) -> float:
    # left to right from int 0, which adds as +0.0 (compensated on Python >= 3.12)
    return sum(map(mul, x, y))


def _norm(x: list) -> float:
    """||x|| by hypot, which does not underflow; sqrt(x * x) on one channel."""
    return math.sqrt(x[0] * x[0]) if len(x) == 1 else math.hypot(*x)


def _ball_margin(p: float, al: list, theta: float, norm_a: float, u: list) -> float:
    """`robust_margin` on lists, norm_a = _norm(al)."""
    return p + _dot(al, u) - theta * _norm(u) * norm_a


def _split_margin(p: float, al: list, load: list, u: list) -> float:
    """`channel_margin` on lists, with load_i = theta_i * |a_i|."""
    return p + _dot(al, u) - _dot(load, map(abs, u))


def _vectors(a, u, name: str = "u") -> tuple[list, list]:
    """a and u as lists of floats; a ValueError, which calls u `name`,
    unless they are 1-D of one shape (a scalar is one channel)."""
    # np.atleast_1d(np.asarray(x, dtype=float)) in one call
    a = np.array(a, dtype=float, ndmin=1, copy=None)
    u = np.array(u, dtype=float, ndmin=1, copy=None)
    if a.ndim != 1 or u.shape != a.shape:
        raise ValueError(f"shape mismatch: a {a.shape}, {name} {u.shape}")
    return a.tolist(), u.tolist()


def _inputs(p, a, u0) -> tuple[float, list, list]:
    """p, and a and u0 as lists of floats; a ValueError unless a and u0
    are 1-D of one shape and all data is finite."""
    p = float(p)
    al, ul = _vectors(a, u0, "u0")
    if not (math.isfinite(p) and all(map(math.isfinite, al + ul))):
        raise ValueError("constraint data must be finite")
    return p, al, ul


def _scalar_theta(theta) -> float:
    theta = float(theta)
    if not in_level_range(theta):
        raise ValueError(f"uncertainty level must satisfy 0 <= theta < 1, got {theta}")
    return theta


def _per_channel(x, m: int) -> np.ndarray:
    """x as a float array broadcast to m channels."""
    x = np.asarray(x, dtype=float)
    return x if x.shape == (m,) else np.broadcast_to(x, (m,))


def _bounds(u_max, m: int) -> Optional[list]:
    if u_max is None:
        return None
    ub = [float(u_max)] * m if isinstance(u_max, float) else _per_channel(u_max, m).tolist()
    if not all(0.0 < b < math.inf for b in ub):
        raise ValueError("box bounds must be positive and finite")
    return ub


def _clip(u: list, ub: list) -> list:
    return [max(-b, min(b, x)) for x, b in zip(u, ub)]


def _overflow(p: float) -> FilterError:
    """The error for a margin that came out NaN, which certifies nothing."""
    return FilterError(f"robust margin is NaN: the constraint data overflow (p={p})")


def _try_baseline(u: list, al: list, p: float, margin: Callable[[list], float]
                  ) -> tuple[Optional[list], float]:
    """(u, its margin) when the box projection u of u0 meets the robust
    constraint (the answer: the box holds the feasible set), else (None, g0)
    with g0 < 0 its margin, g(0) of the dual root.  With a = 0 no input
    moves the constraint, so it either holds here or cannot be met.  A NaN
    margin raises FilterError."""
    g0 = margin(u)
    if g0 >= 0.0:
        return u, g0
    if math.isnan(g0):
        raise _overflow(p)
    if not any(al):
        raise InfeasibleError(
            f"input direction vanished (a = 0) with negative drift term p = {p}",
            degenerate=True)
    return None, g0


def _box_limit(best: list, g0: float, p: float, margin: Callable[[list], float]
               ) -> tuple[Optional[list], float]:
    """Whether the dual root runs, from the box's best-margin input `best`:
    (None, g0) when best clears the constraint.  Otherwise the margin is at
    most 0 all over the box, so best is the one candidate: (best, 0.0) when
    its margin is 0, and else no input in the box is safe.  A NaN margin
    raises FilterError."""
    value = margin(best)
    if value > 0.0:
        return None, g0
    if math.isnan(value):
        raise _overflow(p)
    if value < 0.0:
        raise InfeasibleError(
            f"no input within the box satisfies the robust constraint (p={p})")
    return best, value


def _dual_root(lam: float, shrink: Callable[[float], list], margin: Callable[[list], float],
               kinks: list = ()) -> tuple[list, float]:
    """The answer of a cone route whose box-projected baseline fails, from
    a root lam of its dual: u and its margin >= 0.

    u(lam) = shrink(lam), the prox of the route's penalty plus the box at
    u0 + lam * a, minimizes ||u - u0||^2 / 2 - lam * margin(u) over the
    input set, so g(lam) = margin(u(lam)), minus the derivative of the
    concave dual, is continuous and nondecreasing.  The routes search its
    root on plain floats from g(0), the failing baseline's margin
    (`_ball_root`, `_split_root`, `_boxed_ball_root`).  From there lam
    steps up by a doubling ulp step until the margin of u is >= 0: the
    certificate of u and its reported margin.  When a step leaves u as it
    was and no channel moves until the next of the route's sorted `kinks`
    (g is flat there and the sign of its rounding arbitrary), lam jumps to
    that kink, where u moves again, rather than doubling its way past it.
    """
    step, last = math.ulp(lam), None
    while True:
        u = shrink(lam)
        value = margin(u)
        if value >= 0.0:
            return u, value
        if u == last:
            i = bisect_right(kinks, lam)
            if i < len(kinks) and shrink(0.5 * (lam + kinks[i])) == u:
                # u is piecewise linear in lam: the same u at the midpoint
                # means no channel moves before the next kink
                lam, step, last = kinks[i], math.ulp(kinks[i]), None
                continue
        if not lam <= 1e300:  # NaN included, which no step moves
            raise InfeasibleError("no multiplier meets the robust constraint")
        last, lam, step = u, lam + step, 2.0 * step


def _ball_root(p: float, al: list, ul: list, theta: float, norm_a: float,
               g0: float) -> tuple[float, Callable[[float], list]]:
    """Dual root lam of the ball route without a box, and its prox.

    u(lam) is block soft thresholding of v = u0 + lam * a by lam * kappa,
    kappa = theta * ||a||: u = c * v with c = max(0, 1 - lam * kappa / ||v||).
    Its margin needs only two coordinates of v: with d = a / ||a||,
    t = d @ v = d @ u0 + lam * ||a|| and ||v|| = hypot(t, r), r the part of
    u0 across a.  So g(lam) = p + ||a|| * c * (t - theta * ||v||) and its
    slope cost O(1) per evaluation.
    """
    kappa, d = theta * norm_a, [x / norm_a for x in al]
    t0 = _dot(d, ul)
    r = math.hypot(*[x - t0 * y for x, y in zip(ul, d)])

    def gd(lam):
        t = t0 + lam * norm_a
        n, k = math.hypot(t, r), lam * kappa
        if n <= k:
            return p, 0.0
        c, w = 1.0 - k / n, t - theta * n
        dc = -kappa / n * (1.0 - lam * norm_a / n * (t / n))
        return p + norm_a * c * w, norm_a * (dc * w + c * norm_a * (1.0 - theta * t / n))

    def shrink(lam):
        v = [x + lam * y for x, y in zip(ul, al)]
        k, norm_v = lam * kappa, math.hypot(*v)
        if norm_v <= k:
            return [0.0] * len(v)
        c = 1.0 - k / norm_v
        return [x * c for x in v]

    return _newton_root(gd, g0, -g0 / max(norm_a * norm_a, 1e-300)), shrink


def _split_root(al: list, ul: list, load: list, bl: list, g0: float,
                shrink: Callable[[float], list], margin: Callable[[list], float]
                ) -> tuple[float, list]:
    """Dual root lam of the split route, g(lam) the margin of its prox, and
    the sorted kinks of g.

    Channel i adds d * clip(u0_i + lam * d, lo, hi) to g twice: for its
    positive part (d = a_i - theta_i |a_i|, [lo, hi] = [0, ub_i]) and its
    negative part (d = a_i + theta_i |a_i|, [-ub_i, 0]).  So g is piecewise
    linear with kinks where u0_i + lam * d meets an end.  A binary search
    over the sorted kinks brackets the root by g's values there, and the
    root is interpolated on that segment, where g is linear.  Past the last
    kink g has slope sum_i (|a_i| - theta_i |a_i|)^2 without a box.  Under a
    box it is flat there at the box's best margin, which `_box_limit` has
    found > 0, so only rounding can leave the root past it: then twice the
    last kink, where every channel sits at its bound, is returned.  A slope
    past the float range raises FilterError.
    """
    kinks, slope = [], 0.0
    for x, y, l, b in zip(ul, al, load, bl):
        if y != 0.0:
            for d, lo, hi in ((y - l, 0.0, b), (y + l, -b, 0.0)):
                kinks += [k for k in ((lo - x) / d, (hi - x) / d) if 0.0 < k < math.inf]
            if b == math.inf:
                try:  # ** 2, not x * x, which rounds some squares differently
                    slope += (abs(y) - l) ** 2
                except OverflowError:
                    slope = math.inf
    if slope == math.inf:
        raise FilterError("the split route's slope overflows: the constraint data are "
                          "past the float range")
    kinks.sort()
    lo, glo, hi, ghi = 0.0, g0, None, None
    i, j = 0, len(kinks)
    while i < j:
        mid = (i + j) // 2
        if (gm := margin(shrink(kinks[mid]))) >= 0.0:
            j, hi, ghi = mid, kinks[mid], gm
        else:
            i, lo, glo = mid + 1, kinks[mid], gm
    if hi is None:
        return (lo - glo / slope if slope > 0.0 else 2.0 * lo), kinks
    return lo + (hi - lo) * (-glo / (ghi - glo)), kinks


def _box_reach(a: list, ub: list, kappa: float) -> float:
    """The t > 0 with ||clip(t * a)|| = kappa * t, for 0 < kappa < ||a||.

    Between the sorted breakpoints ub_i / |a_i| (a_i = 0 never clamps) the
    clamped channels give C = sum ub_i^2 and the free ones F = sum a_i^2,
    so ||clip(t * a)||^2 = C + t^2 F and t = sqrt(C / (kappa^2 - F)) on the
    first segment whose end meets ||clip(t * a)|| <= kappa * t.
    """
    pts = sorted((b / abs(x), b * b, x * x) for x, b in zip(a, ub) if x)
    free = [0.0] * (len(pts) + 1)  # free[j]: F past the j-th breakpoint
    for j in range(len(pts) - 1, -1, -1):
        free[j] = free[j + 1] + pts[j][2]
    k2, clamped = kappa * kappa, 0.0
    for j, (_, b2, _) in enumerate(pts):  # past the last one F = 0 < kappa^2
        clamped += b2
        f = free[j + 1]
        if j + 1 == len(pts) or (f < k2 and clamped <= (k2 - f) * pts[j + 1][0] ** 2):
            return math.sqrt(clamped / (k2 - f))


def _segment_root(clamped: float, free: float, k: float, t: float) -> float:
    """The root s of sqrt(C + F s^2) * (1 - s) = k * s, C = clamped > 0 and
    F = free, from a guess t in (0, 1].  The tangent of the convex
    N(s) = sqrt(C + F s^2) at any point lies below it, so the root x of the
    tangent's quadratic equation is a lower bound of s: from the tangent at
    t, then at each new bound, the bounds climb to the root quadratically.
    As N''/N <= 1/(4 s^2), x lies below the root by at most about
    (x - t)^2 / (8 min(x, t)^2), and x is returned once that is below
    1.25e-16 x."""
    for _ in range(100):  # a bound only: quadratic convergence ends far sooner
        n = math.sqrt(clamped + free * t * t)
        c0, c1 = clamped / n, free * t / n  # the tangent c0 + c1 * s
        q = c0 - c1 + k
        e = math.sqrt(q * q + 4.0 * c0 * c1)
        # the root of c1 s^2 + q s = c0, in the form without cancellation
        x = 2.0 * c0 / (q + e) if q >= 0.0 else (e - q) / (2.0 * c1)
        d = (x - t) / (x if x < t else t)
        if d * d <= 1e-15 * x:
            return x
        t = x
    return x


def _newton_root(gd: Callable[[float], tuple[float, float]], g0: float, y: float) -> float:
    """An iterate hi at the root of the nondecreasing g with g(hi) >= 0,
    given g(0) = g0 < 0 and a first point y > 0; gd(lam) returns g(lam)
    and its slope.  hi is the latest point with g >= 0 that gd evaluated.

    After y, each step is Newton's from the latest point, and a step that
    rounds to nothing moves one ulp.  The search stops at the first
    iterate with g >= 0 whose own Newton step is converged (at most 1e-15
    of it), or where g is 0, or once a root bracket of relative width
    1e-15 closes.  With no upper end yet, a step that does not move up (g
    flat, or a step back) doubles lam instead.  After that, a step that
    leaves the bracket, or one that follows two crossings of the root
    which did not halve the bracket (Newton cycling about a kink), takes
    the Illinois secant, or bisection when that leaves the bracket too.
    """
    inf = math.inf
    lo, hi = 0.0, inf
    flo, fhi, side = g0, inf, -1  # the secant's values; Illinois halves the end kept twice
    width, crossed = inf, False  # the bracket's width, and whether a step crossed the root
    y = max(y, 1e-300)
    for i in range(400):  # a bound only
        x = y
        gx, dx = gd(x)
        if gx >= 0.0:
            if gx <= 1e-15 * x * dx:  # its own step is converged, or g = 0
                return x
            if side > 0:
                flo *= 0.5
            cross, side = side < 0, 1
            hi, fhi = x, gx
        else:
            if side < 0:
                fhi *= 0.5
            cross, side = side > 0, -1
            if not gx < 0.0:  # NaN (overflow) is unmet, with no slope to follow
                gx, dx = -inf, 0.0
            lo, flo = x, gx
        if hi < inf and hi - lo <= 1e-15 * hi:
            return hi
        cycling = crossed and cross and hi - lo > 0.5 * width
        crossed, width = cross, hi - lo
        step = -gx / dx if dx > 0.0 else math.nan
        y = x + step
        if y == x:
            y = math.nextafter(x, inf if step > 0.0 else -inf)
        if hi == inf:
            if not lo < y:
                if lo > 1e300:
                    raise InfeasibleError("no multiplier meets the robust constraint")
                y = 2.0 * lo
        elif cycling or not (lo < y < hi and i < 99):
            y = (lo * fhi - hi * flo) / (fhi - flo)
            if not (lo < y < hi and i < 99):
                y = 0.5 * (lo + hi)
    return hi


def _boxed_ball_root(p: float, al: list, ul: list, theta: float, norm_a: float, bl: list,
                     g0: float) -> tuple[float, Callable[[float], list]]:
    """Dual root lam of the ball route under the box |u_i| <= ub_i, and its
    prox.

    The prox of lam * kappa * ||u|| plus the box at v = u0 + lam * a is 0
    when ||v|| <= lam * kappa, else clip(s * v) with s in (0, 1] the root of
    ||clip(s * v)|| * (1 - s) / s = lam * kappa.  On a clamped set S (each
    channel in it at the bound of its sign), C = sum ub_i^2 over S and
    F = ||v_F||^2 over the free channels, that is N_S(s) * (1 - s) =
    lam * kappa * s with N_S(s) = sqrt(C + F s^2), solved by `_segment_root`.
    C and a_C @ u_C are constant on S, and v_F is taken in `_ball_root`'s
    (t, r) coordinates along a_F: t = d_F @ v_F, r the part of u0_F across
    a_F, d_F = a_F / ||a_F||, so F = t^2 + r^2 and a_F @ v_F = ||a_F|| t.
    So while S holds, an evaluation costs O(1) and one pass over the
    channels, which tests S at the s found.  Where the pass finds another
    set S' clamped at s, the sums are rebuilt on S' and s solved again.
    Any S gives N_S(s) >= ||clip(s * v)|| (a channel on the wrong side only
    adds), so its s bounds the true one from above, and s falls from round
    to round: after the rebuild a round only frees the clamped channels
    below their bounds at its s, so the rounds end within m more.

    With n = ||u||, differentiating n * (1 - s) = lam * kappa * s and
    g = p + a_C @ u_C + s * a_F @ v_F - kappa * n gives g's slope in closed
    form, for `_newton_root`.  Where no free channel moves (a_F = 0, and
    F = 0 or kappa = 0), g is flat until the first clamped channel frees,
    at a lam in closed form; there the slope reported sends Newton just
    past that lam, in one step however short the search's lam is beside
    it.  The first point is -g0 / ||a||^2, or just past a flat start if
    that is later.  Each evaluation starts `_segment_root` from the latest
    evaluation's s, and the prox at the root evaluates g there once more
    for its s.
    """
    kappa = theta * norm_a
    rows = list(zip(ul, al, bl))
    # the latest clamped set: its rows, (c u0_i, c a_i, ub_i) with c the sign
    # of the bound where channel i is clamped; the free rows, which the sums
    # and the set test take up to sign; and the sums
    crows = frows = clamped = a_c = norm_f = t0 = r = None
    s0 = 1.0  # s at the latest evaluation

    def take(cr, fr):
        """Make cr the clamped rows and fr the free ones, and their sums."""
        nonlocal crows, frows, clamped, a_c, norm_f, t0, r
        crows, frows = cr, fr
        clamped = a_c = 0.0
        for _, y, b in cr:
            clamped += b * b
            a_c += y * b
        fu = [x for x, _, _ in fr]
        fa = [y for _, y, _ in fr]
        norm_f = math.hypot(*fa)
        if norm_f == 0.0:
            t0, r = 0.0, math.hypot(*fu)
        else:  # t0 = d_F @ u0_F and r = ||u0_F - t0 d_F||
            t0 = _dot(fa, fu) / norm_f
            q = t0 / norm_f
            r = math.hypot(*[x - q * y for x, y in zip(fu, fa)])

    def clamp(lam, s):
        """Make the set that clip(s * v) clamps at lam, and its sums."""
        cr, fr = [], []
        for x, y, b in rows:
            w = s * (x + lam * y)
            if w >= b:
                cr.append((x, y, b))
            elif w <= -b:
                cr.append((-x, -y, b))
            else:
                fr.append((x, y, b))
        take(cr, fr)

    def flat_end(lam):
        """Where no free channel moves, a point just past the first lam
        where a clamped channel frees, c v_i sqrt(C) = ub_i (sqrt(C) +
        lam kappa); else 0."""
        if norm_f == 0.0 and (kappa == 0.0 or r == 0.0):
            rc = math.sqrt(clamped)
            end = min([rc * (x - b) / (b * kappa - y * rc)
                       for x, y, b in crows if b * kappa > y * rc], default=math.inf)
            nxt = max(end, lam) * (1.0 + 2.0 ** -30)
            if lam < nxt < math.inf:
                return nxt
        return 0.0

    def gd(lam):
        """g(lam) and its slope; s at lam (0 where u = 0) goes to s0, the
        set clamped there and its sums to the nonlocals."""
        nonlocal s0
        k, s = lam * kappa, s0 or 1.0
        rebuilt = False
        while True:
            t = t0 + lam * norm_f
            free = t * t + r * r
            if k == 0.0:
                s = 1.0
            elif clamped > 0.0:
                s = _segment_root(clamped, free, k, s)
            else:
                n = math.hypot(t, r)  # ||v||
                s = 1.0 - k / n if n > k else 0.0
            if rebuilt:  # a later round only frees channels, so the rounds end
                kept, freed = [], []
                for x, y, b in crows:
                    (kept if s * (x + lam * y) >= b else freed).append((x, y, b))
                if not freed:
                    break
                take(kept, frows + freed)
                continue
            for x, y, b in crows:  # the pass that tests the set at s
                if s * (x + lam * y) < b:
                    break
            else:
                for x, y, b in frows:
                    if not -b < s * (x + lam * y) < b:
                        break
                else:
                    break
            clamp(lam, s)
            rebuilt = True
        s0 = s
        if s == 0.0:
            return p, 0.0
        a_v = norm_f * t
        n = math.sqrt(clamped + s * s * free)  # ||u||
        g = p + (a_c + s * a_v) - kappa * n
        if kappa == 0.0 or n == 0.0:
            slope = norm_f * norm_f
        else:
            w, e, c = s * a_v / n, s * free / n, 1.0 - s
            ds = s * (kappa - c * w) / (c * e - n - k)
            slope = ds * (a_v - kappa * e) + s * (norm_f * norm_f - kappa * w)
        if slope == 0.0 and g < 0.0 and (nxt := flat_end(lam)):
            slope = -g / (nxt - lam)  # the step to just past the flat stretch
        return g, slope

    def shrink(lam):
        gd(lam)
        return [max(-b, min(b, s0 * (x + lam * y))) for x, y, b in rows]

    clamp(0.0, 1.0)
    return _newton_root(gd, g0, max(-g0 / max(norm_a * norm_a, 1e-300), flat_end(0.0))), shrink


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


def ball_oracle(p: float, a: np.ndarray, u0: np.ndarray, theta: float,
                ub: Optional[np.ndarray] = None) -> SocpResult:
    """The interior-point solver on `ball_program`.  No filter calls it: it
    is the self-checks' oracle."""
    return solve_socp(ball_program(p, a, u0, theta, ub))


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


def filter_scalar(p, a, u0, theta, u_max=None) -> FilterResult:
    """Exact single-channel filter via the feasible interval.

    For a > 0 the robust constraint is u >= u_l with
    u_l = max(-p/((1-theta)a), -p/((1+theta)a)) (the two slopes of the
    piecewise-linear constraint on either side of u = 0), so the closest
    feasible point is max(u_l, u0); a < 0 mirrors to an upper endpoint.

    Past the checks it runs on plain floats.  With |x| = sqrt(x * x), the
    margin (p + (a*u + 0.0)) - (theta*|u|)*|a| and w* = ((-theta*|u|)*a)/|a|
    repeat the IEEE operations of `robust_margin` and `worst_case_input` on
    one channel (the sum runs from +0.0), so every value equals theirs bit
    for bit.  Where a * a is 0, underflow included, w* is +0.0 (there
    `worst_case_input` raises).
    """
    p, al, ul = _inputs(p, a, u0)
    theta = _scalar_theta(theta)
    if len(al) != 1:
        raise ValueError(f"interval route needs one channel, got {len(al)}")
    (av,), (uv,) = al, ul
    bound = math.inf if u_max is None else _bounds(u_max, 1)[0]  # inf: no box
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
    # +0.0 wherever a * a is 0, underflow included, as sim._adversary_input
    w_star = 0.0 if norm_a == 0.0 else ((-theta * math.sqrt(u * u)) * av) / norm_a
    value = margin(u)
    if math.isnan(value):  # |a| past ~1e154 or an overflowing a * u
        raise _overflow(p)
    # positional: keywords cost a frozen dataclass another 0.5 us per call
    return FilterResult(np.array([u]), np.array([w_star]), value, abs(u - uv) > TOL_FEAS)


def filter_socp(p, a, u0, theta, u_max=None) -> FilterResult:
    """Ball-route filter: minimize ||u - u0|| s.t. theta*||a||*||u|| <= p + a @ u
    (and the box), exactly by the dual root."""
    p, al, ul = _inputs(p, a, u0)
    theta = _scalar_theta(theta)
    ub = _bounds(u_max, len(al))
    norm_a = math.hypot(*al)  # a @ a underflows below ~1e-162, hypot does not
    margin = partial(_ball_margin, p, al, theta, _norm(al))
    u = ul if ub is None else _clip(ul, ub)
    # the answer and its margin; while ans is None, value is the failing g(0)
    ans, value = _try_baseline(u, al, p, margin)
    if ans is None and ub is not None:
        kappa = theta * norm_a
        if kappa > 0.0:  # clip(t * a), t from _box_reach on a / ||a||, where no square underflows
            t = _box_reach([x / norm_a for x in al], ub, theta) / norm_a
            u = [max(-b, min(b, t * x)) for x, b in zip(al, ub)]
        else:  # the corner along a; the channels with a_i = 0 do not count
            u = [b if y > 0.0 else -b if y < 0.0 else x for x, y, b in zip(u, al, ub)]
        ans, value = _box_limit(u, value, p, margin)
    if ans is None:
        if ub is None:
            lam, shrink = _ball_root(p, al, ul, theta, norm_a, value)
        else:
            lam, shrink = _boxed_ball_root(p, al, ul, theta, norm_a, ub, value)
        ans, value = _dual_root(lam, shrink, margin)
    coef = -theta * math.hypot(*ans)  # w* = -theta ||u|| a / ||a||, as worst_case_input
    w_star = [coef * x / norm_a for x in al] if norm_a > 0.0 else [0.0] * len(al)
    return FilterResult(np.array(ans), np.array(w_star), value,
                        math.hypot(*map(sub, ans, ul)) > TOL_FEAS)


def filter_qp_channels(p, a, u0, theta, u_max=None) -> FilterResult:
    """Per-channel filter: minimize ||u - u0|| subject to
    p + a @ u - sum_i theta_i |a_i| |u_i| >= 0 (and the box), exactly by
    the dual root.  The level may differ per channel.
    """
    p, al, ul = _inputs(p, a, u0)
    m = len(al)
    tl = _per_channel(theta, m).tolist()
    if not all(map(in_level_range, tl)):
        raise ValueError("per-channel levels must lie in [0, 1)")
    ub = _bounds(u_max, m)
    load = [t * abs(x) for t, x in zip(tl, al)]  # theta_i |a_i|, as channel_margin
    margin = partial(_split_margin, p, al, load)
    u = ul if ub is None else _clip(ul, ub)
    # the answer and its margin; while ans is None, value is the failing g(0)
    ans, value = _try_baseline(u, al, p, margin)
    if ans is None and ub is not None:
        # the best margin in the box: each channel at its bound along a_i
        u = [b if y > 0.0 else -b if y < 0.0 else x for x, y, b in zip(u, al, ub)]
        ans, value = _box_limit(u, value, p, margin)
    if ans is None:
        bl = ub or [math.inf] * m
        rows = list(zip(ul, al, load, bl))

        def shrink(lam):
            # soft thresholding by lam * theta_i |a_i|, then the clip
            u = []
            for x, y, l, b in rows:
                v, k = x + lam * y, lam * l
                u.append(max(-b, min(b, v - k if v > k else v + k if v < -k else 0.0)))
            return u

        lam, kinks = _split_root(al, ul, load, bl, value, shrink, margin)
        ans, value = _dual_root(lam, shrink, margin, kinks)
    w_star = [-t * abs(x) * (1.0 if y > 0.0 else -1.0 if y < 0.0 else 0.0)
              for t, x, y in zip(tl, ans, al)]
    return FilterResult(np.array(ans), np.array(w_star), value,
                        math.hypot(*map(sub, ans, ul)) > TOL_FEAS)


def filter_auto(p, a, u0, theta, u_max=None, mode: str = "auto") -> FilterResult:
    """Dispatch to the fitting route.

    Per-channel theta (any array) goes to the split route; otherwise one
    channel uses the exact interval and several use the ball route.
    """
    if mode not in FILTER_MODES:
        raise ValueError(f"unknown filter mode {mode!r}")
    if mode == "auto":
        if isinstance(theta, float) or np.ndim(theta) == 0:  # isinstance: no numpy dispatch
            size = a.size if isinstance(a, np.ndarray) else np.size(a)
            mode = "scalar" if size == 1 else "socp"
        else:
            mode = "qp"
    if mode == "scalar":
        return filter_scalar(p, a, u0, theta, u_max=u_max)
    if mode == "socp":
        return filter_socp(p, a, u0, theta, u_max=u_max)
    return filter_qp_channels(p, a, u0, theta, u_max=u_max)
