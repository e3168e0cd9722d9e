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
(`_boxed_ball_root`).  Every route runs on plain floats, and the margin
has one definition, `robust_margin` or `channel_margin` on floats (sums
from +0.0, norms by hypot): a cone route stops at the first u whose margin
is >= 0 and reports it as the certificate.  Numpy's `a @ u` and norms may
read it below 0, by at most 2 (m + 2) 2^-53 T, T = |p| + sum_i |a_i u_i| +
the penalty term (the two evaluations' summed error bounds).  No filter
runs the interior-point solver: it is the self-checks' oracle, on
`ball_program` (via `ball_oracle`) and `split_program`.

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
        if lam > 1e300:
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

    return _newton_root(gd, g0, norm_a * norm_a), shrink


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
    last kink, where every channel sits at its bound, is returned.
    """
    kinks, slope = [], 0.0
    for x, y, l, b in zip(ul, al, load, bl):
        if y != 0.0:
            for d, lo, hi in ((y - l, 0.0, b), (y + l, -b, 0.0)):
                kinks += [k for k in ((lo - x) / d, (hi - x) / d) if 0.0 < k < math.inf]
            if b == math.inf:
                slope += (abs(y) - l) ** 2
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


def _channel_sums(v: list, al: list, ub: list, s: float) -> tuple:
    """Which channels clip(s * v) clamps (s |v_i| >= ub_i), and over the
    clamped ones sum ub_i^2 and a @ u, over the free ones v @ v, a @ v and
    a @ a."""
    clamped = a_c = free = a_v = a_a = 0.0
    mask = []
    for x, y, b in zip(v, al, ub):
        if s * abs(x) >= b:
            mask.append(True)
            clamped += b * b
            a_c += y * math.copysign(b, x)
        else:
            mask.append(False)
            free += x * x
            a_v += y * x
            a_a += y * y
    return mask, clamped, a_c, free, a_v, a_a


def _shrink_scale(v: list, ub: list, k: float, norm_v: float) -> float:
    """The s in (0, 1] with ||clip(s * v)|| * (1 - s) / s = k, 0 < k < ||v||,
    by a walk over the sorted breakpoints ub_i / |v_i|: s = 1 - k / ||v||
    on the segment before the first one, else `_segment_root` on the
    first segment whose end meets the equation."""
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
    return _segment_root(clamped, f, k, s)


def _segment_root(clamped: float, free: float, k: float, t: float) -> float:
    """The root s of sqrt(C + F s^2) * (1 - s) = k * s, C = clamped > 0 and
    F = free.  The tangent of the convex N(s) = sqrt(C + F s^2) at any
    point lies below it, so the root of the tangent's quadratic equation
    is a lower bound of s: from the tangent at t in (0, 1] (t itself when
    it lies below the root), then at each new bound, the bounds climb to
    the root quadratically."""
    n = math.sqrt(clamped + free * t * t)
    s = t if n * (1.0 - t) >= k * t else 0.0
    for _ in range(100):  # a bound only: quadratic convergence ends far sooner
        c0, c1 = clamped / n, free * t / n  # the tangent c0 + c1 * s
        q = c0 - c1 + k
        x = 2.0 * c0 / (q + math.sqrt(q * q + 4.0 * c0 * c1))  # c1 s^2 + q s = c0
        if x - s <= 4e-16 * x:
            return max(s, x)
        s = t = x
        n = math.sqrt(clamped + free * t * t)
    return s


def _newton_root(gd: Callable[[float], tuple[float, float]], g0: float, aa: float) -> float:
    """Upper end hi of a root bracket of the nondecreasing g, g(hi) >= 0,
    of relative width 1e-15, given g(0) = g0 < 0 and aa = ||a||^2;
    gd(lam) returns g(lam) and its slope.

    The first step goes to -g0 / aa, and each next one is Newton's from the
    latest point.  Once a step is below the bracket rule, twice it closes
    the bracket from the other side.  With no upper end yet, a step that
    does not move up doubles instead.  After that, a step that leaves the
    bracket, or one that follows two crossings of the root which did not
    halve the bracket (Newton cycling about a kink), takes the Illinois
    secant, or bisection when that leaves the bracket too.
    """
    lo, hi, ghi = 0.0, math.inf, math.inf
    flo, fhi, side = g0, math.inf, -1  # the secant's values; Illinois halves the end kept twice
    x, gx, dx = lo, g0, 0.0
    widths, crossed = [math.inf, math.inf], [False, False]  # over the last two steps
    for i in range(400):  # a bound only
        if i == 0:
            y = max(-g0 / max(aa, 1e-300), 1e-300)
        else:
            step = -gx / dx if dx > 0.0 else math.nan
            y = x + (2.0 * step if abs(step) <= 0.5e-15 * abs(x + step) else step)
            if y == x:
                y = math.nextafter(x, math.inf if step > 0.0 else -math.inf)
        if hi == math.inf:
            if not lo < y:
                if lo > 1e300:
                    raise InfeasibleError("no multiplier meets the robust constraint")
                y = 2.0 * lo
        elif not (lo < y < hi and i < 100) or (all(crossed) and hi - lo > 0.5 * widths[0]):
            y = (lo * fhi - hi * flo) / (fhi - flo)
            if not (lo < y < hi and i < 100):
                y = 0.5 * (lo + hi)
        x, (gx, dx) = y, gd(y)
        new = 1 if gx >= 0.0 else -1  # NaN (overflow) is unmet, with no slope to follow
        crossed = [crossed[1], new != side]
        if new > 0:
            hi, ghi, fhi = x, gx, gx
            if side > 0:
                flo *= 0.5
        else:
            if not gx < 0.0:
                gx, dx = -math.inf, 0.0
            lo, flo = x, gx
            if side < 0:
                fhi *= 0.5
        side = new
        if hi < math.inf and (hi - lo <= 1e-15 * hi or ghi == 0.0):
            return hi
        widths = [widths[1], hi - lo]
    return hi


def _boxed_ball_root(p: float, al: list, ul: list, theta: float, norm_a: float, bl: list,
                     g0: float) -> tuple[float, Callable[[float], list]]:
    """Dual root lam of the ball route under the box |u_i| <= ub_i, and its
    prox.

    The prox of lam * kappa * ||u|| plus the box at v = u0 + lam * a is 0
    when ||v|| <= lam * kappa, else clip(s * v) with s in (0, 1] the root of
    ||clip(s * v)|| * (1 - s) / s = lam * kappa.  With the clamped channels
    fixed, C = sum ub_i^2 over them and F = sum v_i^2 over the rest, that
    is N(s) * (1 - s) = lam * kappa * s with N(s) = sqrt(C + F s^2), solved
    by `_segment_root`.  The channels clamped at the previous evaluation's
    s give the first try, kept when they are the ones clamped at its root;
    else `_shrink_scale` walks the breakpoints.  The root in lam is found
    by `_newton_root`: on the free channels u_F = s * v_F, and with
    n = ||u||, differentiating n * (1 - s) = lam * kappa * s and
    g = p + a @ u - kappa * n gives g's slope in closed form.
    """
    kappa = theta * norm_a
    last = [math.nan, (None, 0.5, None)]  # the latest lam and prox(lam): s starts the next one

    def prox(lam):
        """v, s and the `_channel_sums` at s; s = 0 when u = 0."""
        if lam == last[0]:  # the search's last point, which the answer takes
            return last[1]
        v = [x + lam * y for x, y in zip(ul, al)]
        k, norm_v = lam * kappa, math.hypot(*v)
        if norm_v <= k:
            return v, 0.0, None
        if k == 0.0:
            return v, 1.0, _channel_sums(v, al, bl, 1.0)
        hint = last[1][1]
        sums = _channel_sums(v, al, bl, hint)
        mask, clamped, _, free, _, _ = sums
        s = _segment_root(clamped, free, k, hint) if clamped > 0.0 else 1.0 - k / norm_v
        if [s * abs(x) >= b for x, b in zip(v, bl)] != mask:
            s = _shrink_scale(v, bl, k, norm_v)
            sums = _channel_sums(v, al, bl, s)
        last[:] = lam, (v, s, sums)
        return v, s, sums

    def shrink(lam):
        v, s, _ = prox(lam)
        return [max(-b, min(b, s * x)) for x, b in zip(v, bl)]

    def gd(lam):
        v, s, sums = prox(lam)
        if s == 0.0:
            return p, 0.0
        _, clamped, a_c, free, a_v, a_a = sums
        n = math.sqrt(clamped + s * s * free)  # ||u||
        g = p + (a_c + s * a_v) - theta * n * norm_a
        if kappa == 0.0 or n == 0.0:
            return g, a_a
        k = lam * kappa
        ds = (kappa * s - (1.0 - s) * s * s * a_v / n) / ((1.0 - s) * s * free / n - n - k)
        dn = (s * ds * free + s * s * a_v) / n
        return g, ds * a_v + s * a_a - kappa * dn

    return _newton_root(gd, g0, norm_a * norm_a), shrink


def ball_program(p: float, a: np.ndarray, u0: np.ndarray, theta: float,
                 ub: Optional[np.ndarray] = None) -> ConeProgram:
    """The paper's ball-route cone program over z = (u, q).

    Minimize q - u0 @ u s.t. theta*||a||*||u|| <= p + a @ u, the
    rotated-cone epigraph ||(sqrt(2) u, q - 1)|| <= q + 1, i.e.
    2q >= ||u||^2, and the box |u_i| <= ub_i if given.
    """
    m = a.size
    n = m + 1
    span = np.hstack([np.eye(m), np.zeros((m, 1))])
    e_q = np.eye(n)[m]
    blocks = [
        SocBlock(theta * float(np.linalg.norm(a)) * span, np.zeros(m),
                 np.concatenate([a, [0.0]]), p),
        SocBlock(np.vstack([math.sqrt(2.0) * span, e_q[None, :]]),
                 np.concatenate([np.zeros(m), [-1.0]]), e_q, 1.0),
    ]
    if ub is not None:
        for i in range(m):
            blocks += [SocBlock(np.zeros((0, n)), np.zeros(0), sign * span[i],
                                float(ub[i])) for sign in (-1.0, 1.0)]
    return ConeProgram(c=np.concatenate([-u0, [1.0]]), blocks=tuple(blocks), n_vars=n)


def ball_oracle(p: float, a: np.ndarray, u0: np.ndarray, theta: float,
                ub: Optional[np.ndarray] = None) -> SocpResult:
    """The interior-point solver on `ball_program`.  No filter calls it: it
    is the self-checks' oracle."""
    return solve_socp(ball_program(p, a, u0, theta, ub))


def split_program(p: float, a: np.ndarray, u0: np.ndarray, theta_vec: np.ndarray,
                  ub: Optional[np.ndarray] = None) -> ConeProgram:
    """The split route's cone program over z = (u+, u-, q), u = u+ - u-.

    Minimize q - u0 @ u s.t. u+, u- >= 0, the one linear constraint
    p + (a - theta*|a|) @ u+ - (a + theta*|a|) @ u- >= 0, the rotated-cone
    epigraph 2q >= ||u+||^2 + ||u-||^2, and |u_i| <= ub_i if given.  Where
    u+ and u- are complementary, the constraint is the per-channel margin
    and the epigraph 2q >= ||u||^2; and the optimum is complementary, as
    shrinking both sides of a channel keeps u, keeps or raises the margin
    and lowers q.  So the optimal u is the split route's, and unique.
    """
    m = a.size
    n = 2 * m + 1
    load = theta_vec * np.abs(a)
    span = np.hstack([np.eye(m), -np.eye(m), np.zeros((m, 1))])  # z -> u
    e_q = np.eye(n)[2 * m]
    blocks = [
        SocBlock(np.zeros((0, n)), np.zeros(0), np.concatenate([a - load, -a - load, [0.0]]), p),
        SocBlock(np.diag(np.concatenate([np.full(2 * m, math.sqrt(2.0)), [1.0]])),
                 np.concatenate([np.zeros(2 * m), [-1.0]]), e_q, 1.0),
    ]
    blocks += [SocBlock(np.zeros((0, n)), np.zeros(0), row, 0.0) for row in np.eye(n)[:2 * m]]
    if ub is not None:
        blocks += [SocBlock(np.zeros((0, n)), np.zeros(0), sign * span[i], float(ub[i]))
                   for i in range(m) for sign in (-1.0, 1.0)]
    return ConeProgram(c=np.concatenate([-u0, u0, [1.0]]), blocks=tuple(blocks), n_vars=n)


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
