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
meets the constraint, it is the answer.  Otherwise each cone route takes
the exact dual root, with or without a box: a 1-D monotone search in
the constraint's multiplier over a closed-form prox.  Every cone route
searches with `_newton_root` on the margin's closed-form slope: Newton
steps, kept in a root bracket by doubling, the Illinois secant and
bisection.  Each evaluation is O(1) on the ball route without a box, in
two coordinates (`_ball_root`); O(1) on the set of clamped channels but
for one pass that tests the set under a box, where a stretch with g flat
ends in one step (`_boxed_ball_root`); and one soft-thresholding pass
with the margin itself on the split route (`filter_qp_channels`).  Both
ball routes search in mu = lam * ||a|| on a / ||a||, so ||a|| never
enters squared, and scaling p and a by a power of 2 leaves their
answers' bits as they are.  Every route runs on plain floats, and the
margin has one definition, `robust_margin` or `channel_margin` on floats
(sums from +0.0, norms by hypot, which is |x| on one channel).  Where g
is >= 0 the search takes that margin at the prox's u: a point whose
margin is below 0 counts as below the root, and the search returns the
first converged point whose margin is >= 0, u with that margin as its
certificate.  A search that does not converge raises FilterError, never
InfeasibleError: that verdict comes only from a = 0, from the box (see
`_box_limit`) and from the interval route.  A NaN or -inf margin at the
baseline, where products of the data overflow, raises FilterError.
Numpy's `a @ u` and norms may read the margin below 0, by at most
2 (m + 2) 2^-53 T, T = |p| + sum_i |a_i u_i| + the penalty term (the two
evaluations' summed error bounds).  Within that band of the root the
search stops at the first certified point (`_newton_root`).  A filter
returns u, that margin and whether u moved; the worst-case w* at u is
`sectors.worst_case_input` (or `per_channel_worst_case`).  No filter
runs the interior-point solver: it is the self-checks' oracle, on the
paper's min-norm programs in SOCP form (`verify.ball_program` and
`verify.split_program`).

Optionally a symmetric box |u_i| <= u_max_i restricts the input set;
infeasibility against the box is raised as an error, never relaxed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from operator import mul, sub
from typing import Callable, Optional

import numpy as np

# no filter calls worst_case_input or solve_socp; both stay module
# attributes, which the traced benchmark wraps
from .sectors import in_level_range, worst_case_input  # noqa: F401
from .socp import solve_socp  # noqa: F401

__all__ = [
    "FilterError",
    "InfeasibleError",
    "FilterResult",
    "robust_margin",
    "channel_margin",
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
        margin: Robust constraint value at u (`robust_margin` or
            `channel_margin`); >= -1e-8 on success, >= 0 on the cone routes.
        altered: Whether u differs from the baseline beyond tolerance.
    """

    u: np.ndarray
    margin: float
    altered: bool


def robust_margin(p: float, a, u, theta: float) -> float:
    """Worst-case constraint value p + a @ u - theta * ||u|| * ||a|| on
    floats (see the module docstring); a ValueError unless a and u are
    vectors of one length."""
    al, ul = _vectors(a, u)
    return float(_ball_margin(p, al, theta, math.hypot(*al), ul))


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


def _ball_margin(p: float, al: list, theta: float, norm_a: float, u: list) -> float:
    """`robust_margin` on lists, norm_a = ||a||."""
    return p + _dot(al, u) - theta * math.hypot(*u) * norm_a


def _split_margin(p: float, al: list, load: list, u: list) -> float:
    """`channel_margin` on lists, with load_i = theta_i * |a_i|."""
    return p + _dot(al, u) - _dot(load, map(abs, u))


_FLOAT = np.dtype(float)


def _floats(x) -> np.ndarray:
    """np.atleast_1d(np.asarray(x, dtype=float)); x itself, with no numpy
    call, when it is a 1-D float64 ndarray."""
    if type(x) is np.ndarray and x.dtype is _FLOAT and x.ndim == 1:
        return x
    return np.array(x, dtype=float, ndmin=1, copy=None)


def _vectors(a, u, name: str = "u") -> tuple[list, list]:
    """a and u as lists of floats; a ValueError, which calls u `name`,
    unless they are 1-D of one shape (a scalar is one channel)."""
    a, u = _floats(a), _floats(u)
    if a.ndim != 1 or u.shape != a.shape:
        raise ValueError(f"shape mismatch: a {a.shape}, {name} {u.shape}")
    return a.tolist(), u.tolist()


def _inputs(p, a, u0) -> tuple[float, list, list]:
    """p, and a and u0 as lists of floats; a ValueError unless a and u0
    are 1-D of one shape and all data is finite."""
    p = float(p)
    al, ul = _vectors(a, u0, "u0")
    _check_finite([p] + al + ul)
    return p, al, ul


def _check_finite(values) -> None:
    """A ValueError unless every value of the constraint data is finite."""
    if not all(map(math.isfinite, values)):
        raise ValueError("constraint data must be finite")


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
    """The error for a margin that came out NaN or -inf, which certifies
    nothing: the margin of finite data is finite in exact arithmetic."""
    return FilterError(f"robust margin is NaN or -inf: a product of the constraint data "
                       f"overflows (p={p})")


def _try_baseline(u: list, al: list, p: float, margin: Callable[[list], float]
                  ) -> tuple[Optional[list], float]:
    """(u, its margin) when the box projection u of u0 meets the robust
    constraint (the answer: the box holds the feasible set), else (None, g0)
    with g0 < 0 its margin, g(0) of the dual root.  With a = 0 no input
    moves the constraint, so it either holds here or cannot be met.  A NaN
    or -inf margin raises FilterError."""
    g0 = margin(u)
    if g0 >= 0.0:
        return u, g0
    if not g0 > -math.inf:  # NaN included
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


def _ball_root(p: float, al: list, ul: list, theta: float, norm_a: float,
               g0: float) -> tuple[list, float]:
    """The answer of the ball route without a box and its margin, from its
    dual root in mu = lam * ||a||.

    With d = a / ||a||, u(mu) is block soft thresholding of v = u0 + mu * d
    by mu * theta: u = c * v with c = max(0, 1 - mu * theta / ||v||).  Its
    margin needs only two coordinates of v: t = d @ v = d @ u0 + mu and
    ||v|| = hypot(t, r), r the part of u0 across a.  So
    g(mu) = p + ||a|| * c * w, w = t - theta * ||v||, and its slope cost
    O(1) per evaluation; for t > 0, w is taken as
    (1 - theta) * ||v|| - r^2 / (||v|| + t), since t - ||v|| cancels where
    t is near ||v|| (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, ch. 1).  In mu, ||a|| enters only as that factor: no
    square of it is formed, so nothing overflows with finite data, and
    scaling p and a by a power of 2 scales g and leaves the search's
    iterates as they are.
    """
    d = [x / norm_a for x in al]
    t0 = _dot(d, ul)
    r = math.hypot(*[x - t0 * y for x, y in zip(ul, d)])
    unit, load = _band_unit(len(d)), (1.0 + theta) * norm_a

    def gd(mu):
        t = t0 + mu
        n, k = math.hypot(t, r), mu * theta
        if n <= k:  # u = 0, whose margin is p
            return p, 0.0, None if p < 0.0 else [0.0] * len(d), p, unit * abs(p)
        c = 1.0 - k / n
        if t > 0.0:  # w and 1 - theta * t / n without the cancellation of t - n
            e = r * (r / (n + t))
            w, f = (1.0 - theta) * n - e, ((1.0 - theta) * t + e) / n
        else:
            w, f = t - theta * n, 1.0 - theta * t / n
        dc = -theta / n * (1.0 - mu / n * (t / n))
        g, slope = p + norm_a * (c * w), norm_a * (dc * w + c * f)
        band = unit * (abs(p) + load * (c * n))
        if g < 0.0:
            return g, slope, None, g, band
        u = [c * (x + mu * y) for x, y in zip(ul, d)]
        return g, slope, u, _ball_margin(p, al, theta, norm_a, u), band

    return _newton_root(gd, g0, -g0 / norm_a)


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


def _band_unit(m: int) -> float:
    """The margin's rounding band per unit of T on m channels (see the
    module docstring): 2 (m + 2) 2^-53."""
    return (m + 2) * 2.0 ** -52


def _newton_root(gd: Callable[[float], tuple], g0: float, y: float) -> tuple[list, float]:
    """The route's answer at the root of its nondecreasing g, and the
    answer's margin >= 0, given g(0) = g0 < 0 and a first point y > 0.

    u(lam), the prox of the route's penalty plus the box at u0 + lam * a,
    minimizes ||u - u0||^2 / 2 - lam * margin(u) over the input set, so
    g(lam) = margin(u(lam)), minus the derivative of the concave dual, is
    continuous and nondecreasing, and u at its root is the answer.  The
    routes evaluate g on plain floats, in lam times a scale of a, on a
    over that scale: `_ball_root`, `_boxed_ball_root`, and the split
    route's own g in `filter_qp_channels`.  gd(lam) returns g(lam), its
    slope, where g >= 0 u(lam) and its margin (else None and g), and the
    band, 2 (m + 2) 2^-53 T with T = |p| + (1 + theta) ||a|| ||u|| on the
    ball routes and |p| + sum_i (|a_i| + theta_i |a_i|) |u_i| on the split
    route: the bound of the module docstring on the margin's rounding.  A
    point is certified where that margin is >= 0; one whose margin is
    below 0 counts as below the root, with the margin as its value.  On
    the split route g is that margin.

    After y, each step is Newton's from the latest point, and a step that
    rounds to nothing moves one ulp.  Inside the band the margin's rounding
    decides the sign: a point whose margin is below 0 by at most the band
    steps to where g is about half the band, not to g = 0.  The search
    returns the answer at the first certified point whose own Newton step
    is converged (at most 1e-15 of it), or where g is at most the band (0
    included), or at the bracket's certified end once a root bracket of
    relative width 1e-15 (or one subnormal step) closes.  With no upper
    end yet, a step that does not move up (g flat, or a step back)
    doubles lam instead.  After that, a step that leaves the bracket, or
    one that follows two crossings of the root which did not halve the
    bracket (Newton cycling about a kink; the step that closes the
    bracket is not a crossing), takes the Illinois secant, or bisection
    when that leaves the bracket too.  Doubling past 1e300, or
    400 points without a stop, raises FilterError: neither shows that no
    input is safe.
    """
    inf = math.inf
    lo, hi, ans = 0.0, inf, None
    flo, fhi, side = g0, inf, -1  # the secant's values; Illinois halves the end kept twice
    width, crossed = inf, False  # the bracket's width, and whether a step crossed the root
    y = max(y, 1e-300)
    for i in range(400):  # a bound only
        x = y
        gx, dx, u, value, band = gd(x)
        target = 0.0  # the value Newton steps to
        if value >= 0.0:
            # within the band (g <= 0 included: a flat boxed g), or converged
            if gx <= band or gx <= 1e-15 * x * dx:
                return u, value
            if side > 0:
                flo *= 0.5
            cross, side = side < 0, 1
            hi, fhi, ans = x, gx, (u, value)
        else:
            if side < 0:
                fhi *= 0.5
            cross, side = side > 0, -1
            gx = value
            if not gx < 0.0:  # NaN (overflow) is unmet, with no slope to follow
                gx, dx = -inf, 0.0
            elif gx >= -band:
                target = 0.5 * band
            lo, flo = x, gx
        if hi < inf and hi - lo <= 1e-15 * hi + 5e-324:  # or one subnormal step wide
            return ans
        cycling = crossed and cross and hi - lo > 0.5 * width
        crossed, width = cross and width < inf, hi - lo
        step = (target - gx) / dx if dx > 0.0 else math.nan
        y = x + step
        if y == x:
            y = math.nextafter(x, inf if step > 0.0 else -inf)
        if hi == inf:
            if not lo < y:
                if lo > 1e300:
                    break
                y = 2.0 * lo
        elif cycling or not (lo < y < hi and i < 99):
            y = (lo * fhi - hi * flo) / (fhi - flo)
            if not (lo < y < hi and i < 99):
                y = 0.5 * (lo + hi)
    raise FilterError("root search did not converge")


def _boxed_ball_root(p: float, al: list, ul: list, theta: float, norm_a: float, bl: list,
                     g0: float) -> tuple[list, float]:
    """The answer of the ball route under the box |u_i| <= ub_i and its
    margin, from its dual root in mu = lam * ||a|| on d = a / ||a|| as in
    `_ball_root`.

    The prox of mu * theta * ||u|| plus the box at v = u0 + mu * d is 0
    when ||v|| <= mu * theta, else clip(s * v) with s in (0, 1] the root of
    ||clip(s * v)|| * (1 - s) / s = mu * theta.  On a clamped set S (each
    channel in it at the bound of its sign), C = sum ub_i^2 over S and
    F = ||v_F||^2 over the free channels, that is N_S(s) * (1 - s) =
    mu * theta * s with N_S(s) = sqrt(C + F s^2), solved by `_segment_root`.
    C and d_C @ u_C are constant on S, and v_F is taken in `_ball_root`'s
    (t, r) coordinates along d_F: t = e_F @ v_F, r the part of u0_F across
    d_F, e_F = d_F / ||d_F||, so F = t^2 + r^2 and d_F @ v_F = ||d_F|| t.
    So while S holds, an evaluation costs O(1) and one pass over the
    channels, which tests S at the s found.  Where the pass finds another
    set S' clamped at s, the sums are rebuilt on S' and s solved again.
    Any S gives N_S(s) >= ||clip(s * v)|| (a channel on the wrong side only
    adds), so its s bounds the true one from above, and s falls from round
    to round: after the rebuild a round only frees the clamped channels
    below their bounds at its s, so the rounds end within m more.

    With n = ||u||, differentiating n * (1 - s) = mu * theta * s and
    g = p + ||a|| * (d_C @ u_C + s * d_F @ v_F - theta * n) gives g's slope
    in closed form, for `_newton_root`.  Where no free channel moves
    (d_F = 0, and F = 0 or theta = 0), g is flat until the first clamped
    channel frees, at a mu in closed form; there the slope reported sends
    Newton just past that mu, in one step however short the search's mu is
    beside it.  The first point is -g0 / ||a||, or just past a flat start
    if that is later.  Where g is flat with no such end, no step raises
    it, so gd hands u and its margin there as well as where g >= 0: at a
    corner of the box the closed form may round below 0 where the margin,
    the box's best, is >= 0.  Each evaluation starts `_segment_root` from
    the latest evaluation's s.
    """
    rows = list(zip(ul, [x / norm_a for x in al], bl))
    # the latest clamped set: its rows, (c u0_i, c d_i, ub_i) with c the sign
    # of the bound where channel i is clamped; the free rows, which the sums
    # and the set test take up to sign; and the sums
    crows = frows = clamped = a_c = norm_f = t0 = r = None
    s0 = 1.0  # s at the latest evaluation
    unit, load = _band_unit(len(rows)), (1.0 + theta) * norm_a

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

    def clamp(mu, s):
        """Make the set that clip(s * v) clamps at mu, and its sums."""
        cr, fr = [], []
        for x, y, b in rows:
            w = s * (x + mu * y)
            if w >= b:
                cr.append((x, y, b))
            elif w <= -b:
                cr.append((-x, -y, b))
            else:
                fr.append((x, y, b))
        take(cr, fr)

    def flat_end(mu):
        """Where no free channel moves, a point just past the first mu
        where a clamped channel frees, c v_i sqrt(C) = ub_i (sqrt(C) +
        mu theta); else 0."""
        if norm_f == 0.0 and (theta == 0.0 or r == 0.0):
            rc = math.sqrt(clamped)
            end = min([rc * (x - b) / (b * theta - y * rc)
                       for x, y, b in crows if b * theta > y * rc], default=math.inf)
            nxt = max(end, mu) * (1.0 + 2.0 ** -30)
            if mu < nxt < math.inf:
                return nxt
        return 0.0

    def gd(mu):
        """g(mu), its slope, and where g >= 0 or flat for good u(mu) and
        its margin; s at mu (0 where u = 0) goes to s0, the set clamped
        there and its sums to the nonlocals."""
        nonlocal s0
        k, s = mu * theta, s0 or 1.0
        rebuilt = False
        while True:
            t = t0 + mu * norm_f
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
                    (kept if s * (x + mu * y) >= b else freed).append((x, y, b))
                if not freed:
                    break
                take(kept, frows + freed)
                continue
            for x, y, b in crows:  # the pass that tests the set at s
                if s * (x + mu * y) < b:
                    break
            else:
                for x, y, b in frows:
                    if not -b < s * (x + mu * y) < b:
                        break
                else:
                    break
            clamp(mu, s)
            rebuilt = True
        s0 = s
        if s == 0.0:  # u = 0, whose margin is p
            return p, 0.0, None if p < 0.0 else [0.0] * len(rows), p, unit * abs(p)
        a_v = norm_f * t
        n = math.sqrt(clamped + s * s * free)  # ||u||
        g = p + norm_a * ((a_c + s * a_v) - theta * n)
        band = unit * (abs(p) + load * n)
        if theta == 0.0 or n == 0.0:
            slope = norm_a * (norm_f * norm_f)
        else:
            w, e, c = s * a_v / n, s * free / n, 1.0 - s
            ds = s * (theta - c * w) / (c * e - n - k)
            slope = norm_a * (ds * (a_v - theta * e) + s * (norm_f * norm_f - theta * w))
        if slope == 0.0 and g < 0.0 and (nxt := flat_end(mu)):
            slope = -g / (nxt - mu)  # the step to just past the flat stretch
        if g < 0.0 and slope > 0.0:
            return g, slope, None, g, band
        u = [max(-b, min(b, s * (x + mu * y))) for x, y, b in rows]
        return g, slope, u, _ball_margin(p, al, theta, norm_a, u), band

    clamp(0.0, 1.0)
    return _newton_root(gd, g0, max(-g0 / norm_a, flat_end(0.0)))


def filter_scalar(p, a, u0, theta, u_max=None) -> FilterResult:
    """Exact single-channel filter via the feasible interval.

    For a > 0 the robust constraint is u >= u_l with
    u_l = max(-p/((1-theta)a), -p/((1+theta)a)) (the two slopes of the
    piecewise-linear constraint on either side of u = 0), so the closest
    feasible point is max(u_l, u0); a < 0 mirrors to an upper endpoint.

    Past the checks it runs on plain floats (`_interval`).
    """
    p, al, ul = _inputs(p, a, u0)
    theta = _scalar_theta(theta)
    if len(al) != 1:
        raise ValueError(f"interval route needs one channel, got {len(al)}")
    bound = math.inf if u_max is None else _bounds(u_max, 1)[0]  # inf: no box
    u, value, altered = _interval(p, al[0], ul[0], theta, bound)
    # positional: keywords cost a frozen dataclass another 0.5 us per call
    return FilterResult(np.array([u]), value, altered)


def _interval_margin(p: float, a: float, u: float, theta: float) -> float:
    """`robust_margin` on one channel of floats, bit for bit: its IEEE
    operations, (p + (a*u + 0.0)) - (theta*|u|)*|a|, as the sum runs from
    +0.0 and hypot of one value is its |x|."""
    return (p + (a * u + 0.0)) - (theta * abs(u)) * abs(a)


def _interval(p: float, a: float, u0: float, theta: float, bound: float
              ) -> tuple[float, float, bool]:
    """`filter_scalar` on checked floats, bound = inf without a box: the
    answer u, its margin and whether u moved."""
    u = min(max(u0, -bound), bound)
    value = _interval_margin(p, a, u, theta)
    if not value >= 0.0:
        if a == 0.0:
            raise InfeasibleError(
                f"input direction vanished (a = 0) with negative drift term p = {p}",
                degenerate=True)
        lo_slope = -p / ((1.0 - theta) * a)  # binds where sign(u) == sign(a)
        hi_slope = -p / ((1.0 + theta) * a)
        if a > 0.0:
            u_l = max(lo_slope, hi_slope)
            if u_l > bound:
                raise InfeasibleError(
                    f"feasible interval [{u_l}, inf) lies outside the bound {bound}")
            u = min(max(u0, max(u_l, -bound)), bound)
        else:
            u_h = min(lo_slope, hi_slope)
            if u_h < -bound:
                raise InfeasibleError(
                    f"feasible interval (-inf, {u_h}] lies outside the bound {-bound}")
            u = max(min(u0, min(u_h, bound)), -bound)
        value = _interval_margin(p, a, u, theta)
    if math.isnan(value):  # an overflowing a * u or theta |u| |a|
        raise _overflow(p)
    return u, value, abs(u - u0) > TOL_FEAS


def filter_socp(p, a, u0, theta, u_max=None) -> FilterResult:
    """Ball-route filter: minimize ||u - u0|| s.t. theta*||a||*||u|| <= p + a @ u
    (and the box), exactly by the dual root."""
    p, al, ul = _inputs(p, a, u0)
    theta = _scalar_theta(theta)
    ub = _bounds(u_max, len(al))
    norm_a = math.hypot(*al)  # a @ a underflows below ~1e-162, hypot does not
    margin = partial(_ball_margin, p, al, theta, norm_a)
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
            ans, value = _ball_root(p, al, ul, theta, norm_a, value)
        else:
            ans, value = _boxed_ball_root(p, al, ul, theta, norm_a, ub, value)
    return FilterResult(np.array(ans), value, math.hypot(*map(sub, ans, ul)) > TOL_FEAS)


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
        # the search runs in mu = lam * s on a / s, s = max_i |a_i|, where
        # neither ||a|| nor the slope overflows with finite data
        s = max(map(abs, al))
        # the rows: u0_i, a_i / s, theta_i |a_i| / s, ub_i, and the band's
        # (|a_i| + theta_i |a_i|) / s
        rows = [(x, y / s, l / s, b, (abs(y) + l) / s)
                for x, y, l, b in zip(ul, al, load, ub or [math.inf] * m)]
        unit = _band_unit(m)

        def gd(mu):
            """(g, its slope in mu, u, g, band): u is the soft thresholding
            of u0 + mu * a / s by mu * theta_i |a_i| / s and then the clip,
            and g = margin(u), the certificate.  Channel i adds s d_i^2 to
            the slope, d_i = (a_i -+ theta_i |a_i|) / s on either side of 0,
            while strictly inside its range, and nothing clamped or at 0."""
            u, slope, size = [], 0.0, 0.0
            for x, y, l, b, q in rows:
                v, k = x + mu * y, mu * l
                w = v - k if v > k else v + k if v < -k else 0.0
                if w >= b:
                    w = b
                elif w <= -b:
                    w = -b
                elif w:
                    d = y - l if w > 0.0 else y + l
                    slope += d * d
                size += q * abs(w)
                u.append(w)
            g = margin(u)
            return g, slope * s, u, g, unit * (abs(p) + s * size)

        # from -g(0) / ||a||^2 in lam
        ans, value = _newton_root(gd, value, -value / s / math.hypot(*[r[1] for r in rows]) ** 2)
    return FilterResult(np.array(ans), value, math.hypot(*map(sub, ans, ul)) > TOL_FEAS)


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
