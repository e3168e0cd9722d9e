"""Dense homogeneous self-dual interior-point solver for small second-order
cone programs.

Solves

    minimize    c @ z
    subject to  ||A_i @ z + b_i|| <= d_i @ z + e_i,    i = 1, ..., K.

Each constraint is a slack s_i = H_i @ z + k_i, with H_i = (d_i; A_i) and
k_i = (e_i; b_i), held in the second-order cone.  The program and its
dual, maximize -k @ y s.t. H' @ y = c with every y_i in the cone, are
embedded in one homogeneous self-dual system in (z, y, tau; s, kappa):

    0     = c tau - H' y,    s = H z + k tau,    kappa = -c @ z - k @ y,

which path following solves from its central point z = 0, s = y = e,
tau = kappa = 1 (Andersen, Roos & Terlaky, Math. Prog. 2003; ECOS,
Domahidi, Chu & Boyd, ECC 2013).  Its limit is either tau > 0, where
(z, y) / tau is an optimal pair, or tau = 0 < kappa with H' y = 0 and
k @ y < 0, a Farkas certificate that no z meets the cones.  So no start
point is needed and infeasibility is decided, not guessed.

Each iteration linearizes the complementarity s_i o y_i = mu e in
Nesterov-Todd scaled variables, predictor-corrector style (Mehrotra): an
affine probe sets the centering weight sigma = (1 - its step)^3 and
contributes its second-order term to the corrector.  The Newton system
reduces to (dz, dtau), with dz a least-squares solution in W^-1 H taken
from its QR factors; steps obey a 0.99 fraction-to-boundary rule.  The
loop stops on the residual and gap tests of `_hsd`, or once a step fails
to shrink mu and the residuals as rounding takes over.  The last good
iterate then goes to an active-set Newton polish, and is reported
optimal only when its residuals certify it.

Target problems have at most ~10 variables, so everything is dense, and
identical inputs produce identical iterates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SocBlock",
    "ConeProgram",
    "SocpResult",
    "solve_socp",
    "residuals",
    "dump_program",
]

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_MAX_ITERATIONS = "max_iterations"
STATUS_NUMERICAL_FAILURE = "numerical_failure"

_GAP_REL = 1e-12  # duality gap of a converged pair, relative to its objective
_BOUNDARY_FRACTION = 0.99
_SIGMA_MIN = 1e-9
_SIGMA_MAX = 0.99


@dataclass(frozen=True)
class SocBlock:
    """One cone constraint ||A @ z + b|| <= d @ z + e.

    A pure linear inequality d @ z + e >= 0 is a block whose A has zero
    rows (shape (0, n)).
    """

    A: np.ndarray
    b: np.ndarray
    d: np.ndarray
    e: float

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        if A.ndim != 2:
            raise ValueError(f"A must be a matrix, got ndim {A.ndim}")
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        d = np.atleast_1d(np.asarray(self.d, dtype=float))
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "e", float(self.e))
        if A.shape[0] != b.shape[0]:
            raise ValueError(f"row mismatch: A has {A.shape[0]}, b has {b.shape[0]}")
        if A.shape[1] != d.shape[0]:
            raise ValueError(f"column mismatch: A has {A.shape[1]}, d has {d.shape[0]}")


@dataclass(frozen=True)
class ConeProgram:
    """minimize c @ z over the intersection of SocBlock constraints."""

    c: np.ndarray
    blocks: tuple
    n_vars: int

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if c.shape[0] != self.n_vars:
            raise ValueError(f"cost has {c.shape[0]} entries for {self.n_vars} variables")
        if not self.blocks:
            raise ValueError("need at least one cone block")
        for i, blk in enumerate(self.blocks):
            if blk.A.shape[1] != self.n_vars:
                raise ValueError(
                    f"block {i} is dimensioned for {blk.A.shape[1]} variables, "
                    f"expected {self.n_vars}")


@dataclass(frozen=True)
class SocpResult:
    """Solver outcome; z/objective are meaningful only when status is optimal."""

    z: np.ndarray
    objective: float
    status: str
    iterations: int
    primal_residual: float
    dual_residual: float = math.nan
    gap: float = math.nan


def residuals(prog: ConeProgram, z) -> tuple[float, float]:
    """(max constraint violation)_+ and objective value at z."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    worst = 0.0
    for blk in prog.blocks:
        gap = float(np.linalg.norm(blk.A @ z + blk.b)) - (float(blk.d @ z) + blk.e)
        worst = max(worst, gap)
    return worst, float(prog.c @ z)


def _fmt_vec(v: np.ndarray) -> str:
    return "[" + ",".join(repr(float(x)) for x in v) + "]"


def _fmt_mat(A: np.ndarray) -> str:
    return "[" + ";".join(_fmt_vec(row) for row in A) + "]"


def dump_program(prog: ConeProgram) -> str:
    """Plain-text listing, one cone block per line; floats round-trip via repr."""
    lines = [f"socp n_vars={prog.n_vars} c={_fmt_vec(prog.c)}"]
    for i, blk in enumerate(prog.blocks):
        lines.append(
            f"block {i}: A={_fmt_mat(blk.A)} b={_fmt_vec(blk.b)} "
            f"d={_fmt_vec(blk.d)} e={blk.e!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Jordan-algebra helpers for a stack of second-order cones, each block's head
# component first; one call serves every block.

class _Cones:
    """Row layout of the blocks' stacked slacks: where each block starts,
    the block of each row, and J = diag(1, -I) per block as a sign vector."""

    def __init__(self, dims):
        self.starts = np.concatenate([[0], np.cumsum(dims)[:-1]])
        self.rows = np.repeat(np.arange(len(dims)), dims)
        self.J = -np.ones(int(np.sum(dims)))
        self.J[self.starts] = 1.0

    def sum(self, x):
        # per-block sums along the first axis
        return np.add.reduceat(x, self.starts, axis=0)

    def jdot(self, x, z):
        # x' J z per block
        return 2.0 * x[self.starts] * z[self.starts] - self.sum(x * z)

    def interior(self, x) -> bool:
        """Strict interiority of every block in the numerically usable sense."""
        return bool((x[self.starts] > 0.0).all() and (self.jdot(x, x) > 0.0).all())

    def jprod(self, x, v):
        # Jordan product (x' v, x0 vbar + v0 xbar) per block
        out = x[self.starts][self.rows] * v + v[self.starts][self.rows] * x
        out[self.starts] = self.sum(x * v)
        return out

    def arrow_solve(self, x, r):
        # solve [[x0, xbar'], [xbar, x0 I]] y = r per block; nonsingular for
        # interior x
        y0 = self.jdot(x, r) / self.jdot(x, x)
        out = (r - y0[self.rows] * x) / x[self.starts][self.rows]
        out[self.starts] = y0
        return out

    def step_to_boundary(self, x, dx) -> float:
        """sup of steps t with x + t*dx still interior to every cone; x and
        dx may hold several stacked vectors as columns."""
        # x + t dx leaves the cone where q(t) = q2 t^2 + 2 q1 t + q0, its
        # J-quadratic, first reaches 0 (q0 > 0: x is interior).  The
        # smaller positive root, written without cancellation, is
        # q0 / (sqrt(disc) - q1) for q1 < 0 and -(q1 + sqrt(disc)) / q2 else
        q0, q1, q2 = self.jdot(x, x), self.jdot(x, dx), self.jdot(dx, dx)
        disc = q1 * q1 - q2 * q0
        sq = np.sqrt(np.maximum(disc, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            roots = np.where(q1 < 0.0, q0 / (sq - q1), -(q1 + sq) / q2)
        return float(np.min(roots, where=(roots > 0.0) & (disc >= 0.0), initial=math.inf))

    def nt_scaling(self, s, y):
        """Scaling W with W @ y = W^-1 @ s = lam per block; returns
        (eta, jw, lam), with W^-1 = (2 jw jw' - J) / eta (see `winv`), or
        None once a block leaves the interior."""
        rs, ry = self.jdot(s, s), self.jdot(y, y)
        if not ((s[self.starts] > 0.0).all() and (y[self.starts] > 0.0).all()
                and (rs > 0.0).all() and (ry > 0.0).all()):
            return None
        rs, ry = np.sqrt(rs), np.sqrt(ry)
        sb, yb = s / rs[self.rows], y / ry[self.rows]
        # plain inner product; positive for interior points, but roundoff near
        # the boundary can push it past -1 once the normalizers are tiny
        gsq = (1.0 + self.sum(sb * yb)) / 2.0
        if not np.all((gsq > 0.0) & np.isfinite(gsq)):
            return None
        v = (sb + self.J * yb) / (2.0 * np.sqrt(gsq))[self.rows]  # v' J v = 1
        eta = np.sqrt(rs / ry)
        w0 = np.sqrt((v[self.starts] + 1.0) / 2.0)  # w, the Jordan square root of v
        w = v / (2.0 * w0)[self.rows]
        w[self.starts] = w0
        lam = eta[self.rows] * (2.0 * self.sum(w * y)[self.rows] * w - self.J * y)
        return eta, self.J * w, lam

    def winv(self, scal, x):
        # W^-1 @ x, x a stacked vector or a matrix of stacked columns
        col = (slice(None),) + (None,) * (x.ndim - 1)
        eta, jw = scal[0][self.rows][col], scal[1][col]
        return (2.0 * jw * self.sum(jw * x)[self.rows] - self.J[col] * x) / eta


def _active_polish(prog: ConeProgram, z: np.ndarray, tol: float, nu0):
    """Newton polish of z on the active constraints taken as equalities.

    A path-following iterate can park O(sqrt(mu)) from the optimum in
    tangential modes of active cone boundaries, which none of the residuals
    see. With the active set read off the iterate, Newton on the KKT system
    of  min c'z  s.t.  d_j'z + e_j = ||A_j z + b_j||  (j active)  lands at
    machine precision in two or three steps.  With more active constraints
    than variables (a feasible set pinched to a point) the KKT matrix is
    singular, and each step is its least-squares one.  The polished point
    is kept only when it passes feasibility, multiplier-sign,
    complementarity and stationarity checks, which on a convex program
    make it a KKT point, so a wrong active-set guess falls back to the
    iterate unchanged.  (Its objective is not
    compared with the iterate's: the iterate need not be feasible, and
    can sit below the optimum.)
    """
    n = prog.n_vars
    zn = float(np.linalg.norm(z))
    tiny = 1e-14 * (1.0 + zn)
    active = []
    for j, blk in enumerate(prog.blocks):
        margin = (float(blk.d @ z) + blk.e
                  - float(np.linalg.norm(blk.A @ z + blk.b)))
        scale = 1.0 + abs(blk.e) + float(np.linalg.norm(blk.b)) + zn
        if margin <= math.sqrt(tol) * scale:
            active.append(j)
    k = len(active)
    if k == 0:
        return None
    zc = z.copy()
    nu = np.array([max(0.0, nu0[j]) for j in active])
    for _ in range(3):
        grads = np.zeros((n, k))
        curv = np.zeros((n, n))
        phi = np.zeros(k)
        for i, j in enumerate(active):
            blk = prog.blocks[j]
            v = blk.A @ zc + blk.b
            nv = float(np.linalg.norm(v))
            if nv <= tiny:
                grads[:, i] = blk.d
            else:
                av = blk.A.T @ (v / nv)
                grads[:, i] = blk.d - av
                curv += nu[i] * (blk.A.T @ blk.A - np.outer(av, av)) / nv
            phi[i] = float(blk.d @ zc) + blk.e - nv
        kkt = np.zeros((n + k, n + k))
        kkt[:n, :n] = curv
        kkt[:n, n:] = -grads
        kkt[n:, :n] = grads.T
        rhs = np.concatenate([grads @ nu - prog.c, -phi])
        step = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
        if not np.all(np.isfinite(step)):
            return None
        zc = zc + step[:n]
        nu = nu + step[n:]
    if nu.size and float(np.min(nu)) < -1e-9 * (1.0 + float(np.max(np.abs(nu)))):
        return None
    viol, _ = residuals(prog, zc)
    if viol > tol * (1.0 + zn):
        return None
    stat = prog.c.copy()
    gap = 0.0  # s_j @ y_j = nu_j * phi_j, whose sum must vanish
    duals = [np.zeros(blk.A.shape[0] + 1) for blk in prog.blocks]
    for i, j in enumerate(active):
        blk = prog.blocks[j]
        v = blk.A @ zc + blk.b
        nv = float(np.linalg.norm(v))
        gap += nu[i] * (float(blk.d @ zc) + blk.e - nv)
        duals[j][0] = nu[i]
        if nv <= tiny:
            stat -= nu[i] * blk.d
        else:
            stat -= nu[i] * (blk.d - blk.A.T @ (v / nv))
            duals[j][1:] = -nu[i] * v / nv
    c_scale = max(1.0, float(np.max(np.abs(prog.c))))
    if float(np.max(np.abs(stat))) > 1e-10 * c_scale or abs(gap) > tol * c_scale * (1.0 + zn):
        return None
    return zc, duals


def _stacked(prog: ConeProgram):
    """Every block's slack s_i = H_i @ z + k_i stacked: (H, k, cones)."""
    H = np.vstack([np.vstack([blk.d[None, :], blk.A]) for blk in prog.blocks])
    k = np.concatenate([np.concatenate([[blk.e], blk.b]) for blk in prog.blocks])
    return H, k, _Cones([blk.A.shape[0] + 1 for blk in prog.blocks])


def _hsd(prog: ConeProgram, tol: float, max_iter: int):
    """Path following on the self-dual embedding from its central point.

    Returns (outcome, z, y, iterations), y stacked as `_stacked` stacks the
    slacks.  Outcome "optimal": the residuals are within tol of their
    scales and the gap within _GAP_REL of the objective, with (z, y) the
    pair scaled back by tau.  "infeasible": y is a Farkas certificate,
    |H' y| <= tol * (-k @ y), so no z with ||z||_1 < 1/tol meets the
    cones (y @ (H z + k) < 0 for each).
    "unbounded": z is a ray of falling cost, |H z - s| <= tol * (-c @ z)
    with s in the cones.  Else "max_iterations" or "stalled" (no interior
    step or scaling left, or a step that shrank neither mu nor the
    residuals) with the last good iterate scaled back.
    """
    H, k, cones = _stacked(prog)
    c = prog.c
    nb = len(prog.blocks)
    heads = (cones.J > 0.0).astype(float)  # the identity e of every cone
    x = np.zeros(c.size)
    s, y = heads.copy(), heads.copy()
    tau = kappa = 1.0
    k_scale = 1.0 + float(np.max(np.abs(k)))
    c_scale = 1.0 + float(np.max(np.abs(c)))
    outcome = "max_iterations"
    last = None
    it = 0
    for it in range(max_iter):
        hy = H.T @ y
        rd = c * tau - hy
        rp = H @ x + k * tau - s
        cx, ky, sy = float(c @ x), float(k @ y), float(s @ y)
        rg = -cx - ky - kappa
        mu = (sy + tau * kappa) / (nb + 1)
        rp_max, rd_max = float(np.max(np.abs(rp))), float(np.max(np.abs(rd)))
        # in exact arithmetic every step shrinks mu and the residuals; once
        # rounding in the direction undoes that, the path can go no further
        # and the iterate before that step is the last good one
        merit = mu + rp_max / k_scale + rd_max / c_scale
        if last is not None and merit >= last[0]:
            _, x, y, tau = last
            outcome = "stalled"
            break
        last = (merit, x, y, tau)
        if (rp_max <= tol * k_scale * tau and rd_max <= tol * c_scale * tau
                and sy <= _GAP_REL * tau * (tau + abs(cx))):
            outcome = "optimal"
            break
        if ky < 0.0 and float(np.max(np.abs(hy))) <= -tol * ky:
            return "infeasible", x, y, it
        if cx < 0.0 and float(np.max(np.abs(H @ x - s))) <= -tol * cx:
            return "unbounded", x, y, it

        scal = cones.nt_scaling(s, y)
        if scal is None:
            outcome = "stalled"
            break
        # In scaled variables dyt = W dy the Newton system is
        #   c dtau - B' dyt = -red rd,   B dz + g dtau + dyt = t,
        #   -c' dz - g' dyt + (kappa / tau) dtau = t_tk / tau - red rg,
        # with B = W^-1 H and g = W^-1 k.  dz solves a least-squares problem
        # in B, taken from the QR factors of B: the normal matrix B' B
        # squares a condition number that grows like 1/mu, and would stop
        # the path many decades short.
        Bg = cones.winv(scal, np.column_stack([H, k]))
        B, g = Bg[:, :-1], Bg[:, -1]
        wrp = cones.winv(scal, rp)
        Q, R = np.linalg.qr(B)
        try:
            Rinv = np.linalg.inv(R)
        except np.linalg.LinAlgError:
            outcome = "stalled"
            break
        # dz = R^-1 (Q' t - R^-T red rd) - dtau x2.  dtau and dyt are summed
        # from the parts of t and g off the range of B, as their difference
        # with the parts on it cancels near the end; so is the pivot of dtau
        Qg = Q.T @ g
        gp = g - Q @ Qg
        rc = Rinv.T @ c
        x2 = Rinv @ (Qg + rc)
        den = kappa / tau + float(gp @ gp) + float(rc @ rc)

        def direction(v, t_tk, red):
            # Newton step that takes each linear residual down by the factor
            # 1 - red, with W dy + W^-1 ds = v and kappa dtau + tau dkappa = t_tk
            t = v - red * wrp
            Qt = Q.T @ t
            rb = Rinv.T @ (red * rd)
            x1 = Rinv @ (Qt - rb)
            dtau = (float(gp @ t) + float(Qg @ rb) + float(c @ x1)
                    - red * rg + t_tk / tau) / den
            dx = x1 - dtau * x2
            dyt = t - Q @ (Qt - rb - dtau * rc) - dtau * gp
            ds = H @ dx + k * dtau + red * rp
            return dx, ds, cones.winv(scal, dyt), dtau, (t_tk - kappa * dtau) / tau

        def max_step(ds, dy, dtau, dkappa):
            best = cones.step_to_boundary(np.stack([s, y], 1), np.stack([ds, dy], 1))
            for v, dv in ((tau, dtau), (kappa, dkappa)):
                if dv < 0.0:
                    best = min(best, -v / dv)
            return best

        # affine probe: full Newton step on s o y = 0 sets the centering
        lam = scal[2]
        _, ds_a, dy_a, dtau_a, dkappa_a = aff = direction(-lam, -tau * kappa, 1.0)
        if not (np.all(np.isfinite(aff[0])) and math.isfinite(dtau_a)):
            outcome = "stalled"
            break
        sigma = (1.0 - min(1.0, max_step(*aff[1:]))) ** 3
        sigma = min(_SIGMA_MAX, max(_SIGMA_MIN, sigma))

        # corrector: recenters to sigma*mu and absorbs the probe's
        # second-order term dstilde o dytilde
        dst = cones.winv(scal, ds_a)
        resid = sigma * mu * heads - cones.jprod(lam, lam) - cones.jprod(dst, -lam - dst)
        dx, ds, dy, dtau, dkappa = step = direction(
            cones.arrow_solve(lam, resid), sigma * mu - tau * kappa - dtau_a * dkappa_a,
            1.0 - sigma)
        alpha = min(1.0, _BOUNDARY_FRACTION * max_step(*step[1:]))
        # the boundary step comes from a cancellation-prone quadratic, so
        # near the boundary it can overshoot: backtrack to a strictly
        # interior point
        while alpha > 1e-13:
            s_new, y_new = s + alpha * ds, y + alpha * dy
            tau_new, kappa_new = tau + alpha * dtau, kappa + alpha * dkappa
            if (tau_new > 0.0 and kappa_new > 0.0
                    and cones.interior(s_new) and cones.interior(y_new)):
                break
            alpha *= 0.5
        if not alpha > 1e-13:
            outcome = "stalled"
            break
        x = x + alpha * dx
        s, y, tau, kappa = s_new, y_new, tau_new, kappa_new
    else:
        it = max_iter
    return outcome, x / tau, y / tau, it


def solve_socp(prog: ConeProgram, tol: float = 1e-8, max_iter: int = 100) -> SocpResult:
    """Solve a ConeProgram from the self-dual embedding's central point.

    The optimum is polished well past tol when the path permits, so
    downstream consumers can compare optimizers at tolerances tighter
    than tol.  STATUS_INFEASIBLE (z NaN) comes with a Farkas certificate
    that no z with ||z||_1 < 1/tol meets the cones, so a program
    feasible only at that size reads infeasible too.  An unbounded
    program, which no status names, ends STATUS_NUMERICAL_FAILURE with z
    NaN.
    """
    if tol <= 0.0 or max_iter < 1:
        raise ValueError("tol must be positive and max_iter at least 1")
    outcome, z, y, iterations = _hsd(prog, tol, max_iter)
    if outcome in ("infeasible", "unbounded"):
        status = STATUS_INFEASIBLE if outcome == "infeasible" else STATUS_NUMERICAL_FAILURE
        return SocpResult(z=np.full(prog.n_vars, math.nan), objective=math.nan,
                          status=status, iterations=iterations, primal_residual=math.inf)
    H, k, cones = _stacked(prog)
    polished = _active_polish(prog, z, tol, y[cones.starts])
    if polished is not None:
        z, y = polished[0], np.concatenate(polished[1])
    viol, obj = residuals(prog, z)
    gap = float((H @ z + k) @ y)
    rd_norm = float(np.max(np.abs(prog.c - H.T @ y)))
    c_scale = max(1.0, float(np.max(np.abs(prog.c))))
    if outcome == "optimal" or (viol <= tol and rd_norm <= 10.0 * tol * c_scale
                                and gap <= 10.0 * tol * c_scale * len(prog.blocks)):
        # or stopped short of the path's targets but already certifiably
        # accurate: duality gap and stationarity within an order of tol
        status = STATUS_OPTIMAL
    elif outcome == "max_iterations":
        status = STATUS_MAX_ITERATIONS
    else:
        status = STATUS_NUMERICAL_FAILURE
    return SocpResult(z=z, objective=obj, status=status, iterations=iterations,
                      primal_residual=viol, dual_residual=rd_norm, gap=gap)
