"""Barrier functions and the constraint terms they induce.

A barrier h defines the safe set {x : h(x) >= 0}.  For input-affine
dynamics xdot = f(x) + g(x) v with the recentered input v = scale*(u + w),
forward invariance is enforced through an affine condition on the input,

    p(x) + a(x) @ (u + w) >= 0,

where for a relative-degree-1 barrier

    p = grad_h @ f + eta(h),        a = scale * (grad_h @ g),

and for relative degree 2 (grad_h @ g identically zero on the region of
interest) the condition is pole-placed on the (h, hdot) error dynamics:

    p = L_f^2 h + k1 * L_f h + k0 * h,   a = scale * (grad(L_f h) @ g).

Gradients fall back to central finite differences when no analytic form
is supplied.

Every callable takes a stack of states, shape (..., n), and returns each
state's own value: f and grad h an (..., n) array, g an (..., n, m) array,
h an (..., ) array.  One state is the shape (n,).  A stencil has one
layout (`_stencil_stack`): x and its 2n points x +- eps e_i as one
(..., 2n + 1, n) stack, row 0 x itself.  The degree-2 term evaluates f
and grad h once, on that stack, so row 0 gives f(x), grad h(x) and
psi(x) = L_f h(x) with the bits of the one-state calls; the
finite-difference gradient evaluates h once on it, row 0 included.
A caller may pass a stack of states to `barrier_terms` itself.  Each
row of a stack gets the bits of the one-state product (`_matvec`,
`_rowdot`, `_vecmat`); one state keeps `ndarray.dot`, which costs a third
of a stacked `np.matmul`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Optional

import numpy as np

from .sectors import NormalizedUncertainty

__all__ = [
    "Dynamics",
    "Barrier",
    "linear_class_k",
    "pole_gains",
    "gradient",
    "StateValues",
    "barrier_terms",
    "input_direction_defect",
]


@dataclass(frozen=True)
class Dynamics:
    """Input-affine control system xdot = f(x) + g(x) v.

    Attributes:
        f: Drift field, maps states (..., n) to an (..., n) array.
        g: Input matrix, maps states (..., n) to an (..., n, m) array.
        n: State dimension.
        m: Input dimension.

    f and g take a stack of states and return each state's own value, bit
    for bit what they return for that state alone (`sim.simulate` checks
    this once per run).  The RK4 stages pass work arrays that are
    overwritten after the call, so f and g must not keep their argument.
    """

    f: Callable[[np.ndarray], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray]
    n: int
    m: int


def linear_class_k(gamma: float = 1.0) -> Callable[[float], float]:
    """Linear decrease-rate margin eta(h) = gamma * h, gamma > 0."""
    if not 0.0 < gamma < math.inf:
        raise ValueError(f"decrease rate must be positive, got {gamma}")
    return lambda h: gamma * h


def pole_gains(p1: float, p2: float) -> tuple[float, float]:
    """Gains (k0, k1) placing the (h, hdot) error poles at p1 and p2.

    Both poles must lie in the open left half plane; the returned pair
    satisfies s^2 + k1*s + k0 = (s - p1)(s - p2).
    """
    if not (-math.inf < p1 < 0.0 and -math.inf < p2 < 0.0):
        raise ValueError(f"poles must be negative, got ({p1}, {p2})")
    return p1 * p2, -(p1 + p2)


@dataclass(frozen=True)
class Barrier:
    """Safety certificate h with the data needed to build its constraint.

    Attributes:
        h: Barrier value, maps states (..., n) to an (...) array; safe
            when >= 0.
        degree: Relative degree of h along the dynamics, 1 or 2.
        grad: Optional analytic gradient, states (..., n) to (..., n);
            finite differences otherwise.
        class_k: Decrease-rate function for degree 1 (default gamma = 1),
            applied to an (...) array of h values.
        gains: (k0, k1) pole-placement gains, required for degree 2.
        radius: Optional obstacle radius, lets trajectory metrics report a
            distance alongside the raw barrier value.
    """

    h: Callable[[np.ndarray], float]
    degree: int = 1
    grad: Optional[Callable[[np.ndarray], np.ndarray]] = None
    class_k: Optional[Callable[[float], float]] = None
    gains: Optional[tuple[float, float]] = None
    radius: Optional[float] = None

    def __post_init__(self):
        if self.degree not in (1, 2):
            raise ValueError(f"relative degree must be 1 or 2, got {self.degree}")
        if self.degree == 2 and self.gains is None:
            raise ValueError("degree-2 barriers need pole-placement gains (k0, k1)")


# Products of a stack take np.matmul per row, which runs each row through
# the BLAS kernel of the one-state ndarray.dot: the same bits.  A sum of one
# term is the exception: dot returns the product itself, where matmul adds
# it to +0.0 and so loses the sign of a zero ([33.8].dot([-0.0]) is -0.0),
# so a stack takes the product too.

def _matvec(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A @ x for each row of the stack x (..., k), A (j, k) or (..., j, k)."""
    if x.ndim == 1:
        return A.dot(x)
    if x.shape[-1] == 1:
        return A[..., 0] * x
    return np.matmul(A, x[..., None])[..., 0]


def _rowdot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y for each row of the stacks x and y (..., k)."""
    if x.ndim == 1:
        return x.dot(y)
    if x.shape[-1] == 1:
        return (x * y)[..., 0]
    return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]


def _vecmat(x: np.ndarray, A: np.ndarray) -> np.ndarray:
    """x @ A for each row of the stack x (..., k), A (k, m) or (..., k, m)."""
    if x.ndim == 1:
        return x.dot(A)
    if x.shape[-1] == 1:
        return x * A[..., 0, :]
    return np.matmul(x[..., None, :], A)[..., 0, :]


@lru_cache(maxsize=None)
def _stencil(n: int) -> np.ndarray:
    """The rows of a stencil per unit eps: a row of zeros for x itself
    (`_stencil_stack` copies x there), the rows of I, then of -I (whose
    zeros are -0.0)."""
    eye = np.eye(n)
    out = np.concatenate((np.zeros((1, n)), eye, -eye))
    out.flags.writeable = False
    return out


def _stencil_stack(x: np.ndarray):
    """Each state of the stack x (..., n) and its 2n stencil points,
    x + eps e_i and then x + -eps e_i, as one (..., 2n + 1, n) stack led
    by x itself.  Also 2 eps, the width of the differences
    (`_differences`): eps = 1e-6 * (1 + ||x||) per state, ||x|| =
    sqrt(x @ x) as np.linalg.norm takes it, a float for one state
    (math.sqrt is the IEEE square root, as np.sqrt is).

    Adding +0.0 turns -0.0 into +0.0 on the other coordinates of the
    points x + eps e_i, and adding -0.0 keeps every zero's sign on the
    points x + -eps e_i, as subtracting +0.0 would; x is copied, so it
    keeps its own.
    """
    steps = _stencil(x.shape[-1])
    if x.ndim == 1:
        eps = 1e-6 * (1.0 + math.sqrt(x.dot(x)))
        stack, width = eps * steps, 2.0 * eps
    else:
        eps = 1e-6 * (1.0 + np.sqrt(_rowdot(x, x)))
        stack, width = eps[..., None, None] * steps, (2.0 * eps)[..., None]
    stack += x[..., None, :]
    stack[..., 0, :] = x
    return stack, width


def _differences(values: np.ndarray, width) -> np.ndarray:
    """(v(x + eps e_i) - v(x - eps e_i)) / (2 eps) from the values
    (..., 2n + 1) of v on a `_stencil_stack`, rows 1..2n, and its width."""
    n = values.shape[-1] // 2
    return (values[..., 1:n + 1] - values[..., n + 1:]) / width


def _numeric_gradient(func: Callable[[np.ndarray], np.ndarray], x: np.ndarray
                      ) -> np.ndarray:
    """Central differences of func at each state of the stack x (..., n),
    func evaluated once, on its (..., 2n + 1, n) `_stencil_stack` (row 0,
    x itself, is evaluated and not read)."""
    stack, width = _stencil_stack(x)
    return _differences(func(stack), width)


def gradient(barrier: Barrier, x) -> np.ndarray:
    """Gradient of h at each state of x (..., n), analytic if available."""
    x = np.asarray(x, dtype=float)
    if barrier.grad is not None:
        return np.asarray(barrier.grad(x), dtype=float)
    return _numeric_gradient(barrier.h, x)


def input_direction_defect(barrier: Barrier, dyn: Dynamics, x) -> float:
    """||grad_h @ g|| at x; must vanish for a degree-2 barrier to be valid."""
    x = np.asarray(x, dtype=float)
    return float(np.linalg.norm(gradient(barrier, x) @ dyn.g(x)))


class StateValues(NamedTuple):
    """What `barrier_terms` evaluated at x on its way to (p, a), as the
    callables returned it: f(x), g(x), grad h(x) (as `gradient` gives it)
    and h(x)."""

    f: np.ndarray
    g: np.ndarray
    grad: np.ndarray
    h: np.ndarray


def barrier_terms(barrier: Barrier, dyn: Dynamics,
                  uncertainty: NormalizedUncertainty, x, values: bool = False):
    """Constraint data (p, a) of p + a @ (u + w) >= 0 at each state of x.

    For x of shape (..., n), p has shape (...) and a (..., m); one state
    gives a float p (np.float64).  With values=True the result is
    (p, a, StateValues), so a caller that needs f, g, grad h or h at the
    same x evaluates none of them again.
    """
    x = np.asarray(x, dtype=float)
    gx, hx = dyn.g(x), barrier.h(x)
    if barrier.degree == 1:
        fx, grad = dyn.f(x), gradient(barrier, x)
        eta = barrier.class_k if barrier.class_k is not None else linear_class_k()
        p = _rowdot(grad, fx) + eta(hx)
        a = uncertainty.scale * _vecmat(grad, gx)
    else:
        # degree 2: differentiate psi = grad_h @ f by central differences
        # (its analytic gradient would need the Hessian of h, which callers
        # are not asked to supply).  f and grad h run once, on x and its
        # stencil as one stack, whose row 0, x itself, gives f(x), grad h(x)
        # and psi(x) = L_f h(x)
        stack, width = _stencil_stack(x)
        fs, grads = dyn.f(stack), gradient(barrier, stack)
        psi = _rowdot(grads, fs)
        fx, grad = fs[..., 0, :], grads[..., 0, :]
        grad_psi = _differences(psi, width)
        k0, k1 = barrier.gains
        p = _rowdot(grad_psi, fx) + k1 * psi[..., 0] + k0 * hx
        a = uncertainty.scale * _vecmat(grad_psi, gx)
    a = np.array(a, dtype=float, ndmin=1, copy=None)
    if values:
        return p, a, StateValues(fx, gx, grad, hx)
    return p, a
