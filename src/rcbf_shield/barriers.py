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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
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
        f: Drift field, maps state (n,) to an (n,) array.
        g: Input matrix, maps state (n,) to an (n, m) array.
        n: State dimension.
        m: Input dimension.

    The finite-difference stencils and the RK4 stages pass work arrays
    that are overwritten after the call, so f and g must not keep their
    argument.
    """

    f: Callable[[np.ndarray], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray]
    n: int
    m: int


def linear_class_k(gamma: float = 1.0) -> Callable[[float], float]:
    """Linear decrease-rate margin eta(h) = gamma * h, gamma > 0."""
    if gamma <= 0.0:
        raise ValueError(f"decrease rate must be positive, got {gamma}")
    return lambda h: gamma * h


def pole_gains(p1: float, p2: float) -> tuple[float, float]:
    """Gains (k0, k1) placing the (h, hdot) error poles at p1 and p2.

    Both poles must lie in the open left half plane; the returned pair
    satisfies s^2 + k1*s + k0 = (s - p1)(s - p2).
    """
    if p1 >= 0.0 or p2 >= 0.0:
        raise ValueError(f"poles must be negative, got ({p1}, {p2})")
    return p1 * p2, -(p1 + p2)


@dataclass(frozen=True)
class Barrier:
    """Safety certificate h with the data needed to build its constraint.

    Attributes:
        h: Barrier value, maps state (n,) to a scalar; safe when >= 0.
        degree: Relative degree of h along the dynamics, 1 or 2.
        grad: Optional analytic gradient (n,); finite differences otherwise.
        class_k: Decrease-rate function for degree 1 (default gamma = 1).
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


def _numeric_gradient(func: Callable[[np.ndarray], float], x: np.ndarray) -> np.ndarray:
    """Central differences (func(x + eps e_i) - func(x - eps e_i)) / (2 eps)
    with eps = 1e-6 * (1 + ||x||), ||x|| = sqrt(x.dot(x)) as np.linalg.norm
    takes it.

    The points are two work arrays moved one coordinate at a time and put
    back after each call, which func must not keep.  They start from
    x + 0.0 and x: adding the zero step turns -0.0 into +0.0 on the other
    coordinates, subtracting it keeps -0.0.
    """
    plus, minus = x + 0.0, x.copy()
    eps = 1e-6 * (1.0 + math.sqrt(minus.dot(minus)))
    out = np.empty(x.size)
    for i, xi in enumerate(x.tolist()):
        plus[i], minus[i] = xi + eps, xi - eps
        out[i] = (func(plus) - func(minus)) / (2.0 * eps)
        plus[i], minus[i] = xi + 0.0, xi
    return out


def gradient(barrier: Barrier, x) -> np.ndarray:
    """Gradient of h at x, analytic if available."""
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
    h: float


def barrier_terms(barrier: Barrier, dyn: Dynamics,
                  uncertainty: NormalizedUncertainty, x, values: bool = False):
    """Constraint data (p, a) of p + a @ (u + w) >= 0 at the state x.

    With values=True the result is (p, a, StateValues), so a caller that
    needs f, g, grad h or h at the same x evaluates none of them again.
    """
    x = np.asarray(x, dtype=float)
    # ndarray.dot runs the BLAS kernels of @ at half the dispatch cost, with
    # the same bits on the vehicle's 5-vectors and (5, 1) input matrix, but
    # not on every input: on one-element vectors holding a signed zero,
    # [33.8].dot([-0.0]) is -0.0 where @ gives +0.0 (numpy 2.4.6)
    fx, gx, hx = dyn.f(x), dyn.g(x), barrier.h(x)
    grad = gradient(barrier, x)
    if barrier.degree == 1:
        eta = barrier.class_k if barrier.class_k is not None else linear_class_k()
        p = float(grad.dot(fx)) + float(eta(hx))
        a = uncertainty.scale * grad.dot(gx)
    else:
        # degree 2: differentiate psi = grad_h @ f by central differences
        # (its analytic gradient would need the Hessian of h, which callers
        # are not asked to supply)
        f, grad_h = dyn.f, barrier.grad
        if grad_h is None:
            grad_h = partial(_numeric_gradient, barrier.h)

        def psi(y):
            return float(np.asarray(grad_h(y), dtype=float).dot(f(y)))

        grad_psi = _numeric_gradient(psi, x)
        k0, k1 = barrier.gains
        p = float(grad_psi.dot(fx)) + k1 * float(grad.dot(fx)) + k0 * float(hx)
        a = uncertainty.scale * grad_psi.dot(gx)
    a = np.array(a, dtype=float, ndmin=1, copy=None)
    if values:
        return p, a, StateValues(fx, gx, grad, hx)
    return p, a
