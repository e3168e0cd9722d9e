"""Barrier constraint assembly for relative degree 1 and 2."""

import math
from dataclasses import replace

import numpy as np
import pytest

from rcbf_shield.barriers import (
    Barrier,
    Dynamics,
    barrier_terms,
    gradient,
    input_direction_defect,
    linear_class_k,
    pole_gains,
)
from rcbf_shield.sectors import NormalizedUncertainty
from rcbf_shield.vehicle import lateral_dynamics, obstacle_barrier


def test_pole_gains_frozen():
    assert pole_gains(-30.0, -30.0) == (900.0, 60.0)
    k0, k1 = pole_gains(-2.0, -5.0)
    assert (k0, k1) == (10.0, 7.0)


def test_pole_gains_reject_unstable():
    for poles in ((0.0, -1.0), (-1.0, 2.0), (math.nan, -30.0), (-30.0, -math.inf)):
        with pytest.raises(ValueError, match="poles must be negative"):
            pole_gains(*poles)


def test_class_k_positive_rate_only():
    eta = linear_class_k(2.5)
    assert eta(3.0) == pytest.approx(7.5)
    for gamma in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="decrease rate must be positive"):
            linear_class_k(gamma)


def _double_integrator():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0], [1.0]])
    return Dynamics(f=lambda x: np.matmul(A, x[..., None])[..., 0],
                    g=lambda x: np.broadcast_to(B, x.shape[:-1] + B.shape), n=2, m=1)


def test_degree_one_terms_affine_fixture():
    # h = 1 - x0, grad = (-1, 0): p = -x1 + gamma*(1 - x0), a = 0 identically
    dyn = _double_integrator()
    bar = Barrier(h=lambda x: 1.0 - x[..., 0], degree=1,
                  grad=lambda x: np.broadcast_to([-1.0, 0.0], x.shape),
                  class_k=linear_class_k(2.0))
    unc = NormalizedUncertainty(theta=0.3, scale=1.5)
    x = np.array([0.25, -0.5])
    p, a = barrier_terms(bar, dyn, unc, x)
    assert p == pytest.approx(0.5 + 2.0 * 0.75)
    assert a == pytest.approx([0.0])


def test_degree_one_velocity_barrier():
    # h = 1 - x1 sees the input directly: a = -scale
    dyn = _double_integrator()
    bar = Barrier(h=lambda x: 1.0 - x[..., 1], degree=1,
                  grad=lambda x: np.broadcast_to([0.0, -1.0], x.shape))
    unc = NormalizedUncertainty(theta=0.0, scale=2.0)
    p, a = barrier_terms(bar, dyn, unc, np.array([0.0, 0.4]))
    assert a == pytest.approx([-2.0])
    assert p == pytest.approx(0.6)  # default class-K, gamma = 1


def test_numeric_gradient_matches_analytic():
    bar_fd = Barrier(h=lambda x: x[..., 0] ** 2 - 3.0 * x[..., 1], degree=1)
    x = np.array([1.3, -0.7])
    g = gradient(bar_fd, x)
    assert g == pytest.approx([2.6, -3.0], rel=1e-6)


def test_input_direction_defect():
    dyn = _double_integrator()
    bar = Barrier(h=lambda x: 1.0 - x[..., 0], degree=1,
                  grad=lambda x: np.broadcast_to([-1.0, 0.0], x.shape))
    assert input_direction_defect(bar, dyn, np.zeros(2)) == pytest.approx(0.0, abs=1e-12)


def test_degree_two_terms_double_integrator():
    # h = 1 - x0 has degree 2; psi = -x1, so p = -u-free drift + gains and
    # a = -scale exactly
    dyn = _double_integrator()
    bar = Barrier(h=lambda x: 1.0 - x[..., 0], degree=2,
                  grad=lambda x: np.broadcast_to([-1.0, 0.0], x.shape),
                  gains=pole_gains(-1.0, -2.0))
    unc = NormalizedUncertainty(theta=0.2, scale=1.0)
    x = np.array([0.5, 0.25])
    p, a = barrier_terms(bar, dyn, unc, x)
    k0, k1 = bar.gains
    # L_f^2 h = 0 for this model, psi = -0.25, h = 0.5
    assert p == pytest.approx(k1 * -0.25 + k0 * 0.5, rel=1e-6)
    assert a == pytest.approx([-1.0], rel=1e-6)


def test_degree_two_requires_gains():
    with pytest.raises(ValueError):
        Barrier(h=lambda x: x[..., 0], degree=2)
    with pytest.raises(ValueError):
        Barrier(h=lambda x: x[..., 0], degree=3)


def test_input_scale_enters_linearly():
    dyn = _double_integrator()
    bar = Barrier(h=lambda x: 1.0 - x[..., 1], degree=1,
                  grad=lambda x: np.broadcast_to([0.0, -1.0], x.shape))
    x = np.array([0.1, 0.2])
    _, a1 = barrier_terms(bar, dyn, NormalizedUncertainty(0.0, 1.0), x)
    _, a3 = barrier_terms(bar, dyn, NormalizedUncertainty(0.0, 3.0), x)
    assert a3 == pytest.approx(3.0 * a1)


def _nested_terms(barrier, dyn, unc, x):
    """Degree-2 (p, a) by nested central differences that build every
    point as x + step or x - step from a fresh step vector, and evaluate
    f(x) once per use."""
    def numeric_gradient(func, y):
        eps = 1e-6 * (1.0 + float(np.linalg.norm(y)))
        out = np.empty(y.size)
        for i in range(y.size):
            step = np.zeros(y.size)
            step[i] = eps
            out[i] = (func(y + step) - func(y - step)) / (2.0 * eps)
        return out

    def grad_h(y):
        if barrier.grad is not None:
            return np.asarray(barrier.grad(y), dtype=float)
        return numeric_gradient(barrier.h, y)

    psi = lambda y: float(grad_h(y) @ dyn.f(y))
    grad_psi = numeric_gradient(psi, x)
    k0, k1 = barrier.gains
    p = float(grad_psi @ dyn.f(x)) + k1 * psi(x) + k0 * float(barrier.h(x))
    a = unc.scale * (grad_psi @ dyn.g(x))
    return p, np.atleast_1d(np.asarray(a, dtype=float))


def _states_with_signed_zeros(rng, scale, count):
    out = []
    for _ in range(count):
        x = rng.normal(size=scale.size) * scale
        for i in np.flatnonzero(rng.random(scale.size) < 0.4):
            x[i] = rng.choice([0.0, -0.0])
        out.append(x)
    return out


def _assert_same_terms(got, want):
    assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
    assert got[1].dtype == want[1].dtype and got[1].tobytes() == want[1].tobytes()


def test_degree_two_stencil_is_bit_exact_on_the_vehicle():
    dyn, bar = lateral_dynamics(), obstacle_barrier()
    unc = NormalizedUncertainty(theta=0.5, scale=1.3)
    rng = np.random.default_rng(7)
    states = _states_with_signed_zeros(rng, np.array([3.0, 2.0, 0.2, 0.5, 25.0]), 40)
    states.append(np.array([-0.0, -0.0, 0.0, -0.0, -0.0]))
    for x in states:
        _assert_same_terms(barrier_terms(bar, dyn, unc, x), _nested_terms(bar, dyn, unc, x))
    # without grad both levels of the stencil are finite differences
    bar_fd = replace(bar, grad=None)
    for x in states[:10]:
        _assert_same_terms(barrier_terms(bar_fd, dyn, unc, x),
                           _nested_terms(bar_fd, dyn, unc, x))


def test_degree_two_stencil_is_bit_exact_on_a_non_quadratic_barrier():
    # positions (x0, x1) driven through velocities (x2, x3); h has no grad,
    # so psi itself is a finite difference.  The atan2 term sees the sign of
    # a zero x1, so the test also pins which stencil points carry -0.0.
    B = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    dyn = Dynamics(f=lambda x: np.stack([x[..., 2], x[..., 3], -np.sin(x[..., 0]),
                                         -0.3 * x[..., 3] * abs(x[..., 3])], axis=-1),
                   g=lambda x: np.broadcast_to(B, x.shape[:-1] + B.shape), n=4, m=2)
    bar = Barrier(h=lambda x: (2.0 - x[..., 0] ** 4 - np.cosh(x[..., 1])
                               + 0.01 * np.arctan2(x[..., 1], x[..., 0] - 3.0)),
                  degree=2, gains=pole_gains(-2.0, -3.0))
    unc = NormalizedUncertainty(theta=0.2, scale=0.8)
    rng = np.random.default_rng(11)
    for x in _states_with_signed_zeros(rng, np.array([1.0, 1.0, 2.0, 2.0]), 40):
        _assert_same_terms(barrier_terms(bar, dyn, unc, x), _nested_terms(bar, dyn, unc, x))
