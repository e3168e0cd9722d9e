"""Lateral vehicle study: linear single-track model, LQR baseline, circular
obstacle, and the initial state of the study.  The study's scenarios are
config values (`config.PRESETS`).

State ordering is (e, edot, psi, psidot, s): lateral offset to the lane
center, heading relative to the path, and longitudinal position, which
advances at the constant speed U and is not controlled.  The steering
input enters the edot and psidot rows only, so the obstacle barrier
h = e^2 + s^2 - d^2 has relative degree two.  The model, barrier and
controller take a stack of states (..., 5), as `barriers` asks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .barriers import Barrier, Dynamics, _matvec, _rowdot, pole_gains

__all__ = [
    "VehicleParams",
    "LQR_GAIN",
    "X0",
    "lateral_dynamics",
    "lqr_controller",
    "obstacle_barrier",
]


@dataclass(frozen=True)
class VehicleParams:
    """Single-track parameters; cornering stiffnesses are negative.

    Attributes:
        mass: Vehicle mass, kg.
        inertia_z: Yaw moment of inertia, kg m^2.
        dist_front: CG to front axle, m.
        dist_rear: CG to rear axle, m.
        speed: Constant longitudinal velocity, m/s.
        corner_front: Front cornering stiffness, N/rad (< 0).
        corner_rear: Rear cornering stiffness, N/rad (< 0).
    """

    mass: float = 1.67e3
    inertia_z: float = 2.1e3
    dist_front: float = 0.99
    dist_rear: float = 1.7
    speed: float = 28.0
    corner_front: float = -1.23e5
    corner_rear: float = -1.042e5

    def __post_init__(self):
        # written so that NaN and +-inf fail each test
        if not all(0.0 < v < math.inf for v in (self.mass, self.inertia_z, self.dist_front,
                                                self.dist_rear, self.speed)):
            raise ValueError("mass, inertia, axle distances and speed must be positive")
        if not (-math.inf < self.corner_front < 0.0 and -math.inf < self.corner_rear < 0.0):
            raise ValueError("cornering stiffnesses enter negative")


#: Baseline state-feedback gain on (e, edot, psi, psidot).
LQR_GAIN = np.array([1.41, 0.41, 3.30, 0.24])


def lateral_dynamics(params: VehicleParams | None = None) -> Dynamics:
    """5-state input-affine model; steering is the single input channel."""
    vp = params if params is not None else VehicleParams()
    m, iz = vp.mass, vp.inertia_z
    a, b, U = vp.dist_front, vp.dist_rear, vp.speed
    caf, car = vp.corner_front, vp.corner_rear
    A = np.zeros((5, 5))
    A[0, 1] = 1.0
    A[1, 1] = (caf + car) / (m * U)
    A[1, 2] = -(caf + car) / m
    A[1, 3] = (a * caf - b * car) / (m * U)
    A[2, 3] = 1.0
    A[3, 1] = (a * caf - b * car) / (iz * U)
    A[3, 2] = (a * caf - b * car) / iz
    A[3, 3] = (a * a * caf + b * b * car) / (iz * U)
    B = np.zeros((5, 1))
    B[1, 0] = -caf / m
    B[3, 0] = -a * caf / iz
    drift = np.zeros(5)
    drift[4] = U  # s advances uncontrolled

    def f(x):
        return _matvec(A, x) + drift

    @lru_cache(maxsize=None)
    def stacked_b(shape):
        return np.broadcast_to(B, shape + B.shape)

    def g(x):
        return B if x.ndim == 1 else stacked_b(x.shape[:-1])

    return Dynamics(f=f, g=g, n=5, m=1)


def lqr_controller(gain=None, reference=None):
    """Tracking feedback u0 = K @ (r - x[..., :4]) per state; defaults to K
    above, r = 0."""
    K = LQR_GAIN if gain is None else np.atleast_1d(np.asarray(gain, dtype=float))
    if K.shape != (4,):
        raise ValueError(f"gain acts on the first four states, got shape {K.shape}")
    if not np.isfinite(K).all():
        raise ValueError(f"gain must be finite, got {K.tolist()}")
    r = np.zeros(4) if reference is None else np.atleast_1d(
        np.asarray(reference, dtype=float))
    if r.shape != (4,):
        raise ValueError(f"reference has shape {r.shape}, expected (4,)")
    if not np.isfinite(r).all():
        raise ValueError(f"reference must be finite, got {r.tolist()}")
    return lambda x: _rowdot(r - x[..., :4], K)


def obstacle_barrier(d: float = 3.0, poles: tuple = (-30.0, -30.0)) -> Barrier:
    """Keep-out disk of radius d at the origin of the (s, e) plane.

    h = e^2 + s^2 - d^2 with analytic gradient; degree 2 along the lateral
    dynamics with gains placed at the given poles.
    """
    if not 0.0 < d < math.inf:
        raise ValueError(f"obstacle radius must be positive, got {d}")
    dsq = d * d

    def h(x):
        e, s = x[..., 0], x[..., 4]
        return e * e + s * s - dsq

    def grad(x):
        out = np.zeros(x.shape)
        out[..., 0], out[..., 4] = 2.0 * x[..., 0], 2.0 * x[..., 4]
        return out

    return Barrier(h=h, degree=2, grad=grad, gains=pole_gains(*poles), radius=d)


#: Initial state shared by all presets: offset 2 m, 20 m before the obstacle.
X0 = np.array([2.0, 0.0, 0.0, 0.0, -20.0])

