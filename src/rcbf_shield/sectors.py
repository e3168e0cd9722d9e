"""Sector-bounded input nonlinearities and their normalized form.

A memoryless map v = phi(u, t) lies in the sector [alpha, beta] when

    (v - alpha*u)^T (beta*u - v) >= 0   for all u, t,

and with 0 < alpha <= 1 <= beta the sector contains the nominal
feedthrough v = u.  Loop shifting recenters the sector around zero:

    v = scale * (u + w),   scale = (alpha + beta) / 2,

where the recentered uncertainty w obeys the norm bound
||w|| <= theta * ||u|| with theta = (beta - alpha) / (beta + alpha) < 1.

Given a constraint direction a (the input-side row of a linearized
safety condition), the admissible w that most decreases a @ (u + w) is
w* = -theta * ||u|| * a / ||a||, with Lagrange multiplier
lambda* = ||a|| / (2 * theta * ||u||).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DegenerateGradientError",
    "in_level_range",
    "SectorBound",
    "NormalizedUncertainty",
    "SectorNonlinearity",
    "identity",
    "saturation_in_sector",
    "time_varying_gain",
    "random_in_sector",
    "normalize_sector",
    "check_sector_qc",
    "apply_nonlinearity",
    "worst_case_input",
    "optimal_multiplier",
    "worst_case_oracle",
    "per_channel_worst_case",
]

#: Absolute tolerance for sector membership; absorbs round-off when v sits
#: exactly on a sector edge.
TOL_QC = 1e-9

NONLINEARITY_KINDS = ("identity", "saturation_in_sector", "time_varying_gain",
                      "random_in_sector")


class DegenerateGradientError(ValueError):
    """The constraint direction a(x) vanished; callers must branch."""


def in_level_range(theta) -> bool:
    """Whether the uncertainty level theta, or every level in an array of
    them, lies in [0, 1): a recentered sector has theta < 1 because its
    lower slope alpha is positive."""
    if isinstance(theta, float):
        return 0.0 <= theta < 1.0
    theta = np.asarray(theta, dtype=float)
    return bool(np.all((theta >= 0.0) & (theta < 1.0)))


@dataclass(frozen=True)
class SectorBound:
    """Sector [alpha, beta] containing the nominal slope 1.

    Attributes:
        alpha: Lower sector slope, 0 < alpha <= 1.
        beta: Upper sector slope, beta >= 1.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"lower sector slope must satisfy 0 < alpha <= 1, got {self.alpha}")
        if not (1.0 <= self.beta < math.inf):
            raise ValueError(f"upper sector slope must satisfy beta >= 1, got {self.beta}")


@dataclass(frozen=True)
class NormalizedUncertainty:
    """Recentered sector: input-additive uncertainty level and input gain.

    Attributes:
        theta: Uncertainty level, 0 <= theta < 1; ||w|| <= theta * ||u||.
        scale: Input-gain factor (alpha + beta) / 2 applied to g(x).
    """

    theta: float
    scale: float

    def __post_init__(self):
        if not in_level_range(self.theta):
            raise ValueError(f"uncertainty level must satisfy 0 <= theta < 1, got {self.theta}")
        if not (0.0 < self.scale < math.inf):
            raise ValueError(f"input gain must be positive, got {self.scale}")


@dataclass(frozen=True)
class SectorNonlinearity:
    """A concrete nonlinearity fixture guaranteed to stay in its sector.

    Instances are built through the factory functions `identity`,
    `saturation_in_sector`, `time_varying_gain`, and `random_in_sector`;
    `params` is kind-specific and `seed` only matters for the random kind.
    """

    kind: str
    params: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.kind not in NONLINEARITY_KINDS:
            raise ValueError(f"unknown nonlinearity kind {self.kind!r}")


def identity() -> SectorNonlinearity:
    """Nominal plant: v = u."""
    return SectorNonlinearity("identity")


def saturation_in_sector(level: float, input_range: float,
                         bound: SectorBound) -> SectorNonlinearity:
    """Per-channel saturation clip(u, -level, level).

    The achieved slope level/|u| must stay above bound.alpha over the
    scenario's input range, so `level >= alpha * input_range` is required;
    inputs beyond `input_range` are rejected at apply time.
    """
    if not (0.0 < level < math.inf and 0.0 < input_range < math.inf):
        raise ValueError("saturation level and input range must be positive")
    if level < bound.alpha * input_range:
        raise ValueError(
            f"saturation level {level} exits the sector: needs "
            f"level >= alpha * input_range = {bound.alpha * input_range}")
    return SectorNonlinearity("saturation_in_sector",
                              {"level": float(level),
                               "input_range": float(input_range)})


def time_varying_gain(freq: float, phase: float = 0.0) -> SectorNonlinearity:
    """Gain sweep v = g(t) * u with g(t) oscillating across the full sector."""
    if not (math.isfinite(freq) and math.isfinite(phase)):
        raise ValueError(f"gain frequency and phase must be finite, got {freq}, {phase}")
    return SectorNonlinearity("time_varying_gain",
                              {"freq": float(freq), "phase": float(phase)})


def random_in_sector(seed: int) -> SectorNonlinearity:
    """Per-channel v drawn uniformly on the segment [alpha*u, beta*u].

    Uses a counter-based generator keyed by `seed` and the time stamp, so
    repeated evaluation at the same (u, t) reproduces the same draw.
    """
    return SectorNonlinearity("random_in_sector", seed=int(seed))


def normalize_sector(bound: SectorBound) -> NormalizedUncertainty:
    """Map a sector [alpha, beta] to its recentered (theta, scale) form."""
    alpha, beta = bound.alpha, bound.beta
    return NormalizedUncertainty(theta=(beta - alpha) / (beta + alpha),
                                 scale=(alpha + beta) / 2.0)


def check_sector_qc(u, v, bound: SectorBound) -> bool:
    """Pointwise sector membership: (v - alpha*u)^T (beta*u - v) >= -TOL_QC."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValueError(f"input dimension mismatch: {u.shape} vs {v.shape}")
    qc = (v - bound.alpha * u) @ (bound.beta * u - v)
    return bool(qc >= -TOL_QC)


def _philox_uniform(seed: int, t: float, n: int) -> np.ndarray:
    # counter = bit pattern of t, so draws depend only on (seed, t)
    counter = np.float64(t).view(np.uint64)
    bitgen = np.random.Philox(counter=[int(counter), 0, 0, 0], key=[seed, 0])
    return np.random.Generator(bitgen).random(n)


def apply_nonlinearity(nl: SectorNonlinearity, bound: SectorBound, u,
                       t: float = 0.0) -> np.ndarray:
    """Evaluate a nonlinearity fixture; the result always passes the QC."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    alpha, beta = bound.alpha, bound.beta
    if nl.kind == "identity":
        return u.copy()
    if nl.kind == "saturation_in_sector":
        level = nl.params["level"]
        input_range = nl.params["input_range"]
        if level < alpha * input_range:
            raise ValueError("saturation parameters exit the supplied sector")
        if np.any(np.abs(u) > input_range):
            raise ValueError(
                f"input magnitude {np.max(np.abs(u))} exceeds the validated "
                f"range {input_range}")
        return np.clip(u, -level, level)
    if nl.kind == "time_varying_gain":
        mid = (alpha + beta) / 2.0
        amp = (beta - alpha) / 2.0
        gain = mid + amp * np.sin(nl.params["freq"] * t + nl.params["phase"])
        return gain * u
    # random_in_sector
    r = _philox_uniform(nl.seed, t, u.size)
    return u * (alpha + r * (beta - alpha))


def worst_case_input(u, a, theta: float) -> np.ndarray:
    """Admissible w minimizing a @ (u + w): w* = -theta*||u|| * a / ||a||.

    One channel runs on floats (`_channel_worst_case`).
    """
    u = np.array(u, dtype=float, ndmin=1, copy=None)
    a = np.array(a, dtype=float, ndmin=1, copy=None)
    if not in_level_range(theta):
        raise ValueError(f"uncertainty level must satisfy 0 <= theta < 1, got {theta}")
    if u.shape == a.shape == (1,):
        uv, av = u.item(), a.item()
        if av == 0.0:
            raise DegenerateGradientError("constraint direction a is zero")
        return np.array([_channel_worst_case(uv, av, theta)])
    norm_a = np.linalg.norm(a)
    if norm_a == 0.0:
        raise DegenerateGradientError("constraint direction a is zero")
    return -theta * np.linalg.norm(u) * a / norm_a


def _channel_worst_case(u: float, a: float, theta: float) -> float:
    """`worst_case_input` on one channel of floats, a != 0:
    ((-theta*|u|)*a)/|a|.  That is numpy's value bit for bit wherever x * x
    neither underflows nor overflows: there sqrt(x * x), which
    np.linalg.norm takes on one element, is |x|."""
    return ((-theta * abs(u)) * a) / abs(a)


def optimal_multiplier(u, a, theta: float) -> float:
    """Multiplier lambda* = ||a|| / (2*theta*||u||) of the inner minimization."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    a = np.atleast_1d(np.asarray(a, dtype=float))
    norm_u = np.linalg.norm(u)
    norm_a = np.linalg.norm(a)
    if norm_u == 0.0:
        raise ValueError("undefined for u = 0")
    if theta <= 0.0:
        raise ValueError("undefined for theta <= 0")
    if norm_a == 0.0:
        raise DegenerateGradientError("constraint direction a is zero")
    return norm_a / (2.0 * theta * norm_u)


_ORACLE_SEED = 0x5EC70B

def worst_case_oracle(u, a, theta: float, samples: int = 10_000) -> np.ndarray:
    """Brute-force minimizer of a @ (u + w) over sampled ||w|| <= theta*||u||.

    Independent of the closed form: for scalar inputs the radius interval is
    scanned exhaustively; otherwise the ball is sampled (half uniform in the
    interior, half on the boundary sphere where a linear objective attains
    its minimum), at `samples` points, at least 1000: the self-check takes
    the default, the geometry demo 50,000.  Deterministic for fixed
    arguments.
    """
    if samples < 1_000:
        raise ValueError(f"need at least 1000 samples, got {samples}")
    u = np.atleast_1d(np.asarray(u, dtype=float))
    a = np.atleast_1d(np.asarray(a, dtype=float))
    m = u.size
    radius = theta * np.linalg.norm(u)
    if radius == 0.0:
        return np.zeros(m)
    if m == 1:
        candidates = np.linspace(-radius, radius, samples)[:, None]
    else:
        rng = np.random.default_rng(_ORACLE_SEED)
        n_sphere = samples // 2
        direction = rng.standard_normal((samples, m))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        radii = np.full(samples, radius)
        radii[n_sphere:] = radius * rng.random(samples - n_sphere) ** (1.0 / m)
        candidates = direction * radii[:, None]
    best = int(np.argmin(candidates @ a))
    return candidates[best]


def per_channel_worst_case(u, a, theta_vec) -> np.ndarray:
    """Uncoupled channels: w_i* = -theta_i * |u_i| * sgn(a_i), sgn(0) = 0."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    a = np.atleast_1d(np.asarray(a, dtype=float))
    theta_vec = np.atleast_1d(np.asarray(theta_vec, dtype=float))
    if not (u.shape == a.shape == theta_vec.shape):
        raise ValueError(
            f"dimension mismatch: u {u.shape}, a {a.shape}, theta {theta_vec.shape}")
    if not in_level_range(theta_vec):
        raise ValueError("per-channel levels must lie in [0, 1)")
    return -theta_vec * np.abs(u) * np.sign(a)
