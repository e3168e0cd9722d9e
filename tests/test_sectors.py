"""Sector normalization, worst-case geometry, and nonlinearity fixtures."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rcbf_shield.sectors import (
    DegenerateGradientError,
    NormalizedUncertainty,
    SectorBound,
    apply_nonlinearity,
    check_sector_qc,
    identity,
    normalize_sector,
    optimal_multiplier,
    per_channel_worst_case,
    random_in_sector,
    saturation_in_sector,
    time_varying_gain,
    worst_case_input,
    worst_case_oracle,
)


def test_normalize_sector_half_to_three_halves():
    unc = normalize_sector(SectorBound(0.5, 1.5))
    assert unc.theta == pytest.approx(0.5)
    assert unc.scale == pytest.approx(1.0)


def test_normalize_sector_identity_is_certain():
    unc = normalize_sector(SectorBound(1.0, 1.0))
    assert unc.theta == 0.0
    assert unc.scale == 1.0


def test_sector_bound_rejects_bad_slopes():
    with pytest.raises(ValueError):
        SectorBound(0.0, 1.5)
    with pytest.raises(ValueError):
        SectorBound(0.5, 0.9)
    with pytest.raises(ValueError):
        NormalizedUncertainty(theta=1.0, scale=1.0)
    for scale in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="input gain must be positive"):
            NormalizedUncertainty(theta=0.5, scale=scale)
    for beta in (math.nan, math.inf):
        with pytest.raises(ValueError, match="upper sector slope"):
            SectorBound(0.5, beta)


def test_qc_value_outside_sector():
    # u=1, v=2 against [0.5, 1.5]: (2 - 0.5)(1.5 - 2) = -0.75 < 0
    bound = SectorBound(0.5, 1.5)
    assert not check_sector_qc(np.array([1.0]), np.array([2.0]), bound)
    assert check_sector_qc(np.array([1.0]), np.array([1.5]), bound)
    assert check_sector_qc(np.array([1.0]), np.array([0.5]), bound)


def test_worst_case_input_frozen():
    w = worst_case_input(np.array([3.0, 4.0]), np.array([1.0, 0.0]), 0.2)
    assert w == pytest.approx([-1.0, 0.0])


def test_worst_case_zero_input():
    w = worst_case_input(np.zeros(2), np.array([1.0, 1.0]), 0.5)
    assert np.all(w == 0.0)


def test_worst_case_degenerate_direction():
    with pytest.raises(DegenerateGradientError):
        worst_case_input(np.array([1.0]), np.array([0.0]), 0.5)


def test_optimal_multiplier_frozen():
    # ||a|| = 1, theta = 0.2, ||u|| = 5 -> 1 / (2 * 0.2 * 5) = 0.5
    lam = optimal_multiplier(np.array([3.0, 4.0]), np.array([1.0, 0.0]), 0.2)
    assert lam == pytest.approx(0.5)


def test_multiplier_reconstructs_worst_case():
    u = np.array([1.0, -2.0, 0.5])
    a = np.array([0.3, 1.1, -0.7])
    theta = 0.4
    lam = optimal_multiplier(u, a, theta)
    w = worst_case_input(u, a, theta)
    # stationarity of the inner problem: a + 2 lambda w* = 0
    assert np.linalg.norm(a + 2.0 * lam * w) <= 1e-12 * np.linalg.norm(a)


def test_per_channel_worst_case_frozen():
    w = per_channel_worst_case(np.array([1.0, -2.0]), np.array([3.0, -4.0]),
                               np.array([0.5, 0.25]))
    assert w == pytest.approx([-0.5, 0.5])


def test_per_channel_rejects_bad_levels():
    with pytest.raises(ValueError):
        per_channel_worst_case(np.ones(2), np.ones(2), np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        per_channel_worst_case(np.ones(2), np.ones(3), np.ones(2) * 0.1)


def test_oracle_matches_closed_form_scalar():
    u = np.array([2.0])
    a = np.array([-3.0])
    theta = 0.5
    w_star = worst_case_input(u, a, theta)
    w_best = worst_case_oracle(u, a, theta)
    assert float(a @ (u + w_star)) <= float(a @ (u + w_best)) + 1e-9


def test_oracle_requires_enough_samples():
    with pytest.raises(ValueError):
        worst_case_oracle(np.ones(2), np.ones(2), 0.5, samples=10)


def test_random_fixture_is_reproducible():
    bound = SectorBound(0.5, 1.5)
    nl = random_in_sector(seed=7)
    u = np.array([1.0, -2.0, 0.3])
    v1 = apply_nonlinearity(nl, bound, u, t=0.125)
    v2 = apply_nonlinearity(nl, bound, u, t=0.125)
    assert np.array_equal(v1, v2)
    v3 = apply_nonlinearity(nl, bound, u, t=0.25)
    assert not np.array_equal(v1, v3)


def test_saturation_fixture_validates_range():
    bound = SectorBound(0.5, 1.5)
    with pytest.raises(ValueError):
        saturation_in_sector(0.4, 1.0, bound)  # level < alpha * range
    for level, input_range in ((math.nan, 1.0), (0.6, math.nan), (0.6, math.inf)):
        with pytest.raises(ValueError, match="must be positive"):
            saturation_in_sector(level, input_range, bound)
    for freq, phase in ((math.nan, 0.0), (math.inf, 0.0), (3.0, -math.inf)):
        with pytest.raises(ValueError, match="must be finite"):
            time_varying_gain(freq, phase)
    nl = saturation_in_sector(0.6, 1.0, bound)
    with pytest.raises(ValueError):
        apply_nonlinearity(nl, bound, np.array([1.5]))  # beyond validated range


def test_identity_fixture_is_nominal():
    u = np.array([0.7, -0.2])
    v = apply_nonlinearity(identity(), SectorBound(0.5, 1.5), u)
    assert np.array_equal(v, u)


_sector = st.tuples(st.floats(0.05, 1.0), st.floats(1.0, 4.0)).map(
    lambda ab: SectorBound(ab[0], ab[1]))
_inputs = st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=3).map(np.array)


@settings(deadline=None, max_examples=60)
@given(bound=_sector, u=_inputs, t=st.floats(0.0, 10.0), seed=st.integers(0, 2**16))
def test_every_fixture_stays_in_its_sector(bound, u, t, seed):
    fixtures = [identity(), time_varying_gain(3.0, 0.4), random_in_sector(seed)]
    level = bound.alpha * 5.0
    fixtures.append(saturation_in_sector(level if level > 0 else 0.1, 5.0, bound))
    for nl in fixtures:
        v = apply_nonlinearity(nl, bound, u, t)
        assert check_sector_qc(u, v, bound)


@settings(deadline=None, max_examples=60)
@given(u=_inputs, a=_inputs, theta=st.floats(0.0, 0.95))
def test_worst_case_lies_in_ball_and_minimizes(u, a, theta):
    if np.linalg.norm(a) < 1e-6 or u.size != a.size:
        return
    w = worst_case_input(u, a, theta)
    radius = theta * np.linalg.norm(u)
    assert np.linalg.norm(w) <= radius + 1e-9 * (1.0 + radius)
    # no sampled admissible w does better
    rng = np.random.default_rng(3)
    dirs = rng.normal(size=(64, u.size))
    dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-300)
    sampled = dirs * radius
    assert float(a @ (u + w)) <= float(np.min(sampled @ a + a @ u)) + 1e-9


@settings(deadline=None, max_examples=40)
@given(alpha=st.floats(0.05, 1.0), beta=st.floats(1.0, 4.0))
def test_normalization_round_trip(alpha, beta):
    unc = normalize_sector(SectorBound(alpha, beta))
    # scale * (1 +- theta) recovers the sector edges
    assert unc.scale * (1.0 - unc.theta) == pytest.approx(alpha, rel=1e-12)
    assert unc.scale * (1.0 + unc.theta) == pytest.approx(beta, rel=1e-12)
