"""Scenario files: a strict key=value format with fixed sections.

A scenario file looks like

    # lane keeping against the worst-case plant
    [uncertainty]
    design_theta = 0.5

    [simulation]
    adversary = worst_case
    plant_theta = 0.5

Sections are [system], [barrier], [uncertainty], [controller] and
[simulation]; every key is optional and defaults to the robust vehicle
study.  Unknown sections or keys, repeated keys, and out-of-range values
are errors that name the offending `section.key` and line.  The full key
table with units lives in the README.
"""

from __future__ import annotations

import os
from typing import Optional

import numpy as np

from .sectors import (
    NormalizedUncertainty,
    SectorBound,
    in_level_range,
    random_in_sector,
    saturation_in_sector,
    time_varying_gain,
)
from .sim import SIM_FILTER_MODES, Adversary, Scenario
from .vehicle import VehicleParams, lateral_dynamics, lqr_controller, obstacle_barrier
from . import vehicle as _vehicle

__all__ = ["ConfigError", "parse_config", "load_scenario"]


class ConfigError(ValueError):
    """Scenario file rejected; message carries file line or key context."""


_SECTIONS = ("system", "barrier", "uncertainty", "controller", "simulation")

# key -> (value kind, default); kinds: float, int, str, floats (comma list)
_KEYS = {
    "system": {
        "model": ("str", "vehicle_lateral"),
        "mass": ("float", 1.67e3),             # kg
        "inertia_z": ("float", 2.1e3),         # kg m^2
        "dist_front": ("float", 0.99),         # m
        "dist_rear": ("float", 1.7),           # m
        "speed": ("float", 28.0),              # m/s
        "corner_front": ("float", -1.23e5),    # N/rad
        "corner_rear": ("float", -1.042e5),    # N/rad
    },
    "barrier": {
        "radius": ("float", 3.0),              # m
        "poles": ("floats", (-30.0, -30.0)),
    },
    "uncertainty": {
        "design_theta": ("float", 0.5),
        "scale": ("float", 1.0),
    },
    "controller": {
        "gain": ("floats", (1.41, 0.41, 3.30, 0.24)),
        "reference": ("floats", (0.0, 0.0, 0.0, 0.0)),
        "filter_mode": ("str", "auto"),
        "u_max": ("float", None),              # rad; absent = unbounded
    },
    "simulation": {
        "dt": ("float", 1e-3),                 # s
        "horizon": ("float", 2.0),             # s
        "x0": ("floats", (2.0, 0.0, 0.0, 0.0, -20.0)),
        "adversary": ("str", "worst_case"),
        "plant_theta": ("float", None),        # None = design level
        "sat_level": ("float", None),          # rad, saturation adversary
        "sat_range": ("float", None),          # rad, saturation adversary
        "gain_freq": ("float", 10.0),          # rad/s, gain_sweep adversary
        "gain_phase": ("float", 0.0),          # rad
        "seed": ("int", 0),                    # random adversary
        "sweep_thetas": ("floats", None),
    },
}

_ADVERSARIES = ("nominal", "worst_case", "saturation", "gain_sweep", "random")


def _convert(section: str, key: str, raw: str, lineno: int):
    kind = _KEYS[section][key][0]
    try:
        if kind == "float":
            return float(raw)
        if kind == "int":
            return int(raw)
        if kind == "floats":
            return tuple(float(part) for part in raw.split(","))
        return raw
    except ValueError:
        raise ConfigError(
            f"line {lineno}: {section}.{key} expects {kind}, got {raw!r}") from None


def _parse_text(text: str, origin: str) -> dict:
    values = {sec: {} for sec in _SECTIONS}
    section = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            name = stripped[1:-1].strip()
            if name not in _SECTIONS:
                raise ConfigError(f"{origin}, line {lineno}: unknown section [{name}]")
            section = name
            continue
        if "=" not in stripped:
            raise ConfigError(f"{origin}, line {lineno}: expected key = value")
        if section is None:
            raise ConfigError(f"{origin}, line {lineno}: key outside any section")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _KEYS[section]:
            raise ConfigError(f"{origin}, line {lineno}: unknown key {section}.{key}")
        if key in values[section]:
            raise ConfigError(f"{origin}, line {lineno}: repeated key {section}.{key}")
        values[section][key] = _convert(section, key, raw, lineno)
    return values


def _get(values: dict, section: str, key: str):
    if key in values[section]:
        return values[section][key]
    return _KEYS[section][key][1]


def _require(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


def _build_scenario(values: dict, name: str) -> Scenario:
    model = _get(values, "system", "model")
    _require(model == "vehicle_lateral",
             f"system.model: only 'vehicle_lateral' is available, got {model!r}")
    try:
        params = VehicleParams(
            mass=_get(values, "system", "mass"),
            inertia_z=_get(values, "system", "inertia_z"),
            dist_front=_get(values, "system", "dist_front"),
            dist_rear=_get(values, "system", "dist_rear"),
            speed=_get(values, "system", "speed"),
            corner_front=_get(values, "system", "corner_front"),
            corner_rear=_get(values, "system", "corner_rear"))
    except ValueError as exc:
        raise ConfigError(f"system: {exc}") from None

    poles = _get(values, "barrier", "poles")
    _require(len(poles) == 2, f"barrier.poles expects two values, got {len(poles)}")
    try:
        barrier = obstacle_barrier(_get(values, "barrier", "radius"), tuple(poles))
    except ValueError as exc:
        raise ConfigError(f"barrier: {exc}") from None

    design_theta = _get(values, "uncertainty", "design_theta")
    _require(design_theta is not None and in_level_range(design_theta),
             f"uncertainty.design_theta must lie in [0, 1), got {design_theta}")
    scale = _get(values, "uncertainty", "scale")
    try:
        unc = NormalizedUncertainty(theta=design_theta, scale=scale)
    except ValueError as exc:
        raise ConfigError(f"uncertainty: {exc}") from None

    gain = _get(values, "controller", "gain")
    reference = _get(values, "controller", "reference")
    try:
        controller = lqr_controller(gain, reference)
    except ValueError as exc:
        raise ConfigError(f"controller: {exc}") from None
    filter_mode = _get(values, "controller", "filter_mode")
    _require(filter_mode in SIM_FILTER_MODES,
             f"controller.filter_mode: unknown mode {filter_mode!r}")
    u_max = _get(values, "controller", "u_max")
    if u_max is not None:
        _require(u_max > 0.0, f"controller.u_max must be positive, got {u_max}")

    plant_theta = _get(values, "simulation", "plant_theta")
    if plant_theta is not None:
        _require(in_level_range(plant_theta),
                 f"simulation.plant_theta must lie in [0, 1), got {plant_theta}")
    adversary = _build_adversary(values, unc, plant_theta)

    x0 = _get(values, "simulation", "x0")
    _require(len(x0) == 5, f"simulation.x0 expects 5 values, got {len(x0)}")
    sweep = _get(values, "simulation", "sweep_thetas")
    if sweep is not None:
        for th in sweep:
            _require(in_level_range(th),
                     f"simulation.sweep_thetas entries must lie in [0, 1), got {th}")
    try:
        return Scenario(
            dynamics=lateral_dynamics(params), barrier=barrier, uncertainty=unc,
            controller=controller, adversary=adversary, x0=np.asarray(x0),
            dt=_get(values, "simulation", "dt"),
            horizon=_get(values, "simulation", "horizon"),
            filter_mode=filter_mode, u_max=u_max, name=name,
            sweep_thetas=tuple(sweep) if sweep is not None else None)
    except ValueError as exc:
        raise ConfigError(f"simulation: {exc}") from None


def _build_adversary(values: dict, unc: NormalizedUncertainty,
                     plant_theta: Optional[float]) -> Adversary:
    kind = _get(values, "simulation", "adversary")
    _require(kind in _ADVERSARIES,
             f"simulation.adversary: unknown kind {kind!r} (choose from "
             f"{', '.join(_ADVERSARIES)})")
    if kind in ("nominal", "worst_case"):
        return Adversary(kind=kind, theta=plant_theta)
    theta_plant = unc.theta if plant_theta is None else plant_theta
    try:
        plant_sector = SectorBound(unc.scale * (1.0 - theta_plant),
                                   unc.scale * (1.0 + theta_plant))
    except ValueError as exc:
        raise ConfigError(f"simulation.adversary: plant sector is invalid ({exc})") from None
    if kind == "saturation":
        level = _get(values, "simulation", "sat_level")
        rng = _get(values, "simulation", "sat_range")
        _require(level is not None and rng is not None,
                 "simulation.sat_level and simulation.sat_range are required for "
                 "the saturation adversary")
        try:
            fixture = saturation_in_sector(level, rng, plant_sector)
        except ValueError as exc:
            raise ConfigError(f"simulation.sat_level: {exc}") from None
    elif kind == "gain_sweep":
        fixture = time_varying_gain(_get(values, "simulation", "gain_freq"),
                                    _get(values, "simulation", "gain_phase"))
    else:
        fixture = random_in_sector(_get(values, "simulation", "seed"))
    return Adversary(kind="scripted", theta=plant_theta, scripted=fixture)


def parse_config(path: str) -> Scenario:
    """Parse a scenario file; the scenario is named after the file stem."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    values = _parse_text(text, origin=path)
    name = os.path.splitext(os.path.basename(path))[0]
    return _build_scenario(values, name or "scenario")


def load_scenario(ref: str) -> Scenario:
    """Resolve a preset name or a config file path to a Scenario."""
    presets = _vehicle.scenario_presets()
    if ref in presets:
        return presets[ref]
    if os.path.exists(ref):
        return parse_config(ref)
    raise ConfigError(
        f"{ref!r} is neither a preset ({', '.join(sorted(presets))}) nor a "
        f"readable file")
