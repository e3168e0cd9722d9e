"""Scenarios from settings: presets, scenario files and overrides.

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

A preset is the set of values it gives such keys (`PRESETS`).
`load_scenario` takes a preset or a file, applies `{"section.key": value}`
overrides on top (the command line's flags), and builds the Scenario in
one place, so every setting meets the same checks whichever way it came.
"""

from __future__ import annotations

import os
from dataclasses import fields
from typing import Optional

import numpy as np

from .filters import _bounds
from .sectors import (
    NormalizedUncertainty,
    SectorBound,
    in_level_range,
    random_in_sector,
    saturation_in_sector,
    time_varying_gain,
)
from .sim import SIM_FILTER_MODES, Adversary, Scenario, level_tag
from .vehicle import (
    LQR_GAIN,
    X0,
    VehicleParams,
    lateral_dynamics,
    lqr_controller,
    obstacle_barrier,
)

__all__ = ["ConfigError", "PRESETS", "load_scenario", "scenario_presets"]


class ConfigError(ValueError):
    """Scenario settings rejected; the message names the key, and the file
    line where there is one."""


_SECTIONS = ("system", "barrier", "uncertainty", "controller", "simulation")

# section.key -> (value kind, default); kinds: float, int, str, floats
# (comma list).  The system keys are VehicleParams' fields, and defaults
# that the model or Scenario states are taken from there.
_KEYS = {
    "system.model": ("str", "vehicle_lateral"),
    **{f"system.{field.name}": ("float", field.default) for field in fields(VehicleParams)},
    "barrier.radius": ("float", 3.0),              # m
    "barrier.poles": ("floats", (-30.0, -30.0)),
    "uncertainty.design_theta": ("float", 0.5),
    "uncertainty.scale": ("float", 1.0),
    "controller.gain": ("floats", LQR_GAIN),
    "controller.reference": ("floats", (0.0, 0.0, 0.0, 0.0)),
    "controller.filter_mode": ("str", Scenario.filter_mode),
    "controller.u_max": ("float", Scenario.u_max),          # rad; None = unbounded
    "simulation.dt": ("float", Scenario.dt),                # s
    "simulation.horizon": ("float", Scenario.horizon),      # s
    "simulation.x0": ("floats", X0),
    "simulation.adversary": ("str", "worst_case"),
    "simulation.plant_theta": ("float", None),     # None = design level
    "simulation.sat_level": ("float", None),       # rad, saturation adversary
    "simulation.sat_range": ("float", None),       # rad, saturation adversary
    "simulation.gain_freq": ("float", 10.0),       # rad/s, gain_sweep adversary
    "simulation.gain_phase": ("float", 0.0),       # rad
    "simulation.seed": ("int", 0),                 # random adversary
    "simulation.sweep_thetas": ("floats", Scenario.sweep_thetas),
}
_DEFAULTS = {key: default for key, (_, default) in _KEYS.items()}

_ADVERSARIES = ("nominal", "worst_case", "saturation", "gain_sweep", "random")

#: The study's presets, each as the values it sets over the defaults.
#: fig3_lqr / fig3_ecbf / fig3_recbf pit the unfiltered baseline, the
#: nominal filter (design theta 0) and the robust filter (design theta
#: 0.5) against the worst-case plant at theta 0.5; fig4_sweep varies the
#: design level over the nominal plant.
PRESETS = {
    "fig3_lqr": {"controller.filter_mode": "off", "simulation.plant_theta": 0.5},
    "fig3_ecbf": {"uncertainty.design_theta": 0.0, "simulation.plant_theta": 0.5},
    "fig3_recbf": {"simulation.plant_theta": 0.5},
    "fig4_sweep": {"uncertainty.design_theta": 0.2, "simulation.adversary": "nominal",
                   "simulation.sweep_thetas": (0.2, 0.4, 0.6, 0.8)},
}


def _convert(key: str, raw: str, lineno: int):
    kind = _KEYS[key][0]
    try:
        if kind == "float":
            return float(raw)
        if kind == "int":
            return int(raw)
        if kind == "floats":
            return tuple(float(part) for part in raw.split(","))
        return raw
    except ValueError:
        raise ConfigError(f"line {lineno}: {key} expects {kind}, got {raw!r}") from None


def _parse_text(text: str, origin: str) -> dict:
    values = {}
    section = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(f"{origin}, line {lineno}: unknown section [{section}]")
            continue
        if "=" not in stripped:
            raise ConfigError(f"{origin}, line {lineno}: expected key = value")
        if section is None:
            raise ConfigError(f"{origin}, line {lineno}: key outside any section")
        name, raw = (part.strip() for part in stripped.split("=", 1))
        key = f"{section}.{name}"
        if key not in _KEYS:
            raise ConfigError(f"{origin}, line {lineno}: unknown key {key}")
        if key in values:
            raise ConfigError(f"{origin}, line {lineno}: repeated key {key}")
        values[key] = _convert(key, raw, lineno)
    return values


def _require(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


def _build_scenario(values: dict, name: str) -> Scenario:
    """The Scenario of `values` ({"section.key": value}) over the defaults."""
    v = {**_DEFAULTS, **values}
    _require(v["system.model"] == "vehicle_lateral",
             f"system.model: only 'vehicle_lateral' is available, got {v['system.model']!r}")
    try:
        params = VehicleParams(**{field.name: v[f"system.{field.name}"]
                                  for field in fields(VehicleParams)})
    except ValueError as exc:
        raise ConfigError(f"system: {exc}") from None

    poles = v["barrier.poles"]
    _require(len(poles) == 2, f"barrier.poles expects two values, got {len(poles)}")
    try:
        barrier = obstacle_barrier(v["barrier.radius"], tuple(poles))
    except ValueError as exc:
        raise ConfigError(f"barrier: {exc}") from None

    design_theta = v["uncertainty.design_theta"]
    _require(design_theta is not None and in_level_range(design_theta),
             f"uncertainty.design_theta must lie in [0, 1), got {design_theta}")
    try:
        unc = NormalizedUncertainty(theta=design_theta, scale=v["uncertainty.scale"])
    except ValueError as exc:
        raise ConfigError(f"uncertainty: {exc}") from None

    try:
        controller = lqr_controller(v["controller.gain"], v["controller.reference"])
    except ValueError as exc:
        raise ConfigError(f"controller: {exc}") from None
    filter_mode = v["controller.filter_mode"]
    _require(filter_mode in SIM_FILTER_MODES,
             f"controller.filter_mode: unknown mode {filter_mode!r}")
    u_max = v["controller.u_max"]
    try:
        _bounds(u_max, 1)  # the filters' own box check
    except ValueError as exc:
        raise ConfigError(f"controller.u_max: {exc}, got {u_max}") from None

    plant_theta = v["simulation.plant_theta"]
    if plant_theta is not None:
        _require(in_level_range(plant_theta),
                 f"simulation.plant_theta must lie in [0, 1), got {plant_theta}")
    adversary = _build_adversary(v, unc, plant_theta)

    x0 = v["simulation.x0"]
    _require(len(x0) == 5, f"simulation.x0 expects 5 values, got {len(x0)}")
    sweep = v["simulation.sweep_thetas"]
    if sweep is not None:
        sweep = tuple(th + 0.0 for th in sweep)  # -0.0 is the level 0
        tags = []
        for th in sweep:
            _require(in_level_range(th),
                     f"simulation.sweep_thetas entries must lie in [0, 1), got {th}")
            # two levels with one tag would write one csv and two summary rows
            tags.append(level_tag(th))
            _require(tags[-1] not in tags[:-1],
                     f"simulation.sweep_thetas repeats the level {tags[-1]}")
    try:
        return Scenario(
            dynamics=lateral_dynamics(params), barrier=barrier, uncertainty=unc,
            controller=controller, adversary=adversary, x0=np.asarray(x0),
            dt=v["simulation.dt"], horizon=v["simulation.horizon"],
            filter_mode=filter_mode, u_max=u_max, name=name,
            sweep_thetas=sweep)
    except ValueError as exc:
        raise ConfigError(f"simulation: {exc}") from None


def _build_adversary(v: dict, unc: NormalizedUncertainty,
                     plant_theta: Optional[float]) -> Adversary:
    kind = v["simulation.adversary"]
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
        level, rng = v["simulation.sat_level"], v["simulation.sat_range"]
        _require(level is not None and rng is not None,
                 "simulation.sat_level and simulation.sat_range are required for "
                 "the saturation adversary")
        try:
            fixture = saturation_in_sector(level, rng, plant_sector)
        except ValueError as exc:
            raise ConfigError(f"simulation.sat_level: {exc}") from None
    elif kind == "gain_sweep":
        try:
            fixture = time_varying_gain(v["simulation.gain_freq"], v["simulation.gain_phase"])
        except ValueError as exc:
            raise ConfigError(f"simulation.gain_freq: {exc}") from None
    else:
        fixture = random_in_sector(v["simulation.seed"])
    return Adversary(kind="scripted", theta=plant_theta, scripted=fixture)


def _read(path: str) -> tuple[dict, str]:
    """A scenario file's values, and its name: the file stem."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    name = os.path.splitext(os.path.basename(path))[0]
    return _parse_text(text, origin=path), name or "scenario"


def load_scenario(ref: str, overrides: Optional[dict] = None) -> Scenario:
    """Resolve a preset name or a config file path to a Scenario, with
    `{"section.key": value}` overrides taking the place of its values."""
    if ref in PRESETS:
        values, name = PRESETS[ref], ref
    elif os.path.exists(ref):
        values, name = _read(ref)
    else:
        raise ConfigError(
            f"{ref!r} is neither a preset ({', '.join(sorted(PRESETS))}) nor a "
            f"readable file")
    overrides = overrides or {}
    for key in overrides:
        _require(key in _KEYS, f"unknown key {key}")
    return _build_scenario({**values, **overrides}, name)


def scenario_presets() -> dict:
    """Every preset's Scenario, by name."""
    return {name: load_scenario(name) for name in PRESETS}
