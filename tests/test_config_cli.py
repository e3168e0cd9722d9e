"""Scenario files and the command line: errors carry line numbers, exit
codes distinguish config problems from infeasible runs, outputs are stable."""

import math
import os
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import rcbf_shield.cli
from rcbf_shield.cli import EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_OK, main
from rcbf_shield.config import ConfigError, load_scenario, scenario_presets
from rcbf_shield.filters import FilterError
from rcbf_shield.output import CSV_HEADER, trajectory_csv_text
from rcbf_shield.sectors import NormalizedUncertainty
from rcbf_shield.sim import Adversary, Scenario, simulate
from rcbf_shield.vehicle import X0, lateral_dynamics, lqr_controller, obstacle_barrier


def _write(tmp_path, text, name="case.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_empty_config_is_the_default_study(tmp_path):
    sc = load_scenario(_write(tmp_path, "# nothing but a comment\n"))
    assert sc.uncertainty.theta == 0.5
    assert sc.dt == 1e-3 and sc.horizon == 2.0
    assert sc.adversary.kind == "worst_case"
    assert sc.name == "case"
    assert np.array_equal(sc.x0, [2.0, 0.0, 0.0, 0.0, -20.0])


def test_unknown_section_names_line(tmp_path):
    path = _write(tmp_path, "\n[plant]\nmass = 1\n")
    with pytest.raises(ConfigError, match=r"line 2.*\[plant\]"):
        load_scenario(path)


def test_unknown_key_names_section_and_line(tmp_path):
    path = _write(tmp_path, "[system]\nweight = 3\n")
    with pytest.raises(ConfigError, match="line 2.*system.weight"):
        load_scenario(path)


def test_repeated_key_rejected(tmp_path):
    path = _write(tmp_path, "[barrier]\nradius = 3\nradius = 4\n")
    with pytest.raises(ConfigError, match="line 3.*repeated.*barrier.radius"):
        load_scenario(path)


def test_bad_value_kind_rejected(tmp_path):
    path = _write(tmp_path, "[simulation]\ndt = soon\n")
    with pytest.raises(ConfigError, match="line 2.*expects float"):
        load_scenario(path)


def test_key_outside_section_rejected(tmp_path):
    path = _write(tmp_path, "dt = 0.001\n")
    with pytest.raises(ConfigError, match="line 1"):
        load_scenario(path)


def test_range_checks_name_the_key(tmp_path):
    with pytest.raises(ConfigError, match="design_theta"):
        load_scenario(_write(tmp_path, "[uncertainty]\ndesign_theta = 1.5\n"))
    with pytest.raises(ConfigError, match="u_max"):
        load_scenario(_write(tmp_path, "[controller]\nu_max = -2\n"))
    with pytest.raises(ConfigError, match="x0"):
        load_scenario(_write(tmp_path, "[simulation]\nx0 = 1,2\n"))
    with pytest.raises(ConfigError, match="adversary"):
        load_scenario(_write(tmp_path, "[simulation]\nadversary = chaos\n"))
    # a level run twice would rewrite its csv and repeat its summary row
    # the second: one csv name; the third: one level, as -0.0 + 0.0 is 0.0
    for levels, level in (("0.2, 0.4, 0.2", r"0\.2"), ("0.2, 0.2000001", r"0\.2"),
                          ("0.0, -0.0", "0")):
        with pytest.raises(ConfigError, match=rf"^simulation\.sweep_thetas repeats the level {level}$"):
            load_scenario(_write(tmp_path, f"[simulation]\nsweep_thetas = {levels}\n"))


@pytest.mark.parametrize("overrides, section", [
    ({"system.mass": math.nan}, "system"),
    ({"system.speed": math.inf}, "system"),
    ({"system.corner_front": math.nan}, "system"),
    ({"barrier.radius": math.nan}, "barrier"),
    ({"barrier.radius": math.inf}, "barrier"),
    ({"barrier.poles": (math.nan, -30.0)}, "barrier"),
    ({"uncertainty.scale": math.inf}, "uncertainty"),
    ({"controller.gain": (math.nan, 0.0, 0.0, 0.0)}, "controller"),
    ({"controller.reference": (math.inf, 0.0, 0.0, 0.0)}, "controller"),
    ({"simulation.adversary": "gain_sweep", "simulation.gain_freq": math.nan},
     "simulation.gain_freq"),
    ({"simulation.adversary": "gain_sweep", "simulation.gain_phase": math.inf},
     "simulation.gain_freq"),
    ({"simulation.adversary": "saturation", "simulation.sat_level": 20.0,
      "simulation.sat_range": math.nan}, "simulation.sat_level"),
])
def test_a_non_finite_setting_fails_at_load_naming_its_section(overrides, section):
    # NaN and +-inf fail the model's checks when the scenario is built, not
    # later as non-finite constraint data or an h(x0) that is not finite
    with pytest.raises(ConfigError, match=rf"^{section}: "):
        load_scenario("fig3_recbf", overrides)


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("horizon, steps", [("1e15", "1e+18"), ("1e300", "1e+303")])
def test_a_run_too_long_to_record_is_an_error(tmp_path, capsys, command, horizon, steps):
    # 1e18 steps: 8e18 bytes per record array, past any 64-bit address
    # space (numpy's MemoryError); 1e303 steps: past numpy's size limit (its
    # ValueError).  Both requests fail without allocating
    out = tmp_path / "run"
    assert main([command, "--horizon", horizon, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [
        f"error: horizon / dt = {steps} steps are too many to record"]
    assert not out.exists()


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_a_box_bound_the_filters_reject_is_named_by_its_key(tmp_path, capsys, value):
    # the filters' own box check runs when the scenario is built, so an
    # infinite bound fails as a config error naming its key, not mid-run
    path = _write(tmp_path, f"[controller]\nu_max = {value}\n")
    with pytest.raises(ConfigError, match=r"^controller\.u_max: box bounds must be "
                                          r"positive and finite"):
        load_scenario(path)
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "run")]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: controller.u_max: ")


def test_saturation_adversary_needs_its_parameters(tmp_path):
    with pytest.raises(ConfigError, match="sat_level"):
        load_scenario(_write(tmp_path, "[simulation]\nadversary = saturation\n"))
    sc = load_scenario(_write(
        tmp_path,
        "[simulation]\nadversary = saturation\nsat_level = 20\nsat_range = 40\n"))
    assert sc.adversary.kind == "scripted"
    assert sc.adversary.scripted.kind == "saturation_in_sector"


def test_gain_sweep_and_random_adversaries(tmp_path):
    sc = load_scenario(_write(
        tmp_path, "[simulation]\nadversary = gain_sweep\ngain_freq = 5\n"))
    assert sc.adversary.scripted.kind == "time_varying_gain"
    sc = load_scenario(_write(tmp_path, "[simulation]\nadversary = random\nseed = 9\n"))
    assert sc.adversary.scripted.kind == "random_in_sector"
    assert sc.adversary.scripted.seed == 9


def test_load_scenario_resolves_presets_and_paths(tmp_path):
    assert load_scenario("fig3_recbf").name == "fig3_recbf"
    path = _write(tmp_path, "[simulation]\nhorizon = 0.5\n", name="short.cfg")
    assert load_scenario(path).horizon == 0.5
    with pytest.raises(ConfigError, match="neither a preset"):
        load_scenario("fig9_missing")


def test_overrides_meet_the_file_checks():
    sc = load_scenario("fig3_recbf", {"simulation.horizon": 0.5,
                                      "uncertainty.design_theta": 0.3})
    assert sc.horizon == 0.5 and sc.uncertainty.theta == 0.3
    assert sc.adversary.theta == 0.5  # the preset's own value stays
    with pytest.raises(ConfigError, match="unknown key simulation.speed"):
        load_scenario("fig3_recbf", {"simulation.speed": 1.0})
    with pytest.raises(ConfigError, match="simulation.plant_theta must lie in"):
        load_scenario("fig3_recbf", {"simulation.plant_theta": 1.5})


def _hand_built_presets():
    """The presets as Scenario objects built directly from the model: the
    reference that the config values in PRESETS must reproduce."""
    worst = Adversary(kind="worst_case", theta=0.5)
    common = dict(dynamics=lateral_dynamics(), barrier=obstacle_barrier(),
                  controller=lqr_controller(), x0=X0, dt=1e-3, horizon=2.0)
    return {
        "fig3_lqr": Scenario(
            uncertainty=NormalizedUncertainty(theta=0.5, scale=1.0),
            adversary=worst, filter_mode="off", name="fig3_lqr", **common),
        "fig3_ecbf": Scenario(
            uncertainty=NormalizedUncertainty(theta=0.0, scale=1.0),
            adversary=worst, filter_mode="auto", name="fig3_ecbf", **common),
        "fig3_recbf": Scenario(
            uncertainty=NormalizedUncertainty(theta=0.5, scale=1.0),
            adversary=worst, filter_mode="auto", name="fig3_recbf", **common),
        "fig4_sweep": Scenario(
            uncertainty=NormalizedUncertainty(theta=0.2, scale=1.0),
            adversary=Adversary(kind="nominal"), filter_mode="auto",
            name="fig4_sweep", sweep_thetas=(0.2, 0.4, 0.6, 0.8), **common),
    }


def _short_runs(sc):
    """0.2 s runs: the scenario itself, or one per theta of its sweep."""
    if sc.sweep_thetas is None:
        return [replace(sc, horizon=0.2)]
    return [replace(sc, horizon=0.2, sweep_thetas=None,
                    uncertainty=NormalizedUncertainty(theta=th, scale=sc.uncertainty.scale))
            for th in sc.sweep_thetas]


def test_presets_keep_their_bytes():
    presets = scenario_presets()
    reference = _hand_built_presets()
    assert set(presets) == set(reference)
    fields = ("name", "uncertainty", "adversary", "dt", "horizon",
              "filter_mode", "u_max", "sweep_thetas")
    for name, ref in reference.items():
        sc = presets[name]
        assert [getattr(sc, f) for f in fields] == [getattr(ref, f) for f in fields]
        assert np.array_equal(sc.x0, ref.x0)
        for run, ref_run in zip(_short_runs(sc), _short_runs(ref)):
            assert (trajectory_csv_text(simulate(run))
                    == trajectory_csv_text(simulate(ref_run))), run.name


def test_simulate_writes_outputs_and_exits_zero(tmp_path, capsys):
    out = str(tmp_path / "run")
    code = main(["simulate", "--scenario", "fig3_recbf",
                 "--horizon", "0.1", "--out", out, "--svg"])
    assert code == EXIT_OK
    csv_path = os.path.join(out, "fig3_recbf.csv")
    lines = open(csv_path, encoding="utf-8").read().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 101  # header + horizon/dt + 1 rows
    metrics = open(os.path.join(out, "metrics.txt"), encoding="utf-8").read()
    assert "min_h=" in metrics and "violation=false" in metrics
    svg = open(os.path.join(out, "trajectory.svg"), encoding="utf-8").read()
    assert svg.startswith("<svg") and "circle" in svg
    assert "min_distance=" in capsys.readouterr().out


def test_a_sampled_dip_below_zero_is_a_violation(tmp_path):
    # at dt = 0.02 the run samples h at -7.7e-4: inside the disk, however
    # shallow the dip
    out = str(tmp_path / "run")
    assert main(["simulate", "--scenario", "fig3_recbf", "--dt", "0.02", "--out", out]) == EXIT_OK
    metrics = open(os.path.join(out, "metrics.txt"), encoding="utf-8").read().split()
    min_h = float(next(x for x in metrics if x.startswith("min_h="))[len("min_h="):])
    assert -1e-3 < min_h < 0.0
    assert "violation=true" in metrics


def test_simulate_is_byte_identical(tmp_path):
    outs = []
    for sub in ("a", "b"):
        out = str(tmp_path / sub)
        assert main(["simulate", "--scenario", "fig3_recbf",
                     "--horizon", "0.2", "--out", out]) == EXIT_OK
        outs.append(open(os.path.join(out, "fig3_recbf.csv"), "rb").read())
    assert outs[0] == outs[1]


def test_sweep_writes_summary(tmp_path):
    out = str(tmp_path / "sweep")
    code = main(["sweep", "--scenario", "fig4_sweep",
                 "--horizon", "0.2", "--out", out])
    assert code == EXIT_OK
    summary = open(os.path.join(out, "sweep_summary.csv"), encoding="utf-8").read()
    lines = summary.splitlines()
    assert lines[0] == "theta,min_distance,min_h"
    assert len(lines) == 5
    thetas = [float(line.split(",")[0]) for line in lines[1:]]
    assert thetas == [0.2, 0.4, 0.6, 0.8]
    for th in thetas:
        assert os.path.exists(os.path.join(out, f"fig4_sweep_theta{th:g}.csv"))


def test_infeasible_run_exits_two_but_writes(tmp_path, capsys):
    cfg = _write(tmp_path, (
        "[controller]\n"
        "u_max = 0.02\n"
        "[simulation]\n"
        "horizon = 0.8\n"
    ), name="pinned.cfg")
    out = str(tmp_path / "run")
    code = main(["simulate", "--config", cfg, "--out", out])
    assert code == EXIT_INFEASIBLE
    assert os.path.exists(os.path.join(out, "pinned.csv"))
    assert "infeasible" in capsys.readouterr().err
    # the exit code must be explained in the written metrics
    metrics = open(os.path.join(out, "metrics.txt"), encoding="utf-8").read()
    m = re.search(r"steps_infeasible=(\d+)", metrics)
    assert m is not None and int(m.group(1)) > 0


@pytest.mark.parametrize("mode", ["socp", "qp"])
def test_boxed_run_in_cone_modes_matches_auto(tmp_path, mode):
    # a tight steering box: every mode must end with exit code 2 and the
    # same counts as the interval route, not a solver traceback
    cfg = _write(tmp_path, (
        "[controller]\n"
        f"filter_mode = {mode}\n"
        "u_max = 0.05\n"
    ), name=f"boxed_{mode}.cfg")
    out = str(tmp_path / "run")
    code = main(["simulate", "--config", cfg, "--horizon", "1.0", "--out", out])
    assert code == EXIT_INFEASIBLE
    metrics = open(os.path.join(out, "metrics.txt"), encoding="utf-8").read()
    assert "steps_infeasible=234" in metrics.split()
    assert "steps_altered=729" in metrics.split()


def test_config_errors_exit_one(tmp_path, capsys):
    assert main(["simulate", "--scenario", "fig9_missing",
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "error" in capsys.readouterr().err
    bad = _write(tmp_path, "[plant]\n")
    assert main(["simulate", "--config", bad,
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    # sweep command on a scenario without a grid
    assert main(["sweep", "--scenario", "fig3_recbf",
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    # simulate on the sweep preset points at the sweep command
    assert main(["simulate", "--scenario", "fig4_sweep",
                 "--out", str(tmp_path)]) == EXIT_CONFIG


def test_filter_error_exits_one_without_traceback(tmp_path, capsys, monkeypatch):
    def overflowing(sc):
        raise FilterError("robust margin is NaN: the constraint data overflow (p=-1.0)")

    monkeypatch.setattr(rcbf_shield.cli, "simulate", overflowing)
    assert main(["simulate", "--scenario", "fig3_recbf",
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: robust margin is NaN")


def test_usage_errors_exit_one(capsys):
    assert main(["simulate", "--scenario", "a", "--config", "b"]) == EXIT_CONFIG
    assert "usage error" in capsys.readouterr().err
    assert main(["frobnicate"]) == EXIT_CONFIG


@pytest.mark.parametrize("flag, value", [("--dt", "nan"), ("--horizon", "nan"),
                                         ("--horizon", "inf"), ("--dt", "inf")])
def test_non_finite_step_or_horizon_exits_one(tmp_path, capsys, flag, value):
    assert main(["simulate", "--scenario", "fig3_recbf", flag, value,
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: simulation: dt and horizon must be finite")
    assert f"{flag[2:]}={value}" in err
    assert not os.listdir(tmp_path)


@pytest.mark.filterwarnings("error")  # pytest would hold back numpy's warnings
@pytest.mark.parametrize("x0, message", [
    ("1e160", "error: h(x0) = inf is not finite"),  # the barrier overflows
    ("inf", "error: simulation: x0 must be finite"),
])
def test_start_state_past_the_float_range_exits_one(tmp_path, capsys, x0, message):
    # one error line and nothing else: no numpy warning reaches stderr
    cfg = _write(tmp_path, f"[simulation]\nx0 = {x0}, 0, 0, 0, -20\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1, err
    assert os.listdir(tmp_path) == ["case.cfg"]


_TOO_LARGE = "[simulation]\nx0 = 1e160, 0, 0, 0, -20\n"
# the saturation passes every |u| of level 0.2 (at most 17.9) but not of
# level 0.8 (27.5 near t = 0.54 s): only the higher level raises
_SATURATED_SWEEP = ("[simulation]\nhorizon = 0.6\nadversary = saturation\nsat_level = 20\n"
                    "sat_range = 20\nsweep_thetas = 0.2, 0.8\n")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, text, error", [
    pytest.param("simulate", _TOO_LARGE, "h(x0) = inf is not finite", id="simulate-"),
    pytest.param("sweep", _TOO_LARGE + "sweep_thetas = 0.2, 0.4\n",
                 "h(x0) = inf is not finite", id="sweep-sweep_thetas = 0.2, 0.4\n"),
    pytest.param("sweep", _SATURATED_SWEEP, "input magnitude", id="sweep-saturated_level"),
])
def test_a_failed_run_leaves_no_output_directory(tmp_path, capsys, command, text, error):
    cfg = _write(tmp_path, text)
    out = tmp_path / "new" / "run"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"error: {error}")
    assert sorted(os.listdir(tmp_path)) == ["case.cfg"]
    # a run that succeeds makes the directory with its first file
    assert main(["simulate", "--scenario", "fig3_recbf", "--horizon", "0.1",
                 "--out", str(out)]) == EXIT_OK
    assert sorted(os.listdir(out)) == ["fig3_recbf.csv", "metrics.txt"]


def test_seed_flag_applies_to_random_adversary_only(tmp_path, capsys):
    assert main(["simulate", "--scenario", "fig3_recbf", "--seed", "4",
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "--seed" in capsys.readouterr().err


def test_design_theta_override(tmp_path):
    out = str(tmp_path / "run")
    code = main(["simulate", "--scenario", "fig3_ecbf", "--design-theta", "0.5",
                 "--horizon", "0.1", "--out", out])
    assert code == EXIT_OK


def test_only_the_verify_command_loads_the_self_checks():
    # simulate and sweep never run verify.py, so importing the cli skips it
    src = os.path.dirname(os.path.dirname(rcbf_shield.cli.__file__))
    probe = "import sys, rcbf_shield.cli; print('rcbf_shield.verify' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    assert done.stdout == "False\n"


def test_verify_quick_passes(capsys):
    assert main(["verify", "--depth", "quick"]) == EXIT_OK
    report = capsys.readouterr().out
    assert "4/4 checks passed" in report
