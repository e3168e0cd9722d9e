"""Command line front end: simulate, sweep, and verify.

    rcbf-shield simulate --scenario fig3_recbf --out runs --svg
    rcbf-shield sweep --scenario fig4_sweep --out runs
    rcbf-shield verify --depth quick

The run flags --design-theta, --plant-theta, --seed, --dt and --horizon
override the scenario keys they name (see config.load_scenario).

Exit codes: 0 on success, 1 for configuration or usage errors and for a
filter that could not certify its answer (FilterError), 2 when a run hit
filter infeasibility (outputs are still written).  The output directory
defaults to $RCBF_SHIELD_OUT, then ./out.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from .config import ConfigError, load_scenario
from .filters import FilterError
from .output import (
    metrics_text,
    sweep_summary_text,
    trajectory_csv_text,
    trajectory_svg_text,
)
from .sim import Scenario, SimulationError, simulate, simulate_sweep, trajectory_metrics
from .verify import format_report, run_checks

__all__ = ["main", "cmd_simulate", "cmd_sweep", "cmd_verify"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INFEASIBLE = 2


#: Flags that override a scenario key, by argparse destination.
_OVERRIDES = {"design_theta": "uncertainty.design_theta",
              "plant_theta": "simulation.plant_theta", "seed": "simulation.seed",
              "dt": "simulation.dt", "horizon": "simulation.horizon"}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; 2 is reserved for
    # infeasibility here, so route usage problems through exit code 1.
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="rcbf-shield",
                     description="Robust safety filtering for sector-bounded "
                                 "input nonlinearities")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_options(p, default_scenario):
        src = p.add_mutually_exclusive_group()
        src.add_argument("--scenario", default=None,
                         help=f"preset name (default {default_scenario})")
        src.add_argument("--config", default=None, help="scenario file path")
        p.add_argument("--out", default=None,
                       help="output directory (default $RCBF_SHIELD_OUT or ./out)")
        p.add_argument("--design-theta", type=float, default=None,
                       help="override uncertainty.design_theta, the filter's level")
        p.add_argument("--plant-theta", type=float, default=None,
                       help="override simulation.plant_theta, the plant's level")
        p.add_argument("--dt", type=float, default=None,
                       help="override simulation.dt, the step size [s]")
        p.add_argument("--horizon", type=float, default=None,
                       help="override simulation.horizon, the run length [s]")
        p.add_argument("--svg", action="store_true",
                       help="also write a top-down (s, e) plot")
        p.add_argument("--seed", type=int, default=None,
                       help="override simulation.seed of a random adversary")
        p.set_defaults(default_scenario=default_scenario)

    sim = sub.add_parser("simulate", help="run one scenario and write csv/metrics")
    add_run_options(sim, "fig3_recbf")
    sim.set_defaults(func=cmd_simulate)

    sweep = sub.add_parser("sweep", help="run a scenario across its theta grid")
    add_run_options(sweep, "fig4_sweep")
    sweep.set_defaults(func=cmd_sweep)

    ver = sub.add_parser("verify", help="run the numerical self-checks")
    ver.add_argument("--depth", choices=("quick", "full"), default="quick")
    ver.set_defaults(func=cmd_verify)
    return parser


def _out_dir(args) -> str:
    """The output directory; `_write` makes it with the first file, so a
    run that fails leaves none behind."""
    return args.out or os.environ.get("RCBF_SHIELD_OUT") or "out"


def _load(args) -> Scenario:
    ref = args.config if args.config else (args.scenario or args.default_scenario)
    overrides = {key: getattr(args, dest) for dest, key in _OVERRIDES.items()
                 if getattr(args, dest) is not None}
    # resolved at call time, so a wrapper installed on this module's
    # load_scenario sees the call
    sc = load_scenario(ref, overrides)
    scripted = sc.adversary.scripted
    if args.seed is not None and (scripted is None or scripted.kind != "random_in_sector"):
        raise ConfigError("--seed only applies to a random scripted adversary")
    return sc


def _write(path: str, text: str):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    print(f"wrote {path}")


def cmd_simulate(args) -> int:
    sc = _load(args)
    if sc.sweep_thetas is not None:
        raise ConfigError(
            f"scenario {sc.name!r} defines sweep_thetas; use the sweep command")
    out = _out_dir(args)
    traj = simulate(sc)
    metrics = trajectory_metrics(traj, sc.barrier)
    _write(os.path.join(out, f"{sc.name}.csv"), trajectory_csv_text(traj))
    _write(os.path.join(out, "metrics.txt"), metrics_text(metrics))
    if args.svg:
        radius = sc.barrier.radius if sc.barrier.radius is not None else 0.0
        _write(os.path.join(out, "trajectory.svg"),
               trajectory_svg_text(traj, radius))
    sys.stdout.write(metrics_text(metrics))
    if metrics["steps_infeasible"] > 0:
        print(f"filter was infeasible on {metrics['steps_infeasible']} steps",
              file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.design_theta is not None:
        raise ConfigError("sweep sets the design theta per run; "
                          "--design-theta does not apply")
    sc = _load(args)
    if not sc.sweep_thetas:
        raise ConfigError(
            f"scenario {sc.name!r} has no sweep_thetas; nothing to sweep")
    out = _out_dir(args)
    # every level runs before the first file is written, so a failed
    # level leaves no file of the levels that passed
    runs = simulate_sweep(sc)
    rows = []
    infeasible_steps = 0
    for theta, traj in zip(sorted(sc.sweep_thetas), runs):
        metrics = trajectory_metrics(traj, sc.barrier)
        infeasible_steps += metrics["steps_infeasible"]
        _write(os.path.join(out, f"{traj.name}.csv"), trajectory_csv_text(traj))
        if args.svg:
            radius = sc.barrier.radius if sc.barrier.radius is not None else 0.0
            _write(os.path.join(out, f"{traj.name}.svg"),
                   trajectory_svg_text(traj, radius))
        rows.append((theta, metrics["min_distance"], metrics["min_h"]))
    summary = sweep_summary_text(rows)
    _write(os.path.join(out, "sweep_summary.csv"), summary)
    sys.stdout.write(summary)
    if infeasible_steps > 0:
        print(f"filter was infeasible on {infeasible_steps} steps total",
              file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_checks(args.depth)
    print(format_report(results))
    return EXIT_OK if all(r.passed for r in results) else EXIT_CONFIG


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConfigError, FilterError, SimulationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
