"""Robust control-barrier-function safety filtering under sector-bounded
input nonlinearities.

The package turns a nominal control signal into a safe one by solving a
small second-order cone program (or its scalar/per-channel specializations)
whose robust constraint certifies barrier decrease against every input
nonlinearity in a given sector.
"""

from .sectors import (
    SectorBound,
    NormalizedUncertainty,
    SectorNonlinearity,
    normalize_sector,
    check_sector_qc,
    apply_nonlinearity,
    worst_case_input,
)
from .barriers import Barrier, Dynamics, barrier_terms, linear_class_k, pole_gains
from .socp import ConeProgram, SocBlock, SocpResult, solve_socp
from .filters import (
    FilterError,
    InfeasibleError,
    FilterResult,
    filter_scalar,
    filter_socp,
    filter_qp_channels,
    filter_auto,
    robust_margin,
)
from .sim import (
    Adversary,
    Scenario,
    SimulationError,
    SimulationResult,
    simulate,
    step_rk4,
    trajectory_metrics,
)
from .vehicle import lateral_dynamics, obstacle_barrier, lqr_controller
from .config import ConfigError, load_scenario, scenario_presets
from .verify import run_checks

__version__ = "0.1.0"

__all__ = [
    "SectorBound",
    "NormalizedUncertainty",
    "SectorNonlinearity",
    "normalize_sector",
    "check_sector_qc",
    "apply_nonlinearity",
    "worst_case_input",
    "Barrier",
    "Dynamics",
    "barrier_terms",
    "linear_class_k",
    "pole_gains",
    "ConeProgram",
    "SocBlock",
    "SocpResult",
    "solve_socp",
    "FilterError",
    "InfeasibleError",
    "FilterResult",
    "filter_scalar",
    "filter_socp",
    "filter_qp_channels",
    "filter_auto",
    "robust_margin",
    "Adversary",
    "Scenario",
    "SimulationError",
    "SimulationResult",
    "simulate",
    "step_rk4",
    "trajectory_metrics",
    "lateral_dynamics",
    "obstacle_barrier",
    "lqr_controller",
    "scenario_presets",
    "ConfigError",
    "load_scenario",
    "run_checks",
    "__version__",
]
