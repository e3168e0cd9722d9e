"""Plain-text artifacts for simulation runs.

All numbers are written with repr-stable '%.9g' formatting so repeated
runs of a deterministic scenario produce byte-identical files.
"""

from __future__ import annotations

import numpy as np

from .sim import SimulationResult

__all__ = [
    "CSV_HEADER",
    "trajectory_csv_text",
    "metrics_text",
    "sweep_summary_text",
    "trajectory_svg_text",
]

CSV_HEADER = "t,e,edot,psi,psidot,s,h,hdot,u0,u,w,margin,altered"

#: One csv row: twelve numbers, "%.9g" writing each as f"{float(v):.9g}"
#: does, then the altered flag.
_ROW = ",".join(["%.9g"] * 12 + ["%d"])


def _num(x: float) -> str:
    return f"{float(x):.9g}"


def trajectory_csv_text(traj: SimulationResult) -> str:
    """One row per recorded step of a single-input five-state run."""
    if traj.states.shape[1] != 5 or traj.us.shape[1] != 1:
        raise ValueError("csv schema covers 5-state single-input runs only")
    table = np.column_stack((traj.times, traj.states, traj.h_vals, traj.hdot_vals,
                             traj.u0s, traj.us, traj.ws, traj.margins, traj.altered))
    lines = [CSV_HEADER]
    lines.extend(_ROW % tuple(row.tolist()) for row in table)
    return "\n".join(lines) + "\n"


def metrics_text(metrics: dict) -> str:
    return (
        f"min_h={_num(metrics['min_h'])}\n"
        f"min_distance={_num(metrics['min_distance'])}\n"
        f"violation={'true' if metrics['violation'] else 'false'}\n"
        f"steps_altered={int(metrics['steps_altered'])}\n"
        f"steps_infeasible={int(metrics['steps_infeasible'])}\n"
    )


def sweep_summary_text(rows) -> str:
    """rows: iterable of (theta, min_distance, min_h); sorted by theta."""
    lines = ["theta,min_distance,min_h"]
    for theta, min_distance, min_h in sorted(rows, key=lambda r: r[0]):
        lines.append(f"{_num(theta)},{_num(min_distance)},{_num(min_h)}")
    return "\n".join(lines) + "\n"


# Fixed plot window in road coordinates: s and e both span [-25, 25] m,
# mapped onto a 500x500 pixel canvas with e pointing up.
_VIEW_HALF = 25.0
_CANVAS = 500.0


def _to_px(s: float, e: float) -> tuple:
    px = (s + _VIEW_HALF) / (2.0 * _VIEW_HALF) * _CANVAS
    py = (_VIEW_HALF - e) / (2.0 * _VIEW_HALF) * _CANVAS
    return px, py


def trajectory_svg_text(traj: SimulationResult, radius: float) -> str:
    """Top-down (s, e) view: obstacle disc at the origin plus the path."""
    points = []
    for k in range(traj.states.shape[0]):
        s, e = traj.states[k, 4], traj.states[k, 0]
        px, py = _to_px(s, e)
        points.append(f"{px:.2f},{py:.2f}")
    cx, cy = _to_px(0.0, 0.0)
    r_px = radius / (2.0 * _VIEW_HALF) * _CANVAS
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_CANVAS:g}" '
        f'height="{_CANVAS:g}" viewBox="0 0 {_CANVAS:g} {_CANVAS:g}">\n'
        f'<rect width="{_CANVAS:g}" height="{_CANVAS:g}" fill="white"/>\n'
        f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{r_px:.2f}" fill="#d66" '
        f'fill-opacity="0.5" stroke="#a33"/>\n'
        f'<polyline points="{" ".join(points)}" fill="none" stroke="#26c" '
        f'stroke-width="2"/>\n'
        f'</svg>\n'
    )
