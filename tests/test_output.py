"""Text artifacts: the trajectory csv against a per-value writer."""

from dataclasses import replace

import numpy as np

from rcbf_shield.config import scenario_presets
from rcbf_shield.output import CSV_HEADER, trajectory_csv_text
from rcbf_shield.sim import SimulationResult, simulate


def _per_value_csv(traj):
    """The csv written one value at a time with f"{float(v):.9g}"."""
    lines = [CSV_HEADER]
    for k in range(traj.times.shape[0]):
        x = traj.states[k]
        row = [traj.times[k], x[0], x[1], x[2], x[3], x[4],
               traj.h_vals[k], traj.hdot_vals[k],
               traj.u0s[k, 0], traj.us[k, 0], traj.ws[k, 0], traj.margins[k]]
        lines.append(",".join(f"{float(v):.9g}" for v in row)
                     + f",{int(traj.altered[k])}")
    return "\n".join(lines) + "\n"


def test_csv_equals_the_per_value_writer_on_a_run():
    sc = replace(scenario_presets()["fig3_recbf"], horizon=0.8)
    traj = simulate(sc)
    assert traj.altered.any() and not traj.altered.all()
    assert trajectory_csv_text(traj) == _per_value_csv(traj)


def test_csv_equals_the_per_value_writer_on_edge_values():
    specials = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 1e-300, -1e-300, 5e-324,
                         123456789.5, -123456789.5, 1e16, 0.1, 2.0 / 3.0, 1e-5, 12345.0])
    n = specials.size
    rng = np.random.default_rng(3)

    def column():
        return rng.permutation(specials)

    traj = SimulationResult(
        name="edges", dt=1e-3, times=column(),
        states=np.column_stack([column() for _ in range(5)]),
        u0s=column()[:, None], us=column()[:, None], ws=column()[:, None],
        vs=column()[:, None], h_vals=column(), hdot_vals=column(), margins=column(),
        altered=np.arange(n) % 2 == 0, infeasible=np.zeros(n, dtype=bool))
    text = trajectory_csv_text(traj)
    assert text == _per_value_csv(traj)
    for word in ("-0,", "nan", "-inf", "1e-300", "4.94065646e-324", "123456790"):
        assert word in text
