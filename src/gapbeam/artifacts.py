"""Deterministic artifact writers: CSV tables, key=value summaries, snapshots.

Floats are rendered with 17 significant digits so identical runs produce
bitwise-identical files and golden-file comparisons are meaningful.  The
table and summary writers make their file's directory if it is missing.
"""

from __future__ import annotations

from struct import pack
from pathlib import Path

import numpy as np

from .diagnostics import energy_series
from .discretize import SemiDiscreteSystem, recover_stress
from .model import Laws
from .timestep import Trajectory

TRAJECTORY_SCHEMA = "gapbeam-trajectory-v1"
SPECTRUM_SCHEMA = "gapbeam-spectrum-v1"
SWEEP_SCHEMA = "gapbeam-sweep-v1"
XI_SCHEMA = "gapbeam-xi-study-v1"
EPS_SCHEMA = "gapbeam-eps-study-v1"
OBSERVABILITY_SCHEMA = "gapbeam-observability-v1"

_SNAP_MAGIC = b"GAPBEAMSNAP"
_SNAP_VERSION = 1

# timestep.energy supplies E_total through Ghat_int and dissipation_rate,
# keyed by these names; v, v_t: tip deflection and velocity; S_ell: shear
# force at ell from the last element; balance_residual: Trajectory.balance,
# E - E_prev plus the dissipation since the previous row, which is the
# constant load's work over those steps plus, with nonlinear laws, the
# midpoint rule's quadrature error
TRAJECTORY_COLUMNS = (
    "t", "E_total", "kinetic", "potential_shear", "potential_bend", "N_p",
    "tip_energy", "Fhat_int", "Ghat_int", "v", "v_t", "S_ell",
    "dissipation_rate", "balance_residual",
)


def fmt(x) -> str:
    return format(float(x), ".17g")


def write_table_csv(path: str | Path, schema: str, header: tuple[str, ...],
                    rows) -> None:
    """Schema line, header, then one row per line; floats via fmt."""
    lines = [f"# schema={schema}", ",".join(header)]
    for row in rows:
        lines.append(",".join(cell if isinstance(cell, str) else fmt(cell)
                              for cell in row))
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_trajectory_csv(path: str | Path, system: SemiDiscreteSystem,
                         traj: Trajectory, laws: Laws) -> None:
    s_ell = recover_stress(system, traj.U)
    tip = system.tip_slot
    samples = ({**items, "t": t, "v": v, "v_t": v_t, "S_ell": s,
                "balance_residual": bal}
               for items, t, v, v_t, s, bal in zip(
                   energy_series(system, traj, laws), traj.times, traj.U[:, tip],
                   traj.W[:, tip], s_ell, traj.balance))
    rows = [[sample[name] for name in TRAJECTORY_COLUMNS] for sample in samples]
    write_table_csv(path, TRAJECTORY_SCHEMA, TRAJECTORY_COLUMNS, rows)


def write_summary(path: str | Path, entries: dict) -> None:
    lines = []
    for key, value in entries.items():
        if isinstance(value, float):
            value = fmt(value)
        lines.append(f"{key}={value}")
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def save_snapshot(path: str | Path, system: SemiDiscreteSystem, u: np.ndarray,
                  w: np.ndarray, t: float) -> None:
    """Binary dump of the reduced state (u, w) at time t: magic, version, node
    count, time, then the nodal phi, psi, phi_t, psi_t as raw arrays."""
    fields = (*system.expand(u), *system.expand(w))
    head = _SNAP_MAGIC + pack("<IId", _SNAP_VERSION, system.mesh.nn, t)
    Path(path).write_bytes(head + np.asarray(fields, dtype="<f8").tobytes())
