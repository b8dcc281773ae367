"""Deterministic artifact writers: CSV tables, key=value summaries, snapshots.

Floats are rendered with 17 significant digits so identical runs produce
bitwise-identical files and golden-file comparisons are meaningful.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .diagnostics import energy_series
from .discretize import SemiDiscreteSystem, recover_stress
from .timestep import Laws, State, Trajectory

TRAJECTORY_SCHEMA = "gapbeam-trajectory-v1"
SPECTRUM_SCHEMA = "gapbeam-spectrum-v1"
SWEEP_SCHEMA = "gapbeam-sweep-v1"
XI_SCHEMA = "gapbeam-xi-study-v1"
EPS_SCHEMA = "gapbeam-eps-study-v1"
OBSERVABILITY_SCHEMA = "gapbeam-observability-v1"

_SNAP_MAGIC = b"GAPBEAMSNAP"
_SNAP_VERSION = 1

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
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_trajectory_csv(path: str | Path, system: SemiDiscreteSystem,
                         traj: Trajectory, laws: Laws) -> None:
    reports = energy_series(system, traj, laws)
    ell = system.mesh.ell
    rows = []
    for t, state, rep, bal in zip(traj.times, traj.states, reports,
                                  traj.balance_residuals):
        s_ell, _ = recover_stress(system, state, ell, side="left")
        rows.append((t, rep.E_total, rep.kinetic, rep.potential_shear,
                     rep.potential_bend, rep.N_p, rep.tip_energy, rep.Fhat_int,
                     rep.Ghat_int, state.v, state.v_t, s_ell,
                     rep.dissipation_rate, bal))
    write_table_csv(path, TRAJECTORY_SCHEMA, TRAJECTORY_COLUMNS, rows)


def write_spectrum_csv(path: str | Path, eigenvalues: np.ndarray) -> None:
    rows = [(lam.real, lam.imag) for lam in eigenvalues]
    write_table_csv(path, SPECTRUM_SCHEMA, ("re", "im"), rows)


def write_summary(path: str | Path, entries: dict) -> None:
    lines = []
    for key, value in entries.items():
        if isinstance(value, float):
            value = fmt(value)
        lines.append(f"{key}={value}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def save_snapshot(path: str | Path, state: State) -> None:
    """Binary state dump: magic, version, node count, time, four raw arrays."""
    fields = (state.phi, state.psi, state.phi_t, state.psi_t)
    nn = len(state.phi)
    if any(len(a) != nn for a in fields):
        raise ValueError("state arrays have inconsistent lengths")
    head = _SNAP_MAGIC + struct.pack("<IId", _SNAP_VERSION, nn, state.t)
    Path(path).write_bytes(head + np.asarray(fields, dtype="<f8").tobytes())


def load_snapshot(path: str | Path) -> State:
    blob = Path(path).read_bytes()
    head = len(_SNAP_MAGIC) + 16
    if not blob.startswith(_SNAP_MAGIC) or len(blob) < head:
        raise ValueError(f"{path}: not a snapshot file, or its header is cut")
    version, nn, t = struct.unpack_from("<IId", blob, len(_SNAP_MAGIC))
    if version != _SNAP_VERSION:
        raise ValueError(f"{path}: unsupported snapshot version {version}")
    if len(blob) != head + 32 * nn:
        raise ValueError(f"{path}: {len(blob)} bytes, where a snapshot of {nn} "
                         f"nodes takes {head + 32 * nn}")
    fields = np.frombuffer(blob, dtype="<f8", offset=head).reshape(4, nn)
    return State(*fields.copy(), t)
