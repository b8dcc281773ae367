"""Command-line harness: single runs, sweeps and reports.

Subcommands: simulate, sweep-eps, sweep-xi, spectrum, observability.  Each
takes --config <key=value file> and --out <directory>.  Exit codes: 0 success,
2 configuration error, 3 solver failure, 4 I/O failure.

A command writes its tables and returns its summary entries; main writes
them to <out>/summary after the envelope (schema, command, status), which a
solver failure gets too.  Besides ok, the status of exit 0 can be
  zero_data            observability of zero initial data: E0 = 0 and no
                       intensity, so the ratios are inf and c0, c1 nan
and the statuses of exit 3 are
  newton_divergence    a step failed at t_fail (simulate, observability)
  certificate_failure  a root set failed its certificate (sweep-xi, spectrum)
  row_worker_failure   a forked row worker ended without its rows (sweeps)
  non_finite_<figure>  a figure is nan or inf: the first observability one
                       for nonzero initial data (all figures are written), or
                       simulate's E_total at t_fail (trajectory.csv is written)

The rows of a sweep (sweep-eps, sweep-xi and the epsilon study of spectrum)
run here and in forked children that pipe their rows back, up to sweep.workers
processes (default: the usable CPUs); artifacts do not depend on their number.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import math
import sys
from pathlib import Path

from .artifacts import (
    EPS_SCHEMA,
    OBSERVABILITY_SCHEMA,
    SWEEP_SCHEMA,
    XI_SCHEMA,
    fmt,
    save_snapshot,
    write_spectrum_csv,
    write_summary,
    write_table_csv,
    write_trajectory_csv,
)
from .config import ConfigError, ExperimentConfig, load_config
from .diagnostics import (
    MAX_STRIDE,
    complementarity_report,
    constraint_violation,
    energy_series,
    fit_decay,
    observability,
)
from .discretize import (AssemblyError, SemiDiscreteSystem, assemble, build_mesh,
                         recover_stress)
from .model import NormalCompliance
from .rows import RowWorkerError, map_rows
from .spectral import (DimensionCapExceeded, SpectrumCertificateError,
                       mesh_spectrum, trend_toward_zero, xi_study)
from .timestep import NewtonDivergence, initial_state, simulate

# everything imported so far lives as long as the process: keep it out of the
# collector's scans and off the pages that forked sweep workers would copy
gc.freeze()

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_IO = 4


class NonFiniteFigure(RuntimeError):
    """args: the name of a figure that is nan or inf, and the summary entries."""


def make_initial(cfg: ExperimentConfig, system: SemiDiscreteSystem):
    return initial_state(system, **vars(cfg.init), seed=cfg.seed)


def _run(cfg: ExperimentConfig):
    """Build the system and initial state of cfg and march to run.t_final.

    Returns (system, laws, trajectory); a NewtonDivergence propagates.
    """
    mesh = build_mesh(cfg.beam.ell, cfg.beam.xi, cfg.ne)
    system = assemble(mesh, cfg.beam, cfg.tip)
    laws = cfg.laws()
    traj = simulate(system, make_initial(cfg, system), laws, cfg.scheme,
                    cfg.t_final, sample_stride=cfg.stride)
    return system, laws, traj


def _report(cfg: ExperimentConfig, out: Path, **tolerances):
    """Run cfg, write out/trajectory.csv and gather the run's summary entries.

    A contact run adds its constraint violation and sign-pattern counts,
    classified with complementarity_report's tolerances.  Returns (system,
    trajectory, entries); a NewtonDivergence propagates, and a non-finite
    energy raises NonFiniteFigure naming E_total and t_fail.
    """
    system, laws, traj = _run(cfg)
    write_trajectory_csv(out / "trajectory.csv", system, traj, laws)
    energies = [e["E_total"] for e in energy_series(system, traj, laws)]
    for t, e in zip(traj.times.tolist(), energies):
        if not math.isfinite(e):
            raise NonFiniteFigure("E_total", {"E_total": e, "t_fail": t})
    entries = {"samples": len(traj), "E_initial": energies[0],
               "E_final": energies[-1], **fit_decay(traj.times, energies)}
    law = laws.contact
    if law is not None:
        entries["constraint_violation"] = constraint_violation(
            system, traj, law.g_lo, law.g_hi)
        entries.update(complementarity_report(system, traj, law, **tolerances))
    return system, traj, entries


def cmd_simulate(cfg: ExperimentConfig, out: Path) -> dict:
    system, traj, entries = _report(cfg, out)
    if cfg.snapshot:
        save_snapshot(out / "final_state.snap", system, traj.U[-1], traj.W[-1],
                      traj.times[-1])
    return entries


SWEEP_HEADER = ("eps_pen", "status", "violation", "sup_S_ell", "gamma_state",
                "compl_interior", "compl_upper", "compl_lower",
                "compl_violations", "violation_decreasing")


def _sweep_eps_row(cfg: ExperimentConfig, eps_pen: float, out_dir: str) -> dict:
    """One penalty-sweep row of plain scalars, so that rows cross processes,
    keyed by SWEEP_HEADER but for its last column."""
    base = cfg.contact
    contact = NormalCompliance.penalty(eps_pen, base.g_lo, base.g_hi)
    # the penalized end model uses one coefficient for the tip body and the
    # penalty; tie them so the limit drives both to zero together
    tip = eps_pen if cfg.sweep.tie_tip else cfg.tip
    row_cfg = dataclasses.replace(cfg, contact=contact, tip=tip)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # scale-aware tolerances: penetration depth scales like sqrt(eps) on
    # impact, and the recovered trace inherits the same transient scale;
    # classification is taken over the settled second half of the run
    tol_g = math.sqrt(eps_pen) * (contact.g_hi - contact.g_lo)
    tol_s = math.sqrt(eps_pen) * row_cfg.beam.k
    t_fail = None
    try:
        system, traj, entries = _report(row_cfg, out, tol_S=tol_s, tol_g=tol_g,
                                        t_start=0.5 * row_cfg.t_final)
    except NewtonDivergence as exc:
        t_fail = exc.t
    except NonFiniteFigure as exc:  # an energy left the float range
        t_fail = exc.args[1]["t_fail"]
    if t_fail is not None:
        write_summary(out / "summary", {"status": "diverged", "t_fail": t_fail})
        return dict(zip(SWEEP_HEADER, (eps_pen, "diverged", math.nan,
                                       math.nan, math.nan, -1, -1, -1, -1)))
    sup_s = float(abs(recover_stress(system, traj.U)).max())
    counts = [entries[f"complementarity_{key}"]
              for key in ("interior", "upper", "lower", "violation")]
    row = dict(zip(SWEEP_HEADER, (eps_pen, "ok", entries["constraint_violation"],
                                  sup_s, entries["gamma_state"], *counts)))
    # a degenerate decay fit says why gamma_state is nan
    fit = ({} if entries["fit_status"] == "ok"
           else {"fit_status": entries["fit_status"]})
    write_summary(out / "summary", {**row, "tol_S": tol_s, "tol_g": tol_g, **fit})
    return row


def cmd_sweep_eps(cfg: ExperimentConfig, out: Path) -> dict:
    if not cfg.sweep.eps_pen:
        raise ConfigError("sweep.eps_pen: empty axis for sweep-eps")
    law = cfg.contact
    if law is None or law.p != 1 or law.d1 != law.d2:
        raise ConfigError("contact.kind: sweep-eps needs a penalty law, "
                          "signorini_penalty or p = 1 with d1 = d2")
    # repr is exact, so no two rows share a directory
    jobs = [(cfg, eps, str(out / f"eps_{eps!r}")) for eps in cfg.sweep.eps_pen]
    rows = map_rows(_sweep_eps_row, jobs, workers=cfg.sweep.workers)
    prev = None
    for row in rows:
        row["violation_decreasing"] = ""
        if row["status"] == "ok":
            if prev is not None:
                row["violation_decreasing"] = ("yes" if row["violation"] < prev
                                               else "no")
            prev = row["violation"]
    write_table_csv(out / "sweep.csv", SWEEP_SCHEMA, SWEEP_HEADER,
                    [[row[key] for key in SWEEP_HEADER] for row in rows])
    rows_ok = sum(r["status"] == "ok" for r in rows)
    return {"status": "ok" if rows_ok == len(rows) else "partial",
            "rows": len(rows), "rows_ok": rows_ok}


def cmd_sweep_xi(cfg: ExperimentConfig, out: Path) -> dict:
    if not cfg.sweep.xi:
        raise ConfigError("sweep.xi: empty axis for sweep-xi")
    key, ne_values = (("sweep.ne", cfg.sweep.ne) if cfg.sweep.ne
                      else ("mesh.ne", (cfg.ne,)))
    try:
        rows = xi_study(cfg.beam, cfg.tip, cfg.sweep.xi, ne_values,
                        cfg.sweep.workers)
    except DimensionCapExceeded as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    header = ("xi_num", "xi_den", "ne", "abscissa", "verdict")
    table = [(str(frac.numerator), str(frac.denominator), str(ne), abscissa,
              verdict) for frac, ne, abscissa, verdict in rows]
    write_table_csv(out / "xi_study.csv", XI_SCHEMA, header, table)
    entries = {"rows": len(rows)}
    for frac in cfg.sweep.xi:
        sub = [r for r in rows if r[0] == frac]
        entries[f"trend_toward_zero_{frac.numerator}_{frac.denominator}"] = \
            str(trend_toward_zero(sub)).lower()
    return entries


def cmd_spectrum(cfg: ExperimentConfig, out: Path) -> dict:
    tips = [cfg.tip]
    if cfg.sweep.epsilon:
        # tip-coefficient study: compare against the plain traction-free model,
        # the row epsilon = 0
        tips += [0.0, *cfg.sweep.epsilon]
    distinct = list(dict.fromkeys(tips))  # each epsilon is solved once
    try:
        spectra = dict(zip(distinct, map_rows(
            mesh_spectrum, [(cfg.beam, tip, cfg.ne) for tip in distinct],
            workers=cfg.sweep.workers)))
    except DimensionCapExceeded as exc:
        raise ConfigError(f"mesh.ne: {exc}") from exc
    # a spectrum is sorted by real part, descending: lam[0].real is its abscissa
    (abscissa, gap), *study = [(float(lam[0].real), float(abs(lam.real).min()))
                               for lam in map(spectra.get, tips)]
    write_spectrum_csv(out / "spectrum.csv", spectra[cfg.tip])
    entries = {
        "model": "hybrid" if cfg.tip else "non-hybrid", "ne": cfg.ne,
        "epsilon": fmt(cfg.tip) if cfg.tip else "",
        "abscissa": abscissa, "min_damping_gap": gap,
        "n_eigenvalues": len(spectra[cfg.tip]),
    }
    if study:
        labels = ["non-hybrid"] + [fmt(eps) for eps in cfg.sweep.epsilon]
        write_table_csv(out / "eps_study.csv", EPS_SCHEMA,
                        ("epsilon", "abscissa", "min_damping_gap"),
                        [(label, *row) for label, row in zip(labels, study)])
        entries["non_hybrid_abscissa"] = study[0][0]
    return entries


def cmd_observability(cfg: ExperimentConfig, out: Path) -> dict:
    if cfg.stride > MAX_STRIDE:
        raise ConfigError(f"run.stride: observability needs samples at most "
                          f"{MAX_STRIDE} steps apart, got {cfg.stride}")
    system, laws, traj = _run(cfg)
    # multiplier.n = 0, the default, takes the sharpness n = ceil(8/ell)
    series, figures = observability(system, traj, cfg.multiplier_n, laws)
    write_table_csv(out / "observability.csv", OBSERVABILITY_SCHEMA,
                    ("t", *series), zip(traj.times, *series.values()))
    if not (traj.U[0].any() or traj.W[0].any()):
        # E0 = 0 and no intensity: the ratios are inf and the constants nan
        return {"status": "zero_data", **figures}
    # any other data lost a figure to range
    for key, value in figures.items():
        if not math.isfinite(value):
            raise NonFiniteFigure(key, figures)
    return figures


_COMMANDS = {
    "simulate": cmd_simulate,
    "sweep-eps": cmd_sweep_eps,
    "sweep-xi": cmd_sweep_xi,
    "spectrum": cmd_spectrum,
    "observability": cmd_observability,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gapbeam",
        description="Damped beam with tip stops: simulation and spectral studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="key=value config file")
        p.add_argument("--out", required=True, help="output directory")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO

    out = Path(args.out)
    summary = {"schema": "gapbeam-summary-v1", "command": args.command,
               "status": "ok"}
    code = EXIT_OK
    try:
        out.mkdir(parents=True, exist_ok=True)
        try:
            summary.update(_COMMANDS[args.command](cfg, out))
        except NewtonDivergence as exc:
            print(f"solver failure: {exc}", file=sys.stderr)
            summary.update(status="newton_divergence", t_fail=exc.t,
                           last_residual=exc.residual)
            code = EXIT_SOLVER
        except SpectrumCertificateError as exc:
            print(f"solver failure: {exc}", file=sys.stderr)
            summary["status"] = "certificate_failure"
            code = EXIT_SOLVER
        except RowWorkerError as exc:
            print(f"solver failure: {exc}", file=sys.stderr)
            summary["status"] = "row_worker_failure"
            code = EXIT_SOLVER
        except NonFiniteFigure as exc:
            name, entries = exc.args
            print(f"solver failure: {name} = {entries[name]} is not finite",
                  file=sys.stderr)
            summary.update(entries, status=f"non_finite_{name}")
            code = EXIT_SOLVER
        write_summary(out / "summary", summary)
    except (ConfigError, AssemblyError) as exc:
        # an AssemblyError is a finite config whose operators are unusable
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO
    return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
