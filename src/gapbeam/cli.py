"""Command-line harness: single runs, sweeps and reports.

Subcommands: simulate, sweep-eps, sweep-xi, spectrum, observability.  Each
takes --config <key=value file> and --out <directory>.  Exit codes: 0 success,
2 configuration error, 3 solver failure, 4 I/O failure.

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
from .config import ConfigError, ExperimentConfig, eps_row_dir, load_config
from .diagnostics import (
    complementarity_report,
    constraint_violation,
    energy_series,
    fit_decay,
    observability,
)
from .discretize import (AssemblyError, SemiDiscreteSystem, assemble, build_mesh,
                         recover_stress)
from .model import (
    NoContact,
    SignoriniPenalty,
    TipParams,
    default_multiplier,
    MultiplierSpec,
)
from .rows import map_rows
from .spectral import (DimensionCapExceeded, mesh_spectrum, trend_toward_zero,
                       xi_study)
from .timestep import NewtonDivergence, initial_state, simulate

# everything imported so far lives as long as the process: keep it out of the
# collector's scans and off the pages that forked sweep workers would copy
gc.freeze()

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_IO = 4


def build_system(cfg: ExperimentConfig) -> SemiDiscreteSystem:
    mesh = build_mesh(cfg.beam.ell, cfg.beam.xi, cfg.ne)
    return assemble(mesh, cfg.beam, cfg.tip)


def make_initial(cfg: ExperimentConfig, system: SemiDiscreteSystem):
    return initial_state(system, **vars(cfg.init), seed=cfg.seed)


def _run(cfg: ExperimentConfig):
    """Build the system and initial state of cfg and march to run.t_final.

    Returns (system, laws, trajectory); a NewtonDivergence propagates.
    """
    system = build_system(cfg)
    laws = cfg.laws()
    try:
        state0 = make_initial(cfg, system)
    except ValueError as exc:
        raise ConfigError(f"init: {exc}") from exc
    traj = simulate(system, state0, laws, cfg.scheme, cfg.t_final,
                    sample_stride=cfg.stride)
    return system, laws, traj


def _multiplier(cfg: ExperimentConfig) -> MultiplierSpec:
    if cfg.multiplier_n:
        return MultiplierSpec(n=cfg.multiplier_n, ell=cfg.beam.ell)
    return default_multiplier(cfg.beam.ell)


def _fit_entries(times, energies) -> dict:
    try:
        fit = fit_decay(times, energies)
    except ValueError as exc:
        return {"fit_status": f"degenerate ({exc})", "gamma_E": math.nan,
                "gamma_state": math.nan, "fit_r2": math.nan}
    return {"fit_status": "ok", "gamma_E": fit.gamma_E,
            "gamma_state": fit.gamma_state, "fit_c": fit.c, "fit_r2": fit.r2,
            "fit_window_lo": fit.window[0], "fit_window_hi": fit.window[1]}


def cmd_simulate(cfg: ExperimentConfig, out: Path) -> int:
    system, laws, traj = _run(cfg)
    summary: dict = {"schema": "gapbeam-summary-v1", "command": "simulate"}
    write_trajectory_csv(out / "trajectory.csv", system, traj, laws)
    reports = energy_series(system, traj, laws)
    energies = [r.E_total for r in reports]
    summary["status"] = "ok"
    summary["samples"] = len(traj)
    summary["E_initial"] = energies[0]
    summary["E_final"] = energies[-1]
    summary.update(_fit_entries(traj.times, energies))
    if not isinstance(laws.contact, NoContact):
        law = laws.contact
        summary["constraint_violation"] = constraint_violation(
            traj, law.g_lo, law.g_hi)
        comp = complementarity_report(system, traj, law)
        for key, count in comp.counts.items():
            summary[f"complementarity_{key}"] = count
        if comp.worst is not None:
            summary["complementarity_worst_t"] = comp.worst[0]
            summary["complementarity_worst_v"] = comp.worst[1]
            summary["complementarity_worst_S"] = comp.worst[2]
    write_summary(out / "summary", summary)
    if cfg.snapshot:
        save_snapshot(out / "final_state.snap", traj.states[-1])
    return EXIT_OK


def _sweep_eps_row(cfg: ExperimentConfig, eps_pen: float, out_dir: str) -> dict:
    """One penalty-sweep row; returns plain scalars so rows cross processes."""
    base = cfg.contact
    contact = SignoriniPenalty(eps_pen=eps_pen, g_lo=base.g_lo, g_hi=base.g_hi)
    tip = cfg.tip
    if cfg.sweep.tie_tip:
        # the penalized end model uses one coefficient for the tip body and the
        # penalty; tie them so the limit drives both to zero together
        tip = TipParams(enabled=True, epsilon=eps_pen, damping_on=True)
    row_cfg = dataclasses.replace(cfg, contact=contact, tip=tip)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    row: dict = {"eps_pen": eps_pen}
    try:
        system, laws, traj = _run(row_cfg)
    except NewtonDivergence as exc:
        row.update(status="diverged", t_fail=exc.t, violation=math.nan,
                   sup_S_ell=math.nan, gamma_state=math.nan,
                   compl_violations=-1, compl_interior=-1, compl_upper=-1,
                   compl_lower=-1)
        write_summary(out / "summary", {"status": "diverged", "t_fail": exc.t})
        return row
    write_trajectory_csv(out / "trajectory.csv", system, traj, laws)
    ell = system.mesh.ell
    sup_s = max(abs(recover_stress(system, s, ell, side="left")[0])
                for s in traj.states)
    energies = [r.E_total for r in energy_series(system, traj, laws)]
    fit = _fit_entries(traj.times, energies)
    # scale-aware tolerances: penetration depth scales like sqrt(eps) on
    # impact, and the recovered trace inherits the same transient scale;
    # classification is taken over the settled second half of the run
    tol_g = math.sqrt(eps_pen) * (contact.g_hi - contact.g_lo)
    tol_s = math.sqrt(eps_pen) * row_cfg.beam.k
    comp = complementarity_report(system, traj, contact, tol_S=tol_s,
                                  tol_g=tol_g, t_start=0.5 * row_cfg.t_final)
    row.update(
        status="ok",
        violation=constraint_violation(traj, contact.g_lo, contact.g_hi),
        sup_S_ell=sup_s,
        gamma_state=fit["gamma_state"],
        compl_interior=comp.counts["interior"],
        compl_upper=comp.counts["upper"],
        compl_lower=comp.counts["lower"],
        compl_violations=comp.counts["violation"],
        tol_S=tol_s, tol_g=tol_g,
    )
    write_summary(out / "summary", {k: v for k, v in row.items()})
    return row


def cmd_sweep_eps(cfg: ExperimentConfig, out: Path) -> int:
    if not cfg.sweep.eps_pen:
        raise ConfigError("sweep.eps_pen: empty axis for sweep-eps")
    if not isinstance(cfg.contact, SignoriniPenalty):
        raise ConfigError("contact.kind: sweep-eps needs a signorini_penalty law")
    jobs = [(cfg, eps, str(out / eps_row_dir(eps))) for eps in cfg.sweep.eps_pen]
    rows = map_rows(_sweep_eps_row, jobs, workers=cfg.sweep.workers)

    header = ("eps_pen", "status", "violation", "sup_S_ell", "gamma_state",
              "compl_interior", "compl_upper", "compl_lower",
              "compl_violations", "violation_decreasing")
    table = []
    prev = None
    for row in rows:
        decreasing = ""
        if row["status"] == "ok":
            if prev is not None:
                decreasing = "yes" if row["violation"] < prev else "no"
            prev = row["violation"]
        table.append((row["eps_pen"], row["status"], row["violation"],
                      row["sup_S_ell"], row["gamma_state"],
                      str(row["compl_interior"]), str(row["compl_upper"]),
                      str(row["compl_lower"]), str(row["compl_violations"]),
                      decreasing))
    write_table_csv(out / "sweep.csv", SWEEP_SCHEMA, header, table)
    ok = all(r["status"] == "ok" for r in rows)
    write_summary(out / "summary", {
        "schema": "gapbeam-summary-v1", "command": "sweep-eps",
        "status": "ok" if ok else "partial",
        "rows": len(rows),
        "rows_ok": sum(r["status"] == "ok" for r in rows),
    })
    return EXIT_OK


def cmd_sweep_xi(cfg: ExperimentConfig, out: Path) -> int:
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
    table = [(str(r.xi_fraction.numerator), str(r.xi_fraction.denominator),
              str(r.ne), r.abscissa, r.verdict) for r in rows]
    write_table_csv(out / "xi_study.csv", XI_SCHEMA, header, table)
    summary = {"schema": "gapbeam-summary-v1", "command": "sweep-xi",
               "status": "ok", "rows": len(rows)}
    for frac in cfg.sweep.xi:
        sub = [r for r in rows if r.xi_fraction == frac]
        summary[f"trend_toward_zero_{frac.numerator}_{frac.denominator}"] = \
            str(trend_toward_zero(sub)).lower()
    write_summary(out / "summary", summary)
    return EXIT_OK


def cmd_spectrum(cfg: ExperimentConfig, out: Path) -> int:
    tips = [cfg.tip]
    if cfg.sweep.epsilon:
        # tip-coefficient study: compare against the plain traction-free model
        tips += [TipParams()] + [
            TipParams(enabled=True, epsilon=eps, damping_on=cfg.tip.damping_on)
            for eps in cfg.sweep.epsilon]
    try:
        report, *study = map_rows(
            mesh_spectrum, [(cfg.beam, tip, cfg.ne) for tip in tips],
            workers=cfg.sweep.workers)
    except DimensionCapExceeded as exc:
        raise ConfigError(f"mesh.ne: {exc}") from exc
    write_spectrum_csv(out / "spectrum.csv", report.eigenvalues)
    summary = {
        "schema": "gapbeam-summary-v1", "command": "spectrum", "status": "ok",
        "model": report.model, "ne": report.ne,
        "epsilon": "" if report.epsilon is None else fmt(report.epsilon),
        "abscissa": report.abscissa,
        "min_damping_gap": report.min_damping_gap,
        "n_eigenvalues": len(report.eigenvalues),
    }
    if study:
        plain, *hybrid = study
        rows = [("non-hybrid", plain.abscissa, plain.min_damping_gap)]
        rows += [(fmt(eps), rep.abscissa, rep.min_damping_gap)
                 for eps, rep in zip(cfg.sweep.epsilon, hybrid)]
        write_table_csv(out / "eps_study.csv", EPS_SCHEMA,
                        ("epsilon", "abscissa", "min_damping_gap"), rows)
        summary["non_hybrid_abscissa"] = plain.abscissa
    write_summary(out / "summary", summary)
    return EXIT_OK


def cmd_observability(cfg: ExperimentConfig, out: Path) -> int:
    system, laws, traj = _run(cfg)
    rep = observability(system, traj, _multiplier(cfg), laws)
    rows = zip(rep.times, rep.I_ell, rep.I_0, rep.L_series, rep.L0_series)
    write_table_csv(out / "observability.csv", OBSERVABILITY_SCHEMA,
                    ("t", "I_ell", "I_0", "L", "L0"), rows)
    write_summary(out / "summary", {
        "schema": "gapbeam-summary-v1", "command": "observability",
        "status": "ok",
        "defect_ell": rep.defect_ell, "defect_0": rep.defect_0,
        "ratio_ell_to_E0": rep.ratio_to_E0[0],
        "ratio_0_to_E0": rep.ratio_to_E0[1],
        "c0_measured": rep.c0_measured, "c1_measured": rep.c1_measured,
    })
    return EXIT_OK


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
    try:
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, out)
    except (ConfigError, AssemblyError) as exc:
        # an AssemblyError is a finite config whose operators are unusable
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NewtonDivergence as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        write_summary(out / "summary", {
            "schema": "gapbeam-summary-v1", "command": args.command,
            "status": "newton_divergence", "t_fail": exc.t,
            "last_residual": exc.residual,
        })
        return EXIT_SOLVER
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
