"""Energy, decay, observability and contact diagnostics over trajectories.

Each diagnostic returns what its reader writes:
  energy_series           one dict per sample, keyed as the energy columns
                          of trajectory.csv (timestep.energy)
  fit_decay               summary entries fit_status, gamma_E, gamma_state,
                          fit_c, fit_r2, fit_window_lo, fit_window_hi of the
                          fit E ~ fit_c * exp(-gamma_E t) on the window; a
                          degenerate window gives fit_status, gamma_E,
                          gamma_state and fit_r2 only, the last three nan
  complementarity_report  summary entries complementarity_interior, _upper,
                          _lower, _violation (sample counts), then _worst_t,
                          _worst_v, _worst_S if there is a violation
  observability           (series, figures): series I_ell, I_0, L, L0 per
                          sample, keyed as the columns of observability.csv;
                          figures defect_ell, defect_0, ratio_ell_to_E0,
                          ratio_0_to_E0, c0_measured, c1_measured, keyed as
                          the summary entries
  absorbing_probe         (t0, plateau, converged); t0 is None when the
                          ensemble never stays inside the ball
"""

from __future__ import annotations

import math

import numpy as np

from .discretize import SemiDiscreteSystem, element_strains, recover_stress
from .model import Laws, SchemeConfig
from .timestep import (
    Trajectory,
    energy,
    initial_state,
    simulate,
    state_norm,
    total_energy,
)


def energy_series(system: SemiDiscreteSystem, traj: Trajectory,
                  laws: Laws) -> list[dict[str, float]]:
    """The energy items of every sample."""
    return [energy(system, u, w, laws) for u, w in zip(traj.U, traj.W)]


def fit_decay(times, energies) -> dict:
    """Fit log E linearly over the last 60% of the run.

    The energy decays at twice the state-norm rate, so both gamma_E and
    gamma_state = gamma_E / 2 are reported.  A window of fewer than 10
    samples or with a nonpositive or non-finite energy is degenerate, and
    fit_status says which.
    """
    t = np.asarray(times, dtype=float)
    e = np.asarray(energies, dtype=float)
    ta, tb = t[0] + 0.4 * (t[-1] - t[0]), t[-1]
    mask = (t >= ta) & (t <= tb)
    problem = ("decay window holds fewer than 10 samples" if mask.sum() < 10
               else "nonpositive energies in the decay window"
               if np.any(e[mask] <= 0.0)
               else "non-finite energies in the decay window"
               if not np.isfinite(e[mask]).all() else None)
    if problem is not None:
        return {"fit_status": f"degenerate ({problem})", "gamma_E": math.nan,
                "gamma_state": math.nan, "fit_r2": math.nan}
    tw, lw = t[mask], np.log(e[mask])
    slope, intercept = np.polyfit(tw, lw, 1)
    pred = slope * tw + intercept
    ss_res = float(np.sum((lw - pred) ** 2))
    ss_tot = float(np.sum((lw - lw.mean()) ** 2))
    r2 = 1.0 if ss_tot <= 1e-300 else max(0.0, 1.0 - ss_res / ss_tot)
    gamma_e = -float(slope)
    return {"fit_status": "ok", "gamma_E": gamma_e, "gamma_state": gamma_e / 2.0,
            "fit_c": float(np.exp(intercept)), "fit_r2": r2,
            "fit_window_lo": float(ta), "fit_window_hi": float(tb)}


# the time integrals of observability resolve at most this many steps per sample
MAX_STRIDE = 10


def _multipliers(x, n: int, ell: float):
    """The exponential multiplier and its companion at x, with their slopes.

    Returns ((q, q'), (q0, q0')): q(x) = (exp(n x) - 1)/n increases from
    q(0) = 0 with q' = exp(n x); q0(x) = (exp(-n x) - exp(-n ell))/n
    decreases to q0(ell) = 0 with q0' = -exp(-n x).
    """
    e, e0 = np.exp(n * x), np.exp(-n * x)
    return ((e - 1.0) / n, e), ((e0 - math.exp(-n * ell)) / n, -e0)


def observability(system: SemiDiscreteSystem, traj: Trajectory, n: int = 0,
                  laws: Laws = Laws()) -> tuple[dict, dict]:
    """Evaluate the boundary/interior observability functionals along a run.

    The defects compare the weighted boundary time-integrals against the
    interior functional; their size relative to the initial energy is
    reported, not asserted (the comparison constant is not quantified).
    Samples may lie at most MAX_STRIDE steps apart.  n is the sharpness of
    the exponential multipliers (see _multipliers); 0 takes ceil(8/ell),
    large enough that the slope of the weight dominates its value.  The
    element strains of every sample give both the interior functionals at
    the Gauss points and the one-sided end traces: the stresses of the last
    element at ell and of the first at 0.
    """
    if len(traj) == 0:
        raise ValueError("empty trajectory")
    if len(traj) > 1 and traj.dt > 0.0:
        stride = round((traj.times[1] - traj.times[0]) / traj.dt)
        if stride > MAX_STRIDE:
            raise ValueError(f"trajectory sampled every {stride} steps, more "
                             f"than {MAX_STRIDE}")
    mesh, beam = system.mesh, system.beam
    ell = mesh.ell
    n = n or math.ceil(8.0 / ell)
    if n < 1:
        raise ValueError("multiplier parameter n must be a positive integer")
    weights = mesh.gauss_weights
    (q, qx), (q0, q0x) = _multipliers(mesh.gauss_points, n, ell)
    times = traj.times
    # (samples, ne) strains and (samples, nn) velocities
    gamma, kappa = element_strains(mesh, *system.expand(traj.U))
    phi_t, psi_t = system.expand(traj.W)
    S_el, M_el = beam.k * gamma, beam.b * kappa
    I_ell, I_0 = (beam.rho2 * beam.b * psi_t[:, end] ** 2 + M_el[:, end] ** 2
                  + beam.rho1 * beam.k * phi_t[:, end] ** 2 + S_el[:, end] ** 2
                  for end in (-1, 0))
    phit_g, psit_g = mesh.at_gauss(phi_t), mesh.at_gauss(psi_t)
    intensity = (beam.rho2 * beam.b * psit_g**2 + M_el[..., None] ** 2
                 + beam.rho1 * beam.k * phit_g**2 + S_el[..., None] ** 2)
    cross = beam.rho1 * beam.k * phit_g * psit_g - (S_el * M_el)[..., None]
    L_q, L_q0, I_int = (np.sum(weights * f, axis=(-2, -1)) for f in (
        qx * intensity - q * cross, q0x * intensity - q0 * cross, intensity))

    (q_ell, _), _ = _multipliers(ell, n, ell)
    _, (q0_0, _) = _multipliers(0.0, n, ell)
    int_bd_ell = float(np.trapezoid(q_ell * I_ell, times))
    int_bd_0 = float(np.trapezoid(q0_0 * I_0, times))
    int_L = float(np.trapezoid(L_q, times))
    int_L0 = float(np.trapezoid(L_q0, times))
    defect_ell = abs(int_bd_ell - int_L)
    defect_0 = abs(int_bd_0 - int_L0)
    e0 = total_energy(system, traj.U[0], traj.W[0], laws)

    live = I_int > 1e-14 * max(I_int.max(), 1e-300)
    ratios = L_q[live] / I_int[live]
    series = {"I_ell": I_ell, "I_0": I_0, "L": L_q, "L0": L_q0}
    figures = {
        "defect_ell": defect_ell, "defect_0": defect_0,
        "ratio_ell_to_E0": defect_ell / e0 if e0 > 0 else math.inf,
        "ratio_0_to_E0": defect_0 / e0 if e0 > 0 else math.inf,
        "c0_measured": float(ratios.min()) if ratios.size else math.nan,
        "c1_measured": float(ratios.max()) if ratios.size else math.nan,
    }
    return series, figures


def constraint_violation(system: SemiDiscreteSystem, traj: Trajectory,
                         g_lo: float, g_hi: float) -> float:
    """Worst excursion of the end deflection beyond the stops (0 if admissible)."""
    if len(traj) == 0:
        raise ValueError("empty trajectory")
    v = traj.U[:, system.tip_slot]
    return float(max(0.0, (v - g_hi).max(), (g_lo - v).max()))


def complementarity_report(system: SemiDiscreteSystem, traj: Trajectory,
                           law, tol_S: float | None = None,
                           tol_g: float | None = None,
                           t_start: float | None = None) -> dict:
    """Classify each sample against the unilateral sign conditions.

    interior: |S| below tol_S while v is inside the gap; upper/lower: v at a
    stop with the admissible traction sign; anything else is a violation.

    Tolerances default to 1e-6 of the shear stiffness / beam length; pass
    scale-aware values for penalty runs (the one-sided stress trace carries
    O(h) recovery error during fast transients).  t_start restricts the
    classification to the settled part of the run.
    """
    if len(traj) == 0:
        raise ValueError("empty trajectory")
    beam = system.beam
    tol_S = 1e-6 * beam.k if tol_S is None else tol_S
    tol_g = 1e-6 * beam.ell if tol_g is None else tol_g
    S = recover_stress(system, traj.U)
    v = traj.U[:, system.tip_slot]
    settled = traj.times >= (-math.inf if t_start is None else t_start)
    # the rest is lower, a nan v too; a nan S fails every sign condition
    interior = (law.g_lo + tol_g < v) & (v < law.g_hi - tol_g)
    upper = ~interior & (v >= law.g_hi - tol_g)
    ok = np.where(interior, abs(S) <= tol_S,
                  np.where(upper, S <= tol_S, S >= -tol_S))
    good, bad = settled & ok, settled & ~ok
    report = {"complementarity_interior": int((good & interior).sum()),
              "complementarity_upper": int((good & upper).sum()),
              "complementarity_lower": int((good & ~interior & ~upper).sum()),
              "complementarity_violation": int(bad.sum())}
    # the worst violation is the first with the largest |S|; a nan S never is
    magnitude = np.where(bad & ~np.isnan(S), abs(S), -1.0)
    i = int(np.argmax(magnitude))
    if magnitude[i] >= 0.0:
        report.update(complementarity_worst_t=float(traj.times[i]),
                      complementarity_worst_v=float(v[i]),
                      complementarity_worst_S=float(S[i]))
    return report


def absorbing_probe(system: SemiDiscreteSystem, laws: Laws, cfg: SchemeConfig,
                    *, radius: float, t_final: float, n_ensemble: int = 8,
                    sample_stride: int = 10, seed: int = 0
                    ) -> tuple[float | None, float, bool]:
    """Drive an ensemble from a ball of initial data and watch it contract.

    Reports the plateau radius, the largest norm over the last fifth of the
    samples, and the first time all trajectories enter (and stay in) a ball
    of twice that radius; converged when that time falls before the last
    fifth of the run.  Evidence, not proof: a missing plateau is flagged, not
    raised.
    """
    if n_ensemble < 8:
        raise ValueError("ensemble must hold at least 8 trajectories")
    norm_rows = []
    for j in range(n_ensemble):
        initial = initial_state(system, "random_ball", radius=radius,
                                seed=seed + j)
        traj = simulate(system, initial, laws, cfg, t_final,
                        sample_stride=sample_stride)
        norm_rows.append([state_norm(system, u, w) for u, w in zip(traj.U, traj.W)])
    times, norms = traj.times, np.asarray(norm_rows)

    n_tail = max(2, int(0.2 * norms.shape[1]))
    plateau = float(norms[:, -n_tail:].max())
    outside = (norms > 2.0 * plateau).any(axis=0)
    if outside.any():
        last_out = int(np.nonzero(outside)[0][-1])
        if last_out + 1 >= norms.shape[1]:
            return None, plateau, False
        t0 = float(times[last_out + 1])
    else:
        t0 = 0.0
    return t0, plateau, bool(t0 <= 0.8 * times[-1] + 1e-12)
