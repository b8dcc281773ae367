import math

import numpy as np
import pytest

from conftest import desk_system
from gapbeam import (
    ForceLaw,
    Laws,
    NormalCompliance,
    SchemeConfig,
    absorbing_probe,
    complementarity_report,
    constraint_violation,
    energy,
    energy_series,
    fit_decay,
    initial_state,
    observability,
    simulate,
)
from gapbeam.diagnostics import _multipliers
from gapbeam.discretize import element_strains, recover_stress
from gapbeam.timestep import Trajectory

LINEAR = Laws()
NC = NormalCompliance(d1=1.0, d2=1.0, p=2, g_lo=-0.05, g_hi=0.05)


def _traj(U, times=(0.0,), dt=1e-3):
    """A trajectory at rest: displacements U, one row per time, zero velocity."""
    U = np.atleast_2d(U)
    return Trajectory(times=np.array(times), U=U, W=np.zeros_like(U),
                      balance=np.zeros(len(times)), dt=dt)


def _tip_at(system, v):
    """Reduced displacement zero but for the tip deflection v."""
    u = np.zeros(system.n_free)
    u[system.tip_slot] = v
    return u


class TestEnergy:
    def test_zero_state_all_zero(self, damped_system):
        rep = energy(damped_system, *initial_state(damped_system, "zero"), LINEAR)
        for name in ("E_total", "kinetic", "potential_shear", "potential_bend",
                     "N_p", "tip_energy", "Fhat_int", "Ghat_int",
                     "dissipation_rate"):
            assert rep[name] == 0.0

    def test_boundary_touch_has_zero_contact_potential(self, conservative_system):
        u = _tip_at(conservative_system, NC.g_hi)
        rep = energy(conservative_system, u, np.zeros_like(u), Laws(contact=NC))
        assert rep["N_p"] == 0.0

    def test_total_is_sum_of_parts(self):
        system = desk_system(ne=12, gamma1=1.0,
                             tip=0.4)
        laws = Laws(contact=NC, force_f=ForceLaw(mu=0.5, alpha=1.0))
        u, w = initial_state(system, "mode", amplitude=0.3, amplitude_psi=0.2)
        w[:system.mesh.nn - 1] = 0.1  # phi_t on the free nodes
        rep = energy(system, u, w, laws)
        parts = (rep["kinetic"] + rep["potential_shear"] + rep["potential_bend"]
                 + rep["N_p"] + rep["tip_energy"] + rep["Fhat_int"]
                 + rep["Ghat_int"])
        assert rep["E_total"] == pytest.approx(parts, rel=1e-14)

    def test_single_mode_matches_closed_form(self):
        # phi = A sin(a x), zero velocity: 2E = (aA)^2 * int cos^2 = (aA)^2/2
        a = 1.5 * math.pi
        amp = 0.7
        closed = (a * amp) ** 2 / 4.0
        errs = []
        for ne in (32, 64):
            system = desk_system(ne=ne)
            s = initial_state(system, "mode", amplitude=amp, mode=2)
            rep = energy(system, *s, LINEAR)
            errs.append(abs(rep["E_total"] - closed) / closed)
        assert errs[0] < 1e-2
        assert errs[0] / errs[1] > 3.0

    def test_series_accumulates_dissipation(self, damped_system):
        cfg = SchemeConfig(dt=1e-3, newton_tol=1e-12)
        s0 = initial_state(damped_system, "mode", amplitude=1.0, amplitude_psi=0.5)
        traj = simulate(damped_system, s0, LINEAR, cfg, 1.0, sample_stride=100)
        reps = energy_series(damped_system, traj, LINEAR)
        assert len(reps) == len(traj)
        # cumulative balance: the per-sample residuals telescope to
        # E(T) - E(0) + dissipated = 0 up to solver tol
        drift = sum(traj.balance)
        assert abs(drift) <= 10 * cfg.newton_tol * len(traj.times) * 100


class TestFitDecay:
    def test_exact_exponential(self):
        t = np.linspace(0.0, 5.0, 200)
        fit = fit_decay(t, np.exp(-3.0 * t))
        assert fit["fit_status"] == "ok"
        assert fit["gamma_E"] == pytest.approx(3.0, abs=1e-6)
        assert fit["gamma_state"] == pytest.approx(1.5, abs=1e-6)
        assert fit["fit_c"] == pytest.approx(1.0, rel=1e-6)
        assert fit["fit_r2"] > 1.0 - 1e-12

    def test_conservative_series(self):
        t = np.linspace(0.0, 5.0, 100)
        fit = fit_decay(t, np.full_like(t, 2.5))
        assert abs(fit["gamma_E"]) <= 1e-8

    def test_window_selection(self):
        t = np.linspace(0.0, 10.0, 500)
        e = np.where(t < 4.0, 5.0, np.exp(-(t - 4.0)))  # transient then decay
        fit = fit_decay(t, e)  # the default window, the last 60%, skips it
        assert fit["gamma_E"] == pytest.approx(1.0, rel=1e-6)
        assert (fit["fit_window_lo"], fit["fit_window_hi"]) == (4.0, 10.0)

    def test_errors(self):
        # a degenerate window is a status with nan rates, not an exception
        t = np.linspace(0.0, 1.0, 50)
        for fit, problem in (
                (fit_decay(t[:5], np.exp(-t[:5])), "fewer than 10 samples"),
                (fit_decay(t, np.concatenate([np.ones(49), [0.0]])),
                 "nonpositive energies"),
                # inf once passed as a positive energy, fitted to nan rates
                (fit_decay(t, np.concatenate([np.ones(49), [math.inf]])),
                 "non-finite energies"),
                (fit_decay(t, np.concatenate([np.ones(48), [math.nan, 1.0]])),
                 "non-finite energies")):
            assert fit["fit_status"].startswith("degenerate (")
            assert problem in fit["fit_status"]
            assert list(fit) == ["fit_status", "gamma_E", "gamma_state",
                                 "fit_r2"]
            assert all(math.isnan(fit[key]) for key in list(fit)[1:])


class TestConstraintViolation:
    def test_zero_inside_gap(self, conservative_system):
        traj = _traj(_tip_at(conservative_system, 0.0))
        assert constraint_violation(conservative_system, traj, -0.05, 0.05) == 0.0

    def test_constant_overshoot(self, conservative_system):
        traj = _traj(_tip_at(conservative_system, 0.30))
        assert constraint_violation(conservative_system, traj, -0.05, 0.05) == \
            pytest.approx(0.25)

    def test_lower_overshoot(self, conservative_system):
        traj = _traj(_tip_at(conservative_system, -0.08))
        assert constraint_violation(conservative_system, traj, -0.05, 0.05) == \
            pytest.approx(0.03)

    def test_penalty_sweep_monotone(self):
        # dynamic impact: looser penalties get hit harder
        viols = []
        for eps in (1e-1, 1e-2, 1e-3):
            system = desk_system(ne=16, gamma1=1.0, gamma2=1.0,
                                 tip=eps)
            laws = Laws(contact=NormalCompliance.penalty(eps_pen=eps, g_lo=-0.05,
                                                         g_hi=0.05))
            s0 = initial_state(system, "mode_velocity", amplitude=0.5, mode=2)
            traj = simulate(system, s0, laws, SchemeConfig(dt=2e-4), 1.0,
                            sample_stride=10)
            viols.append(constraint_violation(system, traj, -0.05, 0.05))
        assert viols[0] > viols[1] > viols[2] > 0.0


def _complementarity_loop(system, traj, law, tol_S, tol_g, t_start):
    """complementarity_report sample by sample: the reference of its masks."""
    counts = {"interior": 0, "upper": 0, "lower": 0, "violation": 0}
    worst, worst_mag = {}, -1.0
    S_ell = recover_stress(system, traj.U)
    for t, v, S in zip(traj.times, traj.U[:, system.tip_slot], S_ell):
        if t < t_start:
            continue
        if law.g_lo + tol_g < v < law.g_hi - tol_g:
            side, ok = "interior", abs(S) <= tol_S
        elif v >= law.g_hi - tol_g:
            side, ok = "upper", S <= tol_S
        else:
            side, ok = "lower", S >= -tol_S
        counts[side if ok else "violation"] += 1
        if not ok and abs(S) > worst_mag:
            worst_mag = abs(S)
            worst = {"complementarity_worst_t": float(t),
                     "complementarity_worst_v": float(v),
                     "complementarity_worst_S": float(S)}
    return {**{f"complementarity_{side}": count
               for side, count in counts.items()}, **worst}


class TestComplementarity:
    def test_zero_trajectory_all_interior(self, conservative_system):
        traj = _traj(_tip_at(conservative_system, 0.0))
        rep = complementarity_report(conservative_system, traj, NC)
        assert rep == {"complementarity_interior": 1, "complementarity_upper": 0,
                       "complementarity_lower": 0,
                       "complementarity_violation": 0}

    def test_violation_detected(self, conservative_system):
        # tip beyond the upper stop with a pulling (positive) traction
        mesh = conservative_system.mesh
        u = conservative_system.reduce(  # S = 0.2 k > 0 at the end
            np.concatenate([0.2 * mesh.nodes, np.zeros(mesh.nn)]))
        rep = complementarity_report(conservative_system, _traj(u), NC, tol_S=1e-3)
        assert rep["complementarity_violation"] == 1
        assert list(rep)[-3:] == ["complementarity_worst_t",
                                  "complementarity_worst_v",
                                  "complementarity_worst_S"]
        assert rep["complementarity_worst_S"] > 1e-3

    def test_t_start_restricts_samples(self, conservative_system):
        traj = _traj(np.zeros((2, conservative_system.n_free)), times=(0.0, 1.0))
        rep = complementarity_report(conservative_system, traj, NC, t_start=0.5)
        assert sum(rep.values()) == 1

    def test_masks_match_the_per_sample_loop(self, conservative_system):
        # phi = v x and psi = c put v at the tip and an S(ell) linear in
        # (v, c): a state and its negative tie in |S|, and psi = nan makes S nan
        system = conservative_system
        nodes = system.mesh.nodes

        def state(v, c):
            return system.reduce(np.concatenate([v * nodes, np.full(nodes.size, c)]))

        U = np.array([state(0.08, 0.9), state(0.0, 0.0), state(0.08, 0.22),
                      state(-0.08, 0.2), state(0.0, math.nan),
                      state(-0.08, -0.22), state(0.0, 0.1)])
        traj = _traj(U, times=np.arange(len(U)) / 10.0)
        S = recover_stress(system, U)
        assert abs(S[2]) == abs(S[5]) and math.isnan(S[4])
        rep = complementarity_report(system, traj, NC, tol_S=1e-3, t_start=0.1)
        assert rep == _complementarity_loop(system, traj, NC, 1e-3, 1e-6, 0.1)
        assert rep == {
            "complementarity_interior": 1, "complementarity_upper": 0,
            "complementarity_lower": 1, "complementarity_violation": 4,
            "complementarity_worst_t": 0.2, "complementarity_worst_v": 0.08,
            "complementarity_worst_S": S[2]}
        assert all(type(rep[f"complementarity_{side}"]) is int
                   for side in ("interior", "upper", "lower", "violation"))

    def test_nan_stresses_name_no_worst_violation(self, conservative_system):
        nodes = conservative_system.mesh.nodes
        u = conservative_system.reduce(
            np.concatenate([0.0 * nodes, np.full(nodes.size, math.nan)]))
        rep = complementarity_report(conservative_system, _traj(u), NC)
        assert rep["complementarity_violation"] == 1
        assert "complementarity_worst_S" not in rep


class TestObservability:
    def test_zero_trajectory_all_zero(self, damped_system):
        series, figures = observability(damped_system,
                                        _traj(_tip_at(damped_system, 0.0)))
        assert figures["defect_ell"] == 0.0 and figures["defect_0"] == 0.0
        assert np.all(series["I_ell"] == 0.0) and np.all(series["L"] == 0.0)

    def test_empty_trajectory_rejected(self, damped_system):
        with pytest.raises(ValueError):
            observability(damped_system,
                          _traj(np.zeros((0, damped_system.n_free)), times=()))

    def test_coarse_sampling_rejected(self, damped_system):
        s0 = initial_state(damped_system, "mode", amplitude=1.0)
        traj = simulate(damped_system, s0, LINEAR, SchemeConfig(dt=1e-3), 0.1,
                        sample_stride=20)
        with pytest.raises(ValueError, match="every 20 steps, more than 10"):
            observability(damped_system, traj)

    def test_equivalence_constants_positive(self, damped_system):
        s0 = initial_state(damped_system, "mode", amplitude=1.0,
                           amplitude_psi=0.5, mode=2)
        traj = simulate(damped_system, s0, LINEAR, SchemeConfig(dt=1e-3), 1.0,
                        sample_stride=5)
        series, figures = observability(damped_system, traj, laws=LINEAR)
        assert figures["c0_measured"] > 0.0
        assert figures["c1_measured"] >= figures["c0_measured"]
        assert np.all(series["L"] >= 0.0)

    def test_defect_ratio_finite_and_reported(self, damped_system):
        s0 = initial_state(damped_system, "mode", amplitude=1.0, amplitude_psi=0.5)
        traj = simulate(damped_system, s0, LINEAR, SchemeConfig(dt=1e-3), 0.5,
                        sample_stride=5)
        _, figures = observability(damped_system, traj, laws=LINEAR)
        assert math.isfinite(figures["ratio_ell_to_E0"])
        assert math.isfinite(figures["ratio_0_to_E0"])

    def test_end_traces_and_default_n(self, damped_system):
        # on a moving beam each end intensity is built from the stresses of
        # the element at that end, and n = 0, the default, is the sharpness
        # ceil(8/ell), bit for bit
        s0 = initial_state(damped_system, "mode", amplitude=1.0, amplitude_psi=0.5)
        traj = simulate(damped_system, s0, LINEAR, SchemeConfig(dt=1e-3), 0.05,
                        sample_stride=5)
        series, figures = observability(damped_system, traj)
        beam, mesh = damped_system.beam, damped_system.mesh
        ell = mesh.ell
        for name, end in (("I_ell", -1), ("I_0", 0)):
            expected = []
            for u, w in zip(traj.U, traj.W):
                gamma, kappa = element_strains(mesh, *damped_system.expand(u))
                S, Mb = beam.k * gamma[end], beam.b * kappa[end]
                phi_t, psi_t = damped_system.expand(w)
                expected.append(beam.rho2 * beam.b * psi_t[end] ** 2 + Mb**2
                                + beam.rho1 * beam.k * phi_t[end] ** 2 + S**2)
            assert np.all(series[name] > 0.0)
            assert np.array_equal(series[name], expected)
        # the interior functionals of one sample at a time, the same arithmetic
        (q, qx), (q0, q0x) = _multipliers(mesh.gauss_points, math.ceil(8.0 / ell),
                                          ell)
        for i, (u, w) in enumerate(zip(traj.U, traj.W)):
            gamma, kappa = element_strains(mesh, *damped_system.expand(u))
            S, Mb = beam.k * gamma[:, None], beam.b * kappa[:, None]
            phi_g, psi_g = map(mesh.at_gauss, damped_system.expand(w))
            intensity = (beam.rho2 * beam.b * psi_g**2 + Mb**2
                         + beam.rho1 * beam.k * phi_g**2 + S**2)
            cross = beam.rho1 * beam.k * phi_g * psi_g - S * Mb
            for name, a, ax in (("L", q, qx), ("L0", q0, q0x)):
                assert series[name][i] == np.sum(
                    mesh.gauss_weights * (ax * intensity - a * cross)), (name, i)
        for n in (0, math.ceil(8.0 / ell)):
            again = observability(damped_system, traj, n)
            for got, want in zip(again, (series, figures)):
                assert list(got) == list(want)
                for name in want:
                    assert np.array_equal(got[name], want[name]), name

    def test_nonpositive_n_rejected(self, damped_system):
        with pytest.raises(ValueError, match="multiplier parameter n"):
            observability(damped_system, _traj(_tip_at(damped_system, 0.0)), -1)


class TestAbsorbingProbe:
    def test_zero_ensemble_enters_immediately(self, damped_system):
        laws = Laws(force_f=ForceLaw(f0=0.0))
        t0, _, converged = absorbing_probe(
            damped_system, laws, SchemeConfig(dt=1e-2), radius=0.0,
            t_final=0.5, n_ensemble=8, sample_stride=5)
        assert t0 == 0.0 and converged is True

    def test_unforced_decay_plateaus_near_zero(self, damped_system):
        _, plateau, _ = absorbing_probe(
            damped_system, LINEAR, SchemeConfig(dt=1e-2), radius=1.0,
            t_final=30.0, n_ensemble=8, sample_stride=20, seed=5)
        assert plateau < 0.2  # pure decay: well inside the unit ball

    def test_ensemble_size_floor(self, damped_system):
        with pytest.raises(ValueError):
            absorbing_probe(damped_system, LINEAR, SchemeConfig(dt=1e-2),
                            radius=1.0, t_final=1.0, n_ensemble=4)
