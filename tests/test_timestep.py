import numpy as np
import pytest
import scipy.linalg as sla

from conftest import desk_system
from gapbeam import (
    ForceLaw,
    Laws,
    NewtonDivergence,
    NormalCompliance,
    SchemeConfig,
    SignoriniPenalty,
    State,
    TipParams,
    initial_state,
    simulate,
    state_norm,
    total_energy,
)
from gapbeam.model import contact_stiffness, contact_traction
from gapbeam.timestep import MidpointStepper

LINEAR = Laws()


class TestStep:
    def test_zero_state_is_fixed_point(self, damped_system):
        s0 = State.zeros(damped_system.mesh)
        cfg = SchemeConfig(dt=1e-2)
        s1 = simulate(damped_system, s0, LINEAR, cfg, cfg.dt).states[-1]
        for arr in (s1.phi, s1.psi, s1.phi_t, s1.psi_t):
            assert np.all(arr == 0.0)
        assert s1.t == pytest.approx(1e-2)

    def test_midpoint_conserves_linear_energy(self, conservative_system):
        cfg = SchemeConfig(dt=1e-2, newton_tol=1e-12)
        s0 = initial_state(conservative_system, "mode", amplitude=1.0,
                           amplitude_psi=0.3, mode=2)
        e0 = total_energy(conservative_system, s0, LINEAR)
        s1 = simulate(conservative_system, s0, LINEAR, cfg, cfg.dt).states[-1]
        e1 = total_energy(conservative_system, s1, LINEAR)
        assert abs(e1 - e0) <= 10 * cfg.newton_tol * max(1.0, e0)

    def test_damped_energy_decreases(self, damped_system):
        cfg = SchemeConfig(dt=1e-2)
        s = initial_state(damped_system, "mode", amplitude=1.0, amplitude_psi=0.5)
        e_prev = total_energy(damped_system, s, LINEAR)
        for _ in range(20):
            s = simulate(damped_system, s, LINEAR, cfg, cfg.dt).states[-1]
            e = total_energy(damped_system, s, LINEAR)
            assert e <= e_prev + 1e-12
            e_prev = e

    def test_balance_residual_tracks_dissipation(self, damped_system):
        cfg = SchemeConfig(dt=1e-3, newton_tol=1e-12)
        s = initial_state(damped_system, "mode", amplitude=1.0, amplitude_psi=0.5)
        traj = simulate(damped_system, s, LINEAR, cfg, 1000 * cfg.dt,
                        sample_stride=1)
        assert len(traj.balance_residuals) == 1001
        for res in traj.balance_residuals:
            assert abs(res) <= 10 * cfg.newton_tol

    def test_balance_residual_zero_states(self, damped_system):
        cfg = SchemeConfig(dt=1e-3)
        z = State.zeros(damped_system.mesh)
        traj = simulate(damped_system, z, LINEAR, cfg, 1000 * cfg.dt,
                        sample_stride=1)
        assert all(res == 0.0 for res in traj.balance_residuals)

    def test_unconditional_stability_large_dt(self, damped_system):
        s = initial_state(damped_system, "mode", amplitude=1.0)
        e0 = total_energy(damped_system, s, LINEAR)
        for dt in (0.1, 1.0, 10.0):
            cfg = SchemeConfig(dt=dt)
            s1 = simulate(damped_system, s, LINEAR, cfg, cfg.dt).states[-1]
            assert total_energy(damped_system, s1, LINEAR) <= e0 + 1e-12

    def test_tip_identification(self):
        system = desk_system(ne=8, tip=TipParams(enabled=True, epsilon=0.5))
        s = initial_state(system, "mode", amplitude=0.2, mode=1)
        cfg = SchemeConfig(dt=1e-2)
        s1 = simulate(system, s, LINEAR, cfg, cfg.dt).states[-1]
        assert s1.v == s1.phi[-1]
        assert s1.v_t == s1.phi_t[-1]


class TestOrderOfAccuracy:
    def test_second_order_against_matrix_exponential(self):
        system = desk_system(ne=8, gamma1=0.7, gamma2=0.4,
                             tip=TipParams(enabled=True, epsilon=0.3))
        s0 = initial_state(system, "mode", amplitude=1.0, amplitude_psi=0.4)
        u0, w0 = s0.pack(system)
        n = system.n_free
        m_inv = np.linalg.inv(system.M.toarray())
        a_std = np.block([[np.zeros((n, n)), np.eye(n)],
                          [-m_inv @ system.K, -m_inv @ system.D]])
        z_ref = sla.expm(a_std) @ np.concatenate([u0, w0])
        errs = []
        for dt in (0.05, 0.025, 0.0125, 0.00625):
            traj = simulate(system, s0, LINEAR, SchemeConfig(dt=dt), 1.0,
                            sample_stride=10**9)
            u1, _ = traj.states[-1].pack(system)
            errs.append(np.linalg.norm(u1 - z_ref[:n]))
        ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
        assert all(3.5 <= r <= 4.5 for r in ratios), ratios


class TestSimulate:
    def test_zero_horizon_returns_initial_only(self, conservative_system):
        s0 = initial_state(conservative_system, "mode", amplitude=0.5)
        traj = simulate(conservative_system, s0, LINEAR, SchemeConfig(dt=1e-3), 0.0)
        assert len(traj) == 1
        assert traj.times == [0.0]

    def test_horizon_must_be_whole_steps(self, conservative_system):
        # 0.0105 / 1e-3 = 10.5 steps: no silent stop at 0.010
        s0 = initial_state(conservative_system, "mode", amplitude=0.5)
        cfg = SchemeConfig(dt=1e-3)
        with pytest.raises(ValueError, match="not a whole number of dt"):
            simulate(conservative_system, s0, LINEAR, cfg, 0.0105)
        with pytest.raises(ValueError, match="nonnegative"):
            simulate(conservative_system, s0, LINEAR, cfg, -1e-3)
        traj = simulate(conservative_system, s0, LINEAR, cfg, 0.3)
        assert len(traj) == 301

    def test_deterministic(self, damped_system):
        cfg = SchemeConfig(dt=1e-3)
        s0 = initial_state(damped_system, "random_ball", radius=1.0, seed=42)
        t1 = simulate(damped_system, s0, LINEAR, cfg, 0.05, sample_stride=10)
        t2 = simulate(damped_system, s0, LINEAR, cfg, 0.05, sample_stride=10)
        for a, b in zip(t1.states, t2.states):
            assert np.array_equal(a.phi, b.phi)
            assert np.array_equal(a.phi_t, b.phi_t)
        assert t1.balance_residuals == t2.balance_residuals

    def test_energy_series_nonincreasing(self, damped_system):
        s0 = initial_state(damped_system, "gaussian", amplitude=0.7)
        traj = simulate(damped_system, s0, LINEAR, SchemeConfig(dt=1e-3), 0.5,
                        sample_stride=20)
        es = [total_energy(damped_system, s, LINEAR) for s in traj.states]
        assert all(b <= a + 1e-10 for a, b in zip(es, es[1:]))

    def test_divergence_reports_failing_time(self):
        system = desk_system(ne=8, tip=TipParams(enabled=True, epsilon=1e-6))
        laws = Laws(contact=SignoriniPenalty(eps_pen=1e-10, g_lo=-0.01, g_hi=0.01))
        s0 = initial_state(system, "mode_velocity", amplitude=50.0)
        with pytest.raises(NewtonDivergence) as err:
            simulate(system, s0, laws, SchemeConfig(dt=0.05, newton_max=2), 0.5)
        assert err.value.t > 0.0
        assert err.value.residual > 0.0


class TestContactStepping:
    def test_penalty_kink_steps_converge(self):
        system = desk_system(ne=16, gamma1=1.0, gamma2=1.0,
                             tip=TipParams(enabled=True, epsilon=1e-3))
        laws = Laws(contact=SignoriniPenalty(eps_pen=1e-3, g_lo=-0.05, g_hi=0.05))
        s0 = initial_state(system, "mode_velocity", amplitude=0.5, mode=2)
        traj = simulate(system, s0, laws, SchemeConfig(dt=2e-4), 0.5,
                        sample_stride=50)
        es = [total_energy(system, s, laws) for s in traj.states]
        assert all(b <= a + 1e-7 for a, b in zip(es, es[1:]))
        assert max(abs(s.v) for s in traj.states) > 0.05  # contact engaged

    def test_compliance_p1_kink(self):
        system = desk_system(ne=16, gamma1=1.0, gamma2=1.0)
        laws = Laws(contact=NormalCompliance(d1=200.0, d2=200.0, p=1,
                                             g_lo=-0.05, g_hi=0.05))
        s0 = initial_state(system, "mode_velocity", amplitude=0.5, mode=2)
        traj = simulate(system, s0, laws, SchemeConfig(dt=5e-4), 0.5,
                        sample_stride=50)
        es = [total_energy(system, s, laws) for s in traj.states]
        assert all(b <= a + 1e-7 for a, b in zip(es, es[1:]))

    def test_body_force_newton_uses_analytic_tangent(self):
        system = desk_system(ne=8, gamma1=1.0)
        laws = Laws(force_f=ForceLaw(mu=2.0, alpha=1.0),
                    force_g=ForceLaw(mu=1.0, alpha=2.0))
        s0 = initial_state(system, "mode", amplitude=0.8, amplitude_psi=0.4)
        cfg = SchemeConfig(dt=1e-3, newton_tol=1e-12, newton_max=8)
        traj = simulate(system, s0, laws, cfg, 0.05)
        assert len(traj) == 51


def dense_midpoint_step(system, laws, u, w, dt):
    """Reference step: Newton on the midpoint equations, dense tangent solves.

    R(u+) = 2/dt^2 M (u+ - u) - 2/dt M w + K um + D (u+ - u)/dt - load
            + body(um) - traction(v_m) e_tip,  um = (u + u+)/2
    """
    M, K, D = (A.toarray() for A in (system.M, system.K, system.D))
    laws_eval = MidpointStepper(system, laws, SchemeConfig(dt=dt))
    h = system.mesh.widths
    nodal_load = (np.append(h, 0.0) + np.insert(h, 0, 0.0)) / 2.0
    load = system.reduce(np.concatenate([laws.force_f.f0 * nodal_load,
                                         laws.force_g.f0 * nodal_load]))
    tip = system.tip_slot
    up = u + dt * w
    for _ in range(50):
        um = 0.5 * (u + up)
        phi_m, psi_m = system.expand(um)
        R = (2.0 / dt**2) * M @ (up - u) - (2.0 / dt) * M @ w + K @ um \
            + D @ (up - u) / dt - load + laws_eval._body_force_reduced(phi_m, psi_m)
        R[tip] -= contact_traction(um[tip], laws.contact)
        T = 2.0 / dt**2 * M + D / dt + 0.5 * K \
            + 0.5 * laws_eval._body_tangent(phi_m, psi_m)
        T[tip, tip] -= 0.5 * contact_stiffness(um[tip], laws.contact)
        delta = np.linalg.solve(T, -R)
        up = up + delta
        if np.linalg.norm(delta) <= 1e-15 * np.linalg.norm(up):
            break
    return up, 2.0 * (up - u) / dt - w


class TestSparseStepAgainstDense:
    # the tip starts at v = 0.1, beyond g_hi: the compliance law is active
    COMPLIANCE = NormalCompliance(d1=100.0, d2=50.0, p=2, g_lo=-0.05, g_hi=0.05)

    @pytest.mark.parametrize("mu", [0.0, 2.0], ids=["contact", "body+contact"])
    def test_one_step_matches_dense_newton(self, mu):
        system = desk_system(ne=12, gamma1=1.0, gamma2=0.5,
                             tip=TipParams(enabled=True, epsilon=0.3))
        laws = Laws(contact=self.COMPLIANCE,
                    force_f=ForceLaw(mu=mu, alpha=1.0, f0=0.25),
                    force_g=ForceLaw(mu=mu, alpha=1.0, f0=-0.1))
        s0 = initial_state(system, "mode", amplitude=0.1, amplitude_psi=0.05)
        s0.phi_t = 0.3 * s0.phi
        assert s0.v > self.COMPLIANCE.g_hi
        dt = 1e-2
        cfg = SchemeConfig(dt=dt, newton_tol=1e-14)
        u1, w1 = simulate(system, s0, laws, cfg, dt).states[-1].pack(system)
        u0, w0 = s0.pack(system)
        u_ref, w_ref = dense_midpoint_step(system, laws, u0, w0, dt)
        v_mid = 0.5 * (u0 + u_ref)[system.tip_slot]
        assert contact_stiffness(v_mid, self.COMPLIANCE) != 0.0
        np.testing.assert_allclose(u1, u_ref, rtol=0,
                                   atol=1e-12 * np.abs(u_ref).max())
        np.testing.assert_allclose(w1, w_ref, rtol=0,
                                   atol=1e-12 * np.abs(w_ref).max())
        # with the exact tangent, the rank-one contact update included, Newton
        # needs two corrections here; a wrong slope costs more
        _, _, iterations, _ = MidpointStepper(system, laws, cfg)._solve_step(
            u0, w0, dt, dt)
        assert iterations == 2


class TestInitialData:
    def test_zero(self, conservative_system):
        s = initial_state(conservative_system, "zero")
        assert state_norm(conservative_system, s) == 0.0

    def test_modes_satisfy_essential_conditions(self, conservative_system):
        for kind in ("mode", "mode_velocity"):
            for m in (1, 2, 3):
                s = initial_state(conservative_system, kind, amplitude=1.0,
                                  amplitude_psi=1.0, mode=m)
                assert s.phi[0] == 0.0 and s.psi[-1] == 0.0
                assert s.phi_t[0] == 0.0 and s.psi_t[-1] == 0.0

    def test_gaussian_pulse(self, conservative_system):
        s = initial_state(conservative_system, "gaussian", amplitude=2.0)
        assert s.phi[0] == 0.0
        assert s.phi.max() == pytest.approx(2.0, rel=1e-2)
        assert np.all(s.psi == 0.0)

    def test_random_ball_inside_radius_and_seeded(self, conservative_system):
        for seed in (0, 1, 7):
            s = initial_state(conservative_system, "random_ball", radius=2.5,
                              seed=seed)
            assert state_norm(conservative_system, s) <= 2.5 + 1e-12
        a = initial_state(conservative_system, "random_ball", radius=1.0, seed=3)
        b = initial_state(conservative_system, "random_ball", radius=1.0, seed=3)
        assert np.array_equal(a.phi, b.phi)

    def test_unknown_kind_rejected(self, conservative_system):
        with pytest.raises(ValueError):
            initial_state(conservative_system, "sawtooth")


class TestSchemeConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SchemeConfig(dt=0.0)
        with pytest.raises(ValueError):
            SchemeConfig(dt=1e-3, newton_max=0)
