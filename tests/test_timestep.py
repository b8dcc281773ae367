from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given
from hypothesis import strategies as st

from conftest import desk_system, force_laws, last_state, p1_law, toarray
from gapbeam import (
    ForceLaw,
    InitSpec,
    Laws,
    NewtonDivergence,
    NormalCompliance,
    SchemeConfig,
    initial_state,
    simulate,
    state_norm,
    total_energy,
)
from gapbeam.discretize import N_LEFT, N_RIGHT, AssemblyError, CooMatrix
from gapbeam.model import body_force, contact_traction
from gapbeam.timestep import BLOCK, BandFactor, MidpointStepper

LINEAR = Laws()


class TestStep:
    def test_zero_state_is_fixed_point(self, damped_system):
        s0 = initial_state(damped_system, InitSpec("zero"))
        cfg = SchemeConfig(dt=1e-2)
        traj = simulate(damped_system, s0, LINEAR, cfg, cfg.dt)
        for arr in last_state(traj):
            assert np.all(arr == 0.0)
        assert traj.times[-1] == pytest.approx(1e-2)

    def test_midpoint_conserves_linear_energy(self, conservative_system):
        cfg = SchemeConfig(dt=1e-2, newton_tol=1e-12)
        s0 = initial_state(conservative_system, InitSpec("mode", amplitude=1.0,
                                                         amplitude_psi=0.3, mode=2))
        e0 = total_energy(conservative_system, *s0, LINEAR)
        s1 = last_state(simulate(conservative_system, s0, LINEAR, cfg, cfg.dt))
        e1 = total_energy(conservative_system, *s1, LINEAR)
        assert abs(e1 - e0) <= 10 * cfg.newton_tol * max(1.0, e0)

    def test_damped_energy_decreases(self, damped_system):
        cfg = SchemeConfig(dt=1e-2)
        s = initial_state(damped_system,
                          InitSpec("mode", amplitude=1.0, amplitude_psi=0.5))
        e_prev = total_energy(damped_system, *s, LINEAR)
        for _ in range(20):
            s = last_state(simulate(damped_system, s, LINEAR, cfg, cfg.dt))
            e = total_energy(damped_system, *s, LINEAR)
            assert e <= e_prev + 1e-12
            e_prev = e

    def test_balance_residual_tracks_dissipation(self, damped_system):
        cfg = SchemeConfig(dt=1e-3, newton_tol=1e-12)
        s = initial_state(damped_system,
                          InitSpec("mode", amplitude=1.0, amplitude_psi=0.5))
        traj = simulate(damped_system, s, LINEAR, cfg, 1000 * cfg.dt,
                        sample_stride=1)
        assert len(traj.balance) == 1001
        for res in traj.balance:
            assert abs(res) <= 10 * cfg.newton_tol

    def test_balance_residual_zero_states(self, damped_system):
        cfg = SchemeConfig(dt=1e-3)
        z = initial_state(damped_system, InitSpec("zero"))
        traj = simulate(damped_system, z, LINEAR, cfg, 1000 * cfg.dt,
                        sample_stride=1)
        assert all(res == 0.0 for res in traj.balance)

    def test_unconditional_stability_large_dt(self, damped_system):
        s = initial_state(damped_system, InitSpec("mode", amplitude=1.0))
        e0 = total_energy(damped_system, *s, LINEAR)
        for dt in (0.1, 1.0, 10.0):
            cfg = SchemeConfig(dt=dt)
            s1 = last_state(simulate(damped_system, s, LINEAR, cfg, cfg.dt))
            assert total_energy(damped_system, *s1, LINEAR) <= e0 + 1e-12

    def test_tip_identification(self):
        system = desk_system(ne=8, tip=0.5)
        s = initial_state(system, InitSpec("mode", amplitude=0.2, mode=1))
        cfg = SchemeConfig(dt=1e-2)
        u1, w1 = last_state(simulate(system, s, LINEAR, cfg, cfg.dt))
        assert system.expand(u1)[0][-1] == u1[system.tip_slot]
        assert system.expand(w1)[0][-1] == w1[system.tip_slot]


class TestOrderOfAccuracy:
    def test_second_order_against_matrix_exponential(self):
        system = desk_system(ne=8, gamma1=0.7, gamma2=0.4,
                             tip=0.3)
        s0 = initial_state(system, InitSpec("mode", amplitude=1.0, amplitude_psi=0.4))
        u0, w0 = s0
        n = system.n_free
        m_inv = np.linalg.inv(toarray(system.M))
        a_std = np.block([[np.zeros((n, n)), np.eye(n)],
                          [-m_inv @ toarray(system.K), -m_inv @ np.diag(system.D)]])
        z_ref = sla.expm(a_std) @ np.concatenate([u0, w0])
        errs = []
        for dt in (0.05, 0.025, 0.0125, 0.00625):
            traj = simulate(system, s0, LINEAR, SchemeConfig(dt=dt), 1.0,
                            sample_stride=10**9)
            u1 = traj.U[-1]
            errs.append(np.linalg.norm(u1 - z_ref[:n]))
        ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
        assert all(3.5 <= r <= 4.5 for r in ratios), ratios


class TestSimulate:
    def test_zero_horizon_returns_initial_only(self, conservative_system):
        s0 = initial_state(conservative_system, InitSpec("mode", amplitude=0.5))
        traj = simulate(conservative_system, s0, LINEAR, SchemeConfig(dt=1e-3), 0.0)
        assert len(traj) == 1
        assert list(traj.times) == [0.0]

    def test_horizon_must_be_whole_steps(self, conservative_system):
        # 0.0105 / 1e-3 = 10.5 steps: no silent stop at 0.010
        s0 = initial_state(conservative_system, InitSpec("mode", amplitude=0.5))
        cfg = SchemeConfig(dt=1e-3)
        with pytest.raises(ValueError, match="not a whole number of dt"):
            simulate(conservative_system, s0, LINEAR, cfg, 0.0105)
        with pytest.raises(ValueError, match="nonnegative"):
            simulate(conservative_system, s0, LINEAR, cfg, -1e-3)
        traj = simulate(conservative_system, s0, LINEAR, cfg, 0.3)
        assert len(traj) == 301

    def test_sampling_matches_a_manual_step_loop(self, damped_system):
        # 23 steps at stride 5: step 0, every fifth step and the trailing
        # partial stride at step 23, each row bitwise the stepper's own
        cfg = SchemeConfig(dt=1e-3)
        u, w = initial_state(damped_system, InitSpec("mode", amplitude=1.0,
                                                     amplitude_psi=0.5))
        traj = simulate(damped_system, (u, w), LINEAR, cfg, 23 * cfg.dt,
                        sample_stride=5)
        stepper = MidpointStepper(damped_system, LINEAR, cfg)
        times, U, W = [0.0], [u], [w]
        for k in range(1, 24):
            u, w = stepper.step_reduced(u, w, (k - 1) * cfg.dt)
            if k in (5, 10, 15, 20, 23):
                times.append(k * cfg.dt)
                U.append(u)
                W.append(w)
        assert len(traj) == 6
        assert traj.times.tobytes() == np.array(times).tobytes()
        assert traj.U.tobytes() == np.array(U).tobytes()
        assert traj.W.tobytes() == np.array(W).tobytes()

    def test_deterministic(self, damped_system):
        cfg = SchemeConfig(dt=1e-3)
        s0 = initial_state(damped_system, InitSpec("random_ball", radius=1.0, seed=42))
        t1 = simulate(damped_system, s0, LINEAR, cfg, 0.05, sample_stride=10)
        t2 = simulate(damped_system, s0, LINEAR, cfg, 0.05, sample_stride=10)
        assert np.array_equal(t1.U, t2.U)
        assert np.array_equal(t1.W, t2.W)
        assert np.array_equal(t1.balance, t2.balance)

    def test_energy_series_nonincreasing(self, damped_system):
        s0 = initial_state(damped_system, InitSpec("gaussian", amplitude=0.7))
        traj = simulate(damped_system, s0, LINEAR, SchemeConfig(dt=1e-3), 0.5,
                        sample_stride=20)
        es = [total_energy(damped_system, u, w, LINEAR)
              for u, w in zip(traj.U, traj.W)]
        assert all(b <= a + 1e-10 for a, b in zip(es, es[1:]))

    def test_divergence_reports_failing_time(self):
        system = desk_system(ne=8, tip=1e-6)
        laws = Laws(contact=p1_law(1e10, g_lo=-0.01, g_hi=0.01))
        s0 = initial_state(system, InitSpec("mode_velocity", amplitude=50.0))
        with pytest.raises(NewtonDivergence) as err:
            simulate(system, s0, laws, SchemeConfig(dt=0.05, newton_max=2), 0.5)
        assert err.value.summary["t_fail"] > 0.0
        assert err.value.summary["last_residual"] > 0.0


class TestContactStepping:
    def test_penalty_kink_steps_converge(self):
        system = desk_system(ne=16, gamma1=1.0, gamma2=1.0,
                             tip=1e-3)
        laws = Laws(contact=p1_law(1e3, g_lo=-0.05, g_hi=0.05))
        s0 = initial_state(system, InitSpec("mode_velocity", amplitude=0.5, mode=2))
        traj = simulate(system, s0, laws, SchemeConfig(dt=2e-4), 0.5,
                        sample_stride=50)
        es = [total_energy(system, u, w, laws) for u, w in zip(traj.U, traj.W)]
        assert all(b <= a + 1e-7 for a, b in zip(es, es[1:]))
        assert abs(traj.U[:, system.tip_slot]).max() > 0.05  # contact engaged

    def test_compliance_p1_kink(self):
        system = desk_system(ne=16, gamma1=1.0, gamma2=1.0)
        laws = Laws(contact=NormalCompliance(d1=200.0, d2=200.0, p=1,
                                             g_lo=-0.05, g_hi=0.05))
        s0 = initial_state(system, InitSpec("mode_velocity", amplitude=0.5, mode=2))
        traj = simulate(system, s0, laws, SchemeConfig(dt=5e-4), 0.5,
                        sample_stride=50)
        es = [total_energy(system, u, w, laws) for u, w in zip(traj.U, traj.W)]
        assert all(b <= a + 1e-7 for a, b in zip(es, es[1:]))

    def test_body_force_steps_converge(self):
        system = desk_system(ne=8, gamma1=1.0)
        laws = Laws(force_f=ForceLaw(mu=2.0, alpha=1.0),
                    force_g=ForceLaw(mu=1.0, alpha=2.0))
        s0 = initial_state(system, InitSpec("mode", amplitude=0.8, amplitude_psi=0.4))
        cfg = SchemeConfig(dt=1e-3, newton_tol=1e-12, newton_max=8)
        traj = simulate(system, s0, laws, cfg, 0.05)
        assert len(traj) == 51

    def test_stiff_body_force_rescued_by_bisection(self):
        # mu (alpha+1)|s|^alpha dt^2 is not small next to 4 rho here: the
        # chord iteration diverges at dt and converges at dt/2
        system = desk_system(ne=8, gamma1=1.0)
        laws = Laws(force_f=ForceLaw(mu=3e3, alpha=1.0))
        s0 = initial_state(system, InitSpec("mode", amplitude=1.0))
        cfg = SchemeConfig(dt=2e-2)
        u0, w0 = s0
        with pytest.raises(NewtonDivergence):
            MidpointStepper(system, laws, cfg)._solve_step(u0, w0, cfg.dt, cfg.dt)
        traj = simulate(system, s0, laws, cfg, cfg.dt)
        assert traj.times[-1] == pytest.approx(cfg.dt)
        assert np.all(np.isfinite(traj.U[-1]))


def body_slope(s, law):
    """Exact d(body_force)/ds: mu (alpha+1)|s|^alpha, mu R^alpha past cutoff_r."""
    a = np.abs(s)
    inner = law.mu * (law.alpha + 1.0) * a**law.alpha
    if law.cutoff_r is None:
        return inner
    return np.where(a <= law.cutoff_r, inner, law.mu * law.cutoff_r**law.alpha)


def dense_body_terms(system, laws, um):
    """Reduced body-force load at the midpoint um and its exact Jacobian."""
    mesh = system.mesh
    nn = mesh.nn
    load, T = np.zeros(2 * nn), np.zeros((2 * nn, 2 * nn))
    for offset, nodal, law in zip((0, nn), system.expand(um),
                                  (laws.force_f, laws.force_g)):
        if law.mu == 0.0:
            continue
        sg = mesh.at_gauss(nodal)
        wf = mesh.gauss_weights * body_force(sg, law)
        wd = mesh.gauss_weights * body_slope(sg, law)
        idx = np.arange(nn - 1) + offset
        load[idx] += wf @ N_LEFT
        load[idx + 1] += wf @ N_RIGHT
        T[idx, idx] += wd @ (N_LEFT * N_LEFT)
        T[idx + 1, idx + 1] += wd @ (N_RIGHT * N_RIGHT)
        T[idx, idx + 1] += wd @ (N_LEFT * N_RIGHT)
        T[idx + 1, idx] += wd @ (N_LEFT * N_RIGHT)
    return system.reduce(load), T[1:-1, 1:-1]


def dense_midpoint_residual(system, laws, u, w, up, dt):
    """Midpoint residual at u+ and its exact tangent, from dense operators.

    R(u+) = 2/dt^2 M (u+ - u) - 2/dt M w + K um + D (u+ - u)/dt - load
            + body(um) - traction(v_m) e_tip,  um = (u + u+)/2
    """
    M, K, D = toarray(system.M), toarray(system.K), np.diag(system.D)
    h = system.mesh.widths
    nodal_load = (np.append(h, 0.0) + np.insert(h, 0, 0.0)) / 2.0
    load = system.reduce(np.concatenate([laws.force_f.f0 * nodal_load,
                                         laws.force_g.f0 * nodal_load]))
    tip = system.tip_slot
    um = 0.5 * (u + up)
    body, body_tangent = dense_body_terms(system, laws, um)
    R = (2.0 / dt**2) * M @ (up - u) - (2.0 / dt) * M @ w + K @ um \
        + D @ (up - u) / dt - load + body
    traction, slope = stop_terms(um[tip], laws.contact)
    R[tip] -= traction
    T = 2.0 / dt**2 * M + D / dt + 0.5 * K + 0.5 * body_tangent
    T[tip, tip] -= 0.5 * slope
    return R, T


def stop_terms(v, law):
    """contact_traction's (traction, slope) of a stop law; (0, 0) at a free end."""
    return (0.0, 0.0) if law is None else contact_traction(v, law)


def dense_midpoint_step(system, laws, u, w, dt):
    """Reference step: exact Newton on the midpoint equations, dense solves."""
    up = u + dt * w
    for _ in range(50):
        R, T = dense_midpoint_residual(system, laws, u, w, up, dt)
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
                             tip=0.3)
        laws = Laws(contact=self.COMPLIANCE,
                    force_f=ForceLaw(mu=mu, alpha=1.0, f0=0.25),
                    force_g=ForceLaw(mu=mu, alpha=1.0, f0=-0.1))
        u0, _ = initial_state(system,
                              InitSpec("mode", amplitude=0.1, amplitude_psi=0.05))
        phi0, _ = system.expand(u0)
        w0 = system.reduce(np.concatenate([0.3 * phi0, np.zeros(system.mesh.nn)]))
        assert u0[system.tip_slot] > self.COMPLIANCE.g_hi
        dt = 1e-2
        cfg = SchemeConfig(dt=dt, newton_tol=1e-14)
        # newton_tol bounds the residual, not the error: with the body force
        # out of the tangent, chord stops at 1e-14 with w off by rel 5e-12
        # from exact Newton, so the body case is compared at 1e-16
        agree = cfg if mu == 0.0 else SchemeConfig(dt=dt, newton_tol=1e-16)
        u1, w1 = last_state(simulate(system, (u0, w0), laws, agree, dt))
        u_ref, w_ref = dense_midpoint_step(system, laws, u0, w0, dt)
        v_mid = 0.5 * (u0 + u_ref)[system.tip_slot]
        assert contact_traction(v_mid, self.COMPLIANCE)[1] != 0.0
        np.testing.assert_allclose(u1, u_ref, rtol=0,
                                   atol=1e-12 * np.abs(u_ref).max())
        np.testing.assert_allclose(w1, w_ref, rtol=0,
                                   atol=1e-12 * np.abs(w_ref).max())
        # with the contact slope in the tangent as a rank-one update, two
        # corrections suffice here; a wrong slope costs more
        _, _, iterations, _ = MidpointStepper(system, laws, cfg)._solve_step(
            u0, w0, dt, dt)
        assert iterations == 2


def banded_spd(n, seed):
    """A random diagonally dominant SPD matrix of half-bandwidth 3, with its
    dofs shuffled: returned as (coordinate list, dense, rank), where dof i
    sits at position rank[i] of the banded order."""
    rng = np.random.default_rng(seed)
    B = np.zeros((n, n))
    for k in range(1, min(n, 4)):
        off = rng.uniform(-1.0, 1.0, n - k)
        B += np.diag(off, k) + np.diag(off, -k)
    B += np.diag(np.abs(B).sum(axis=1) + rng.uniform(0.5, 1.5, n))
    rank = rng.permutation(n)
    A = B[np.ix_(rank, rank)]
    rows, cols = np.nonzero(A)
    return CooMatrix(rows, cols, A[rows, cols], n), A, rank


def assert_solves(factor, dense, seed=0):
    """factor.solve agrees with np.linalg.solve to 1e-13 relative."""
    rng = np.random.default_rng(seed)
    for f in (rng.standard_normal(len(dense)), np.eye(len(dense))[-1]):
        ref = np.linalg.solve(dense, f)
        np.testing.assert_allclose(factor.solve(f), ref, rtol=0,
                                   atol=1e-13 * np.abs(ref).max())


class TestBandFactor:
    @pytest.mark.parametrize("n", [1, 4, BLOCK - 1, BLOCK, BLOCK + 1, BLOCK + 3,
                                   BLOCK + 4, 2 * (BLOCK + 3) + 1, 12 * BLOCK + 5])
    def test_solve_matches_dense_solve(self, n):
        A, dense, rank = banded_spd(n, seed=n)
        assert_solves(BandFactor(A, rank), dense, seed=n)

    # n = 2 ne dofs: below BLOCK, equal to it, above it, many times it
    @pytest.mark.parametrize("ne", [4, BLOCK // 2, BLOCK // 2 + 1, 6 * BLOCK])
    @pytest.mark.parametrize("tip", [0.0,
                                     0.3],
                             ids=["free_end", "damped_tip"])
    def test_step_matrix_solve_matches_dense_solve(self, ne, tip):
        system = desk_system(ne=ne, gamma1=1.0, gamma2=0.5, xi=Fraction(2, 5),
                             tip=tip)
        for dt in (1e-3, 1e-2):
            stepper = MidpointStepper(system, LINEAR, SchemeConfig(dt=dt))
            J, factor, _, z_tip = stepper._base_operators(dt)
            dense = toarray(J)
            np.testing.assert_allclose(
                dense, 2.0 / dt**2 * toarray(system.M)
                + np.diag(system.D) / dt + 0.5 * toarray(system.K),
                rtol=1e-15, atol=0.0)
            assert_solves(factor, dense, seed=ne)
            e_tip = np.eye(system.n_free)[system.tip_slot]
            np.testing.assert_allclose(z_tip, np.linalg.solve(dense, e_tip),
                                       rtol=0, atol=1e-13 * np.abs(z_tip).max())
            x = np.random.default_rng(ne).standard_normal(J.n)
            scale = np.abs(dense).max() * np.abs(x).max()
            np.testing.assert_allclose(J @ x, dense @ x, rtol=0,
                                       atol=1e-14 * scale)

    def test_any_negative_pivot_is_an_assembly_error(self):
        # one negative diagonal entry makes A indefinite, whether it falls in
        # an interior block or in a separator
        n = 2 * (BLOCK + 3) + 5
        A, _, rank = banded_spd(n, seed=1)
        for i in range(n):
            vals = np.where((A.rows == i) & (A.cols == i), -1.0, A.vals)
            with pytest.raises(AssemblyError, match="not positive definite"):
                BandFactor(CooMatrix(A.rows, A.cols, vals, n), rank)

    def test_nan_is_an_assembly_error(self):
        A, _, rank = banded_spd(BLOCK + 8, seed=2)
        vals = A.vals.copy()
        vals[len(vals) // 2] = np.nan
        with pytest.raises(AssemblyError, match="non-finite"):
            BandFactor(CooMatrix(A.rows, A.cols, vals, A.n), rank)

    def test_entry_outside_the_band_is_an_assembly_error(self):
        A, _, rank = banded_spd(20, seed=3)
        far = np.argsort(rank)[[0, 10]]   # positions 0 and 10 of the band
        with pytest.raises(AssemblyError, match="not banded"):
            BandFactor(CooMatrix(np.append(A.rows, far), np.append(A.cols, far[::-1]),
                                 np.append(A.vals, [0.1, 0.1]), A.n), rank)


def contact_laws():
    """Hypothesis strategy: the free end (None) or one of the two stop laws."""
    gaps = {"g_lo": st.floats(-0.05, -0.001), "g_hi": st.floats(0.001, 0.05)}
    return st.one_of(
        st.none(),
        st.builds(NormalCompliance, d1=st.floats(1.0, 200.0),
                  d2=st.floats(1.0, 200.0), p=st.sampled_from([1, 2, 3]), **gaps),
        st.builds(p1_law, d=st.floats(10.0, 1e3), **gaps),
    )


class TestStepContract:
    @given(force_f=force_laws(), force_g=force_laws(), contact=contact_laws(),
           tip_eps=st.none() | st.floats(0.05, 1.0),
           gamma1=st.floats(0.0, 2.0), gamma2=st.floats(0.0, 2.0),
           radius=st.floats(0.1, 2.0), seed=st.integers(0, 2**16),
           dt=st.floats(1e-4, 1e-2))
    def test_accepted_step_meets_newton_tol(self, force_f, force_g, contact,
                                            tip_eps, gamma1, gamma2, radius,
                                            seed, dt):
        # the corrector only promises a small step residual; check it against
        # the dense midpoint equations, not the stepper's own residual
        tip = 0.0 if tip_eps is None else tip_eps
        system = desk_system(ne=8, gamma1=gamma1, gamma2=gamma2, tip=tip)
        laws = Laws(contact=contact, force_f=force_f, force_g=force_g)
        cfg = SchemeConfig(dt=dt)
        u, w = initial_state(system, InitSpec("random_ball", radius=radius, seed=seed))
        up, wp, _, _ = MidpointStepper(system, laws, cfg)._solve_step(u, w, dt, dt)
        R, _ = dense_midpoint_residual(system, laws, u, w, up, dt)
        m, k = (np.abs(toarray(A)).sum(axis=1).max()
                for A in (system.M, system.K))
        d = np.abs(system.D).max()
        fscale = 2.0 / dt**2 * m + d / dt + 0.5 * k
        res = np.linalg.norm(R) / (fscale * max(1.0, np.linalg.norm(up)))
        assert res <= cfg.newton_tol
        # w+ = 2 (u+ - u)/dt - w up to the rounding of u+ - u
        scale = np.abs(u).max() + np.abs(up).max() + dt * np.abs(w).max()
        np.testing.assert_allclose(wp, 2.0 * (up - u) / dt - w, rtol=0,
                                   atol=1e-14 * scale / dt)


class TestEnergyIdentity:
    @given(force_f=force_laws(), force_g=force_laws(), contact=contact_laws(),
           tip_eps=st.none() | st.floats(0.05, 1.0),
           gamma1=st.floats(0.0, 2.0), gamma2=st.floats(0.0, 2.0),
           radius=st.floats(0.1, 2.0), seed=st.integers(0, 2**16),
           dt=st.floats(1e-4, 1e-2))
    def test_one_step_energy_identity(self, force_f, force_g, contact, tip_eps,
                                      gamma1, gamma2, radius, seed, dt):
        # dotting the midpoint equations with delta = u+ - u gives
        #   E(u+, w+) - E(u, w) + dt wm.D.wm = delta.F(um),
        # E = w.M.w/2 + u.K.u/2 and F the constant load, minus the body
        # force, plus the contact traction at um; the accepted step leaves a
        # residual R of at most newton_tol * fscale * max(1, |u+|), so the
        # defect delta.R stays within that scale times |delta|
        tip = 0.0 if tip_eps is None else tip_eps
        system = desk_system(ne=8, gamma1=gamma1, gamma2=gamma2, tip=tip)
        laws = Laws(contact=contact, force_f=force_f, force_g=force_g)
        cfg = SchemeConfig(dt=dt)
        u, w = initial_state(system, InitSpec("random_ball", radius=radius, seed=seed))
        up, wp, _, _ = MidpointStepper(system, laws, cfg)._solve_step(u, w, dt, dt)
        M, K, D = toarray(system.M), toarray(system.K), np.diag(system.D)
        delta, um = up - u, 0.5 * (u + up)
        wm = delta / dt
        h = system.mesh.widths
        nodal_load = (np.append(h, 0.0) + np.insert(h, 0, 0.0)) / 2.0
        load = system.reduce(np.concatenate([force_f.f0 * nodal_load,
                                             force_g.f0 * nodal_load]))
        body, _ = dense_body_terms(system, laws, um)
        F = load - body
        F[system.tip_slot] += stop_terms(um[system.tip_slot], contact)[0]

        def quadratic_energy(u, w):
            return 0.5 * w @ M @ w + 0.5 * u @ K @ u

        defect = (quadratic_energy(up, wp) - quadratic_energy(u, w)
                  + dt * wm @ D @ wm - delta @ F)
        m, d, k = (np.abs(A).sum(axis=1).max() for A in (M, D, K))
        fscale = 2.0 / dt**2 * m + d / dt + 0.5 * k
        tol = cfg.newton_tol * fscale * max(1.0, np.linalg.norm(up))
        assert abs(defect) <= 2.0 * tol * np.linalg.norm(delta) + 1e-13


class TestInitialData:
    def test_zero(self, conservative_system):
        s = initial_state(conservative_system, InitSpec("zero"))
        assert state_norm(conservative_system, *s) == 0.0

    def test_modes_satisfy_essential_conditions(self, conservative_system):
        # the half-wave pair on the free nodes, zero at phi(0) and psi(ell)
        x = conservative_system.mesh.nodes
        for kind in ("mode", "mode_velocity"):
            for m in (1, 2, 3):
                init = InitSpec(kind, amplitude=1.0, amplitude_psi=1.0, mode=m)
                u, w = initial_state(conservative_system, init)
                data, rest = (u, w) if kind == "mode" else (w, u)
                assert np.all(rest == 0.0)
                phi, psi = conservative_system.expand(data)
                a = (2 * m - 1) * np.pi / 2.0
                assert phi[0] == 0.0 and psi[-1] == 0.0
                np.testing.assert_array_equal(phi[1:], np.sin(a * x[1:]))
                np.testing.assert_array_equal(psi[:-1], np.cos(a * x[:-1]))

    def test_gaussian_pulse(self, conservative_system):
        u, w = initial_state(conservative_system, InitSpec("gaussian", amplitude=2.0))
        phi, psi = conservative_system.expand(u)
        assert phi[0] == 0.0
        assert phi.max() == pytest.approx(2.0, rel=1e-2)
        assert np.all(psi == 0.0) and np.all(w == 0.0)

    def test_random_ball_inside_radius_and_seeded(self, conservative_system):
        for seed in (0, 1, 7):
            s = initial_state(conservative_system,
                              InitSpec("random_ball", radius=2.5, seed=seed))
            assert state_norm(conservative_system, *s) <= 2.5 + 1e-12
        a = initial_state(conservative_system,
                          InitSpec("random_ball", radius=1.0, seed=3))
        b = initial_state(conservative_system,
                          InitSpec("random_ball", radius=1.0, seed=3))
        assert np.array_equal(a, b)


class TestSchemeConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SchemeConfig(dt=0.0)
        with pytest.raises(ValueError):
            SchemeConfig(dt=1e-3, newton_max=0)
