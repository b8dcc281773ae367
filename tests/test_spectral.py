import dataclasses
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from conftest import desk_beam, desk_system, toarray
from gapbeam import (assemble, build_mesh, generator, spectrum,
                     trend_toward_zero, xi_study)
from gapbeam.discretize import AssemblyError, band_cholesky, band_solve
from gapbeam.model import EXCLUDED, STABILIZING
from gapbeam.spectral import (DimensionCapExceeded, SpectrumCertificateError,
                              certify, det_and_derivative, modal_form,
                              secular_roots)


def dense_lower(band):
    """The dense lower triangle held in LAPACK's lower band storage."""
    n = band.shape[1]
    return sum(np.diag(band[k, :n - k], -k) for k in range(band.shape[0]))


def energy_form(system):
    """The dense generator A = [[0, B], [-B^T, -G]] in energy coordinates.

    In the node order, x = (R^T.u, L^T.u') with M = L.L^T and K = R.R^T, so
    |x|^2 / 2 is the energy, B = R^T.L^-T and G = L^-1.D.L^-T, built from the
    factors the spectrum uses; similar to the pencil, skew without damping.
    """
    n, rank = system.n_free, system.node_rank
    L = band_cholesky(system.M.lower_band(rank))
    Bt = band_solve(L, dense_lower(band_cholesky(system.K.lower_band(rank))))
    Linv = band_solve(L, np.eye(n))
    d = np.empty(n)
    d[rank] = system.D
    A = np.zeros((2 * n, 2 * n))
    A[:n, n:] = Bt.T
    A[n:, :n] = -Bt
    A[n:, n:] = -(Linv @ np.diag(d) @ Linv.T)
    return A


def paired_rel(lam, ref):
    """Largest relative distance of the one-to-one nearest pairing."""
    assert lam.shape == ref.shape
    i, j = linear_sum_assignment(np.abs(lam[:, None] - ref[None, :]))
    return float(np.max(np.abs(lam[i] - ref[j]) / np.abs(ref[j])))


def backward_errors(system, lam):
    """Each root's backward error on the quadratic pencil P = z^2 M + z D + K.

    eta(z) = sigma_min(P(z)) / (|z|^2 |M|_2 + |z| |D|_2 + |K|_2) (Tisseur,
    Linear Algebra Appl. 309, 2000): an oracle as accurate as the roots, where
    QZ on the unbalanced first-order pencil is not.
    """
    M, K = (toarray(op) for op in (system.M, system.K))
    D = np.diag(system.D)
    norm_M, norm_D, norm_K = (np.linalg.norm(A, 2) for A in (M, D, K))
    # P(conj z) = conj P(z) has the same singular values: a root and its
    # exact conjugate share one eta
    upper, back = np.unique(lam.real + 1j * np.abs(lam.imag), return_inverse=True)
    eta = []
    for z in np.array_split(upper, -(-upper.size // 64)):
        P = z[:, None, None] ** 2 * M + z[:, None, None] * D + K
        a = np.abs(z)
        eta.append(np.linalg.svd(P, compute_uv=False)[:, -1]
                   / (a * a * norm_M + a * norm_D + norm_K))
    return np.concatenate(eta)[back]


# bound on eta in units of n_free * eps: every certified root measured came
# within 1.83 of them (ne 2-128, gamma up to 3e4, tip off to 1)
ETA_BOUND = 8.0


def generalized_qz_eigenvalues(system):
    """Eigenvalues of [[0, I], [-K, -D]] against blockdiag(I, M) by dense QZ."""
    n = system.n_free
    A = np.block([[np.zeros((n, n)), np.eye(n)],
                  [-toarray(system.K), -np.diag(system.D)]])
    B = np.block([[np.eye(n), np.zeros((n, n))],
                  [np.zeros((n, n)), toarray(system.M)]])
    return sla.eig(A, B, right=False)


class TestGenerator:
    def test_pencil_shape_and_blocks(self, damped_system):
        # the pencil carries the system's operators, nothing densified and no
        # product arrays built
        pen = generator(damped_system)
        assert pen.K is damped_system.K
        assert pen.D is damped_system.D
        assert pen.M is damped_system.M
        for op in (pen.K, pen.M):
            assert "_by_row" not in vars(op)
        assert pen.n == 2 * damped_system.n_free


class TestSpectrum:
    def test_undamped_purely_imaginary(self, conservative_system):
        lam = spectrum(generator(conservative_system))
        assert abs(lam[0].real) <= 1e-10
        assert np.max(np.abs(lam.real)) <= 1e-10

    def test_conjugate_symmetry(self, damped_system):
        lam = spectrum(generator(damped_system))
        for z in lam[np.abs(lam.imag) > 1e-12]:
            assert np.min(np.abs(lam - z.conjugate())) < 1e-8

    def test_dissipative_abscissa(self, damped_system):
        lam = spectrum(generator(damped_system))
        assert lam[0].real == lam.real.max() < 0.0
        assert np.abs(lam.real).min() == pytest.approx(abs(lam[0].real))

    def test_ordering_descending_real(self, damped_system):
        lam = spectrum(generator(damped_system))
        assert np.all(np.diff(lam.real) <= 1e-14)

    def test_dense_cap_error_names_the_largest_mesh(self, damped_system,
                                                    monkeypatch):
        # the way out the cap error names is the largest admissible mesh;
        # the shift_invert option it once pointed to is gone
        monkeypatch.setattr("gapbeam.spectral.DENSE_CAP", 10)
        pen = generator(damped_system)
        with pytest.raises(DimensionCapExceeded,
                           match=rf"dimension {pen.n} exceeds DENSE_CAP = 10") as err:
            spectrum(pen)
        msg = str(err.value)
        assert "largest admissible mesh has ne = 2" in msg
        assert "shift_invert" not in msg

    @pytest.mark.parametrize("ne, gamma1, gamma2, xi, tip", [
        (16, 1.0, 1.0, Fraction(1, 2), 0.0),
        (16, 1.0, 1.0, Fraction(1, 2), 1e-1),
        (16, 1.0, 1.0, Fraction(1, 2), 1e-4),
        (16, 1.0, 0.0, Fraction(2, 3), 0.0),
        (64, 10.0, 10.0, Fraction(1, 2), 0.0),
        (16, 100.0, 100.0, Fraction(1, 2), 1e-2),
        # two roots near 206.6i and -199.9i once cycled at rounding level
        (64, 1e3, 1e3, Fraction(1, 2), 1.0),
        # xi-study's beam: near-paired poles above omega = 100
        (64, 1.0, 0.0, Fraction(1, 2), 0.0),
        (64, 1.0, 0.0, Fraction(2, 3), 0.0),
    ], ids=["damped", "hybrid-1e-1", "hybrid-1e-4", "xi-2/3-gamma2-0",
            "overdamped-real-pairs", "overdamped-hybrid-1e-2",
            "stiff-dampers-hybrid-1", "xi-study-1/2", "xi-study-2/3"])
    def test_matches_generalized_qz(self, ne, gamma1, gamma2, xi, tip):
        system = desk_system(ne=ne, gamma1=gamma1, gamma2=gamma2, xi=xi, tip=tip)
        lam = spectrum(generator(system))
        assert backward_errors(system, lam).max() <= \
            ETA_BOUND * system.n_free * np.finfo(float).eps
        ref = generalized_qz_eigenvalues(system)
        # pair the two sets one to one by distance before comparing
        assert paired_rel(lam, ref) <= 1e-8
        if gamma1 >= 10.0:
            # overdamped: some eigenvalues are real, not conjugate pairs
            def n_real(z):
                return np.sum(np.abs(z.imag) <= 1e-12 * np.abs(z))
            assert n_real(ref) >= 2 and n_real(lam) == n_real(ref)

    @given(ne=st.integers(2, 12),
           gammas=st.tuples(*[st.just(0.0) | st.floats(1e-3, 1e4)] * 2),
           eps=st.none() | st.floats(1e-4, 1.0),
           xi=st.sampled_from([Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)]))
    def test_small_systems_match_qz(self, ne, gammas, eps, xi):
        tip = 0.0 if eps is None else eps
        system = desk_system(ne=ne, gamma1=gammas[0], gamma2=gammas[1], xi=xi,
                             tip=tip)
        lam = spectrum(generator(system))
        assert backward_errors(system, lam).max() <= \
            ETA_BOUND * system.n_free * np.finfo(float).eps
        assert paired_rel(lam, generalized_qz_eigenvalues(system)) <= 1e-8

    @pytest.mark.parametrize("ne, gamma1, gamma2, tip, xi", [
        (24, 67.26772033689875, 68679.3957528006, 0.034039051574199834,
         Fraction(3, 5)),
        (39, 2652.687422882303, 55488466.4153976, 0.0, Fraction(3, 4)),
        (20, 39.6, 4.81e3, 2.05, Fraction(1, 2)),
        (27, 311100.60862094036, 16328709.165201643, 1.6137115485410702,
         Fraction(3, 4)),
        (17, 25725.880192059816, 100230479.95628545, 0.20191848220880068,
         Fraction(1, 2)),
        (19, 78609523.80147575, 2746998465.129879, 0.0040145831615323695,
         Fraction(3, 4)),
        (37, 476.6090452909833, 1474728309.9018736, 0.9415665181847255,
         Fraction(1, 2)),
        (39, 5143.5119125460105, 48654.06680046265, 0.01133974442754162,
         Fraction(2, 3)),
        (29, 18507.18878515957, 25989607391.111145, 0.004966675694475398,
         Fraction(1, 4)),
        (35, 273510.20188641665, 5125465600.439863, 0.0017216334919619304,
         Fraction(3, 4)),
        (26, 58.15386655103804, 3455909553.4124002, 2.2961666336540456,
         Fraction(1, 2)),
    ], ids=["ne24-xi3/5", "ne39-xi3/4", "ne20-xi1/2", "ne27-xi3/4",
            "ne17-xi1/2", "ne19-xi3/4", "ne37-xi1/2", "ne39-xi2/3",
            "ne29-xi1/4", "ne35-xi3/4", "ne26-xi1/2"])
    def test_roots_cycling_above_rounding_stop(self, ne, gamma1, gamma2, tip,
                                               xi):
        # stiff dampers leave a root stepping a few rounding units of |z| to
        # and fro; these ran out of sweeps under a stop bound of one rounding
        # unit (the failures of tools/secular_probe.py, and a third config)
        system = desk_system(ne=ne, gamma1=gamma1, gamma2=gamma2, xi=xi,
                             tip=tip)
        assert spectrum(generator(system)).size == 4 * (system.mesh.nn - 1)

    def test_paired_high_modes_backward_error(self):
        # xi-study's finest xi = 1/2 row: above omega = 300 the poles come in
        # pairs about 0.8 apart and the roots sit about 0.55 from their poles
        system = desk_system(ne=160, gamma1=1.0, xi=Fraction(1, 2))
        lam = spectrum(generator(system))
        high = lam[lam.imag > 300.0]
        high = high[np.argsort(high.imag)]
        assert high.size >= 100
        sample = high[np.linspace(0, high.size - 1, 8).astype(int)]
        assert backward_errors(system, sample).max() <= \
            ETA_BOUND * system.n_free * np.finfo(float).eps

    @pytest.mark.parametrize("xi, rel", [(Fraction(1, 2), 1e-9),
                                         (Fraction(2, 3), 1e-4)],
                             ids=["xi-1/2", "xi-2/3"])
    def test_abscissa_matches_refined_eigenpair(self, xi, rel):
        # independent reference: inverse iteration on the quadratic pencil at
        # the computed eigenvalue, then Re lam = -x*Dx / (2 x*Mx), a ratio of
        # two positive energies.  These are xi-study's finest rows; the dense
        # eigenvalues of the 2n x 2n energy form missed them by rel 8.9e-9
        # and 3.4e-2
        system = desk_system(ne=160, gamma1=1.0, xi=xi)
        lam = spectrum(generator(system))[0]
        K, M = (sp.csc_array((op.vals, (op.rows, op.cols)), shape=(op.n, op.n))
                for op in (system.K, system.M))
        D = sp.diags_array(system.D, format="csc")
        x = np.ones(system.n_free, dtype=complex)
        for _ in range(3):
            x = spla.spsolve((lam**2 * M + lam * D + K).tocsc(),
                             (2 * lam * M + D) @ x)
            x /= np.linalg.norm(x)
        ref = -np.vdot(x, D @ x).real / (2 * np.vdot(x, M @ x).real)
        assert lam.real == pytest.approx(ref, rel=rel)

    def test_undamped_energy_form_is_skew(self, conservative_system):
        A = energy_form(conservative_system)
        assert np.array_equal(A.T, -A)
        # the tip body's damping makes the symmetric part -G, negative
        # semidefinite with one nonzero direction
        A = energy_form(desk_system(ne=16, tip=1e-2))
        sym = np.linalg.eigvalsh(A + A.T)
        assert sym.min() < -1e-3 and sym.max() <= 1e-14
        assert np.sum(np.abs(sym) > 1e-12) == 1

    def test_modal_form_is_similar_to_the_energy_form(self, damped_system):
        # [[0, Omega], [-Omega, -Q.Q^T]] has the eigenvalues of A
        omega, Q = modal_form(generator(damped_system))
        n = omega.size
        modal = np.block([[np.zeros((n, n)), np.diag(omega)],
                          [-np.diag(omega), -Q @ Q.T]])
        lam = np.linalg.eigvals(modal)
        assert paired_rel(lam, np.linalg.eigvals(energy_form(damped_system))) \
            <= 1e-10

    def test_undamped_roots_are_the_poles(self, conservative_system):
        # no damping slot: every mode is set aside, its roots exactly +-i.omega
        omega, Q = modal_form(generator(conservative_system))
        assert Q.shape == (omega.size, 0)
        assert np.array_equal(secular_roots(omega, Q), np.zeros(2 * omega.size))

    def test_certificate_rejects_bad_root_sets(self, damped_system):
        omega, Q = modal_form(generator(damped_system))
        delta = secular_roots(omega, Q)
        certify(omega, Q, delta)
        moved = delta.copy()
        moved[3] *= 1.0 + 1e-6
        dropped = delta[1:]
        # the root nearest the axis, pushed across it
        pushed = delta.copy()
        k = int(np.argmax(delta.real))
        pushed[k] = abs(delta[k].real) + 1j * delta[k].imag
        for roots, check in ((moved, "trace"), (dropped, "count"),
                             (pushed, "sign")):
            with pytest.raises(SpectrumCertificateError, match=check):
                certify(omega, Q, roots)

    def test_multiple_poles_keep_undamped_combinations(self):
        # at a tiny length the phi and psi chains decouple and their
        # frequencies pair up within rounding; with the transverse damper
        # alone, one mode of each pair stays undamped
        beam = dataclasses.replace(desk_beam(gamma1=1.0), ell=1e-30)
        system = assemble(build_mesh(beam.ell, beam.xi, 8), beam, 0.0)
        omega, Q = modal_form(generator(system))
        assert np.sum(np.diff(omega) == 0.0) >= 4
        lam = spectrum(generator(system))
        assert lam[0].real == 0.0
        assert np.sum(lam.real < 0.0) >= omega.size // 2

    def test_cap_is_checked_before_dense_work(self):
        system = desk_system(ne=1024)
        tracemalloc.start()
        try:
            pen = generator(system)
            assert pen.n == 4096
            with pytest.raises(DimensionCapExceeded) as err:
                spectrum(pen)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20
        msg = str(err.value)
        assert "4096" in msg and "DENSE_CAP" in msg
        assert "shift" not in msg  # no pointer to a removed option

    def test_indefinite_stiffness_is_an_assembly_error(self, damped_system):
        K = damped_system.K
        system = dataclasses.replace(
            damped_system, K=dataclasses.replace(K, vals=-K.vals))
        with pytest.raises(AssemblyError, match="stiffness operator is not positive"):
            spectrum(generator(system))

    def test_hybrid_same_mesh_same_dimension(self):
        # the tip coordinate is identified with the end-deflection dof, so the
        # hybrid pencil has the same size as the traction-free one
        plain = desk_system(ne=8)
        hybrid = desk_system(ne=8, tip=1e-2)
        assert generator(plain).n == generator(hybrid).n


class TestClosedFormDeterminant:
    """det_and_derivative against LAPACK's det and the Jacobi column sum."""

    @given(r=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1),
           tau=st.sampled_from([1.0, 1e-6, 1e-12, 0.0]))
    def test_matches_det_and_jacobi_sum(self, r, seed, tau):
        # tau scales the last column's part off the span of the others:
        # small tau is the nearly singular F of a converged root
        rng = np.random.default_rng(seed)

        def draw(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        F, dF = draw(16, r, r), draw(16, r, r)
        F[..., -1] = (F[..., :-1] @ draw(16, r - 1, 1))[..., 0] \
            + tau * F[..., -1]
        det, ddet = det_and_derivative(F, dF)
        if r == 1:
            assert np.array_equal(det, F[:, 0, 0])
            assert np.array_equal(ddet, dF[:, 0, 0])
            return
        replaced = [np.concatenate([F[..., :j], dF[..., j:j + 1],
                                    F[..., j + 1:]], axis=-1) for j in range(r)]

        def hadamard(A):  # |det A| <= the product of its column norms
            return np.prod(np.linalg.norm(A, axis=-2), axis=-1)

        tol = 8 * r * np.finfo(float).eps
        assert np.all(np.abs(det - np.linalg.det(F)) <= tol * hadamard(F))
        jacobi = sum(np.linalg.det(A) for A in replaced)
        assert np.all(np.abs(ddet - jacobi)
                      <= tol * sum(hadamard(A) for A in replaced))


class TestMassFactor:
    """The Python-float banded factor and its solve against LAPACK's."""

    def random_band(self, n, p, seed):
        rng = np.random.default_rng(seed)
        band = np.zeros((p + 1, n))
        for k in range(1, p + 1):
            band[k, :n - k] = rng.uniform(-1.0, 1.0, n - k)
        band[0] = 2.0 * p + rng.uniform(0.0, 1.0, n)  # diagonally dominant: SPD
        return band

    @pytest.mark.parametrize("seed", [0, 1])
    def test_factor_matches_cholesky_banded(self, seed):
        for p in (1, 2, 3):
            band = self.random_band(50, p, seed)
            ref = sla.cholesky_banded(band, lower=True)
            np.testing.assert_allclose(band_cholesky(band), ref, rtol=1e-14,
                                       atol=0.0)

    def test_mass_factor_reproduces_mass(self):
        # M has half-bandwidth 1 in the reduced numbering and 2 in the node
        # order, K 3 in the node order
        system = desk_system(ne=16, tip=1e-4)
        n, node = system.n_free, system.node_rank
        for A, rank, p in ((system.M, np.arange(n), 1), (system.M, node, 2),
                           (system.K, node, 3)):
            band = A.lower_band(rank)
            assert band.shape == (p + 1, n)
            L = dense_lower(band_cholesky(band))
            slot = np.argsort(rank)   # the slot at each position
            np.testing.assert_allclose(L @ L.T, toarray(A)[np.ix_(slot, slot)],
                                       rtol=0.0,
                                       atol=1e-15 * np.abs(A.vals).max())

    def test_solve_matches_dtbtrs(self):
        L = band_cholesky(self.random_band(60, 2, 2))
        rhs = np.random.default_rng(3).standard_normal((60, 4))
        ref, info = sla.lapack.dtbtrs(L, rhs, uplo="L")
        assert info == 0
        got = band_solve(L, rhs.copy())
        np.testing.assert_allclose(got, ref, rtol=1e-13,
                                   atol=1e-13 * np.abs(ref).max())

    @pytest.mark.parametrize("diag, sub", [
        ([1.0, 1.0, 1.0], [0.5, 2.0]),     # second pivot 0.75, third < 0
        ([1.0, -1.0], [0.0]),
        ([0.0, 1.0], [0.0]),
        ([1.0, np.nan], [0.0]),
        # positive definite, but the second pivot rounds to eps.A_11
        ([1.0, 1.0], [1.0 - 2.0 ** -53]),
    ])
    def test_indefinite_or_nan_is_a_linalg_error(self, diag, sub):
        with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
            band_cholesky(np.stack([diag, np.append(sub, 0.0)]))


class TestStopHeldTip:
    """C07's last row: with the tip held by the stop the beam barely decays.

    The penalty row eps_pen = 1e-4 ties the tip body at epsilon = 1e-4.  With
    the tip on the stop, the linearization adds 1/eps_pen to K at the tip
    slot; a damper at l/2 then leaves a mode with a time constant of
    thousands of seconds, against 1/0.011 s with the tip free.
    """

    @pytest.mark.parametrize("ne", [32, 64])
    def test_held_abscissa_hundredfold_closer_to_zero(self, ne):
        system = desk_system(ne=ne, gamma1=1.0, gamma2=1.0,
                             tip=1e-4)
        K, tip = system.K, system.tip_slot
        held_K = dataclasses.replace(K, rows=np.append(K.rows, tip),
                                     cols=np.append(K.cols, tip),
                                     vals=np.append(K.vals, 1.0 / 1e-4))
        held = dataclasses.replace(system, K=held_K)
        free_abscissa = spectrum(generator(system))[0].real
        held_abscissa = spectrum(generator(held))[0].real
        assert free_abscissa < 0.0 and held_abscissa < 0.0
        assert 100.0 * abs(held_abscissa) <= abs(free_abscissa)


class TestEpsilonSweep:
    def test_hybrid_approaches_non_hybrid(self):
        non_hybrid = spectrum(generator(
            desk_system(ne=32, gamma1=1.0, gamma2=1.0)))[0].real
        gaps = []
        for eps in (1e-2, 1e-3, 1e-4):
            system = desk_system(ne=32, gamma1=1.0, gamma2=1.0,
                                 tip=eps)
            abscissa = spectrum(generator(system))[0].real
            assert abscissa < 0.0
            gaps.append(abs(abscissa - non_hybrid))
        assert gaps[-1] < gaps[0]
        assert gaps[-1] <= 0.25 * abs(non_hybrid)


class TestXiStudy:
    def test_verdicts_and_dissipativity(self):
        beam = desk_beam(gamma1=1.0, gamma2=0.0)
        rows = xi_study(beam, 0.0, [Fraction(1, 2), Fraction(2, 3)], [16, 32])
        assert len(rows) == 4
        by_xi = {}
        for xi, _, abscissa, verdict in rows:
            assert abscissa <= 1e-10
            by_xi.setdefault(xi, []).append(verdict)
        assert by_xi == {Fraction(1, 2): [STABILIZING] * 2,
                         Fraction(2, 3): [EXCLUDED] * 2}

    def test_cap_is_checked_before_the_first_solve(self, monkeypatch):
        # a too fine last mesh fails before the coarse rows are solved
        monkeypatch.setattr("gapbeam.spectral.assemble", None)
        with pytest.raises(DimensionCapExceeded, match="4004"):
            xi_study(desk_beam(), 0.0, [Fraction(1, 2)], [8, 1001])

    def test_undamped_rows_sit_on_axis(self):
        beam = desk_beam(gamma1=0.0, gamma2=0.0)
        rows = xi_study(beam, 0.0,
                        [Fraction(1, 2), Fraction(2, 3), Fraction(1, 3)], [16])
        for _, _, abscissa, _ in rows:
            assert abs(abscissa) <= 1e-10

    def test_trend_helper(self):
        mk = lambda ne, a: (Fraction(2, 3), ne, a, EXCLUDED)
        # the finest row halves the coarsest's distance and ends within 1e-6
        assert trend_toward_zero([mk(128, -1e-7), mk(32, -1e-3)])
        assert not trend_toward_zero([mk(32, -1e-3), mk(128, -9e-4)])
        assert not trend_toward_zero([mk(32, -1e-3), mk(128, -2e-6)])
