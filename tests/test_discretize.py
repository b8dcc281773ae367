import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from conftest import desk_beam, desk_system
from gapbeam import (
    Laws,
    SchemeConfig,
    assemble,
    build_mesh,
    energy,
    initial_state,
    recover_stress,
    simulate,
)
from gapbeam.discretize import AssemblyError, CooMatrix, element_strains


class TestBuildMesh:
    def test_uniform_halves(self):
        mesh = build_mesh(1.0, 0.5, 4)
        np.testing.assert_allclose(mesh.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert mesh.xi_index == 2

    def test_proportional_split(self):
        mesh = build_mesh(3.0, 2.0, 3)
        np.testing.assert_allclose(mesh.nodes, [0.0, 1.0, 2.0, 3.0])
        assert mesh.xi_index == 2

    def test_xi_exactly_a_node(self):
        # the ends too, exactly, on short and long beams
        for ell in (1.0, 3.7, 1e-3):
            for xi in (ell / 3.0, 2.0 * ell / 3.0, 0.123456 * ell):
                mesh = build_mesh(ell, xi, 37)
                assert mesh.nodes[mesh.xi_index] == xi
                assert (mesh.nodes[0], mesh.nodes[-1]) == (0.0, ell)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            build_mesh(1.0, 1.2, 8)
        with pytest.raises(ValueError):
            build_mesh(1.0, 0.5, 1)

    def test_each_side_keeps_an_element(self):
        mesh = build_mesh(1.0, 0.01, 4)
        assert 1 <= mesh.xi_index <= mesh.ne - 1


class TestAssemble:
    def test_no_damping_gives_zero_d(self, conservative_system):
        assert np.count_nonzero(conservative_system.D) == 0

    def test_damping_rank_at_most_three(self):
        # D, the diagonal, is nonzero exactly at phi(xi), psi(xi), phi(ell)
        system = desk_system(ne=12, gamma1=1.0, gamma2=2.0, tip=0.5)
        assert system.D.shape == (system.n_free,)
        phi, psi = system.expand(system.D)
        xi, end = system.mesh.xi_index, system.mesh.nn - 1
        assert np.flatnonzero(phi).tolist() == [xi, end]
        assert np.flatnonzero(psi).tolist() == [xi]
        assert (phi[xi], psi[xi], phi[end]) == (1.0, 2.0, 0.5)
        assert system.D[system.tip_slot] == 0.5

    def test_mass_of_uniform_velocity(self):
        # the eliminated phi(0) and psi(ell) each take 2h/3 of their field's
        # mass rho*l out of the reduced sum (row h/2 twice, diagonal h/3 back)
        beam = desk_beam()
        mesh = build_mesh(1.0, 0.5, 10)
        h = 0.1
        reduced = beam.rho1 * (beam.ell - 2 * h / 3) + beam.rho2 * (beam.ell - 2 * h / 3)
        system = assemble(mesh, beam, 0.0)
        ones = np.ones(system.n_free)
        assert ones @ (system.M @ ones) == pytest.approx(reduced)
        system_tip = assemble(mesh, beam, 0.25)
        assert ones @ (system_tip.M @ ones) == pytest.approx(reduced + 0.25)

    def test_shear_kernel_contains_pure_bending_state(self):
        # phi = x, psi = -1 has zero shear strain; the midpoint strain of its
        # interpolant must vanish too, at any resolution
        for ne in (4, 16, 64):
            mesh = build_mesh(1.0, 0.5, ne)
            gamma, _ = element_strains(mesh, mesh.nodes, -np.ones(mesh.nn))
            assert np.max(np.abs(gamma)) < 1e-14

    def test_patch_constant_rotation(self):
        mesh = build_mesh(1.0, 0.5, 8)
        c = 0.7
        gamma, _ = element_strains(mesh, -c * mesh.nodes, c * np.ones(mesh.nn))
        assert np.max(np.abs(gamma)) < 1e-14

    def test_stiffness_quadratic_form_is_energy(self):
        # manufactured half-wave: closed-form shear+bending integrals
        a = 1.5 * math.pi
        amp_phi, amp_psi = 0.8, -0.3
        closed = 0.5 * quad_energy(a, amp_phi, amp_psi)
        errs = []
        for ne in (32, 64):
            mesh = build_mesh(1.0, 0.5, ne)
            system = assemble(mesh, desk_beam(), 0.0)
            u = system.reduce(np.concatenate([amp_phi * np.sin(a * mesh.nodes),
                                              amp_psi * np.cos(a * mesh.nodes)]))
            errs.append(abs(0.5 * u @ (system.K @ u) - closed) / closed)
        assert errs[0] < 0.01
        assert errs[0] / errs[1] > 3.0  # second-order quadrature error

    def test_stiffness_form_is_sum_of_element_energies(self):
        # u.K.u against the strain helper, on a nonuniform mesh with the tip
        eps = 0.4
        system = desk_system(ne=12, xi=Fraction(2, 5), tip=eps)
        rng = np.random.default_rng(3)
        for _ in range(5):
            u = rng.standard_normal(system.n_free)
            rep = energy(system, u, np.zeros_like(u), Laws())
            parts = (rep["potential_shear"] + rep["potential_bend"]
                     + 0.5 * eps * u[system.tip_slot]**2)
            assert 0.5 * u @ (system.K @ u) == pytest.approx(parts, rel=1e-12)

    def test_matches_dense_element_loop(self):
        # nonuniform mesh (xi = 2/5 splits 12 elements 5 + 7), tip and both
        # dampers on, tip damping included
        tip = 0.4
        system = desk_system(ne=12, gamma1=1.0, gamma2=2.0, xi=Fraction(2, 5),
                             tip=tip)
        assert len(set(np.round(system.mesh.widths, 12))) == 2
        M, K, D = dense_reference_operators(system.mesh, system.beam, tip)
        for ours, dense in ((system.M.toarray(), M), (system.K.toarray(), K),
                            (np.diag(system.D), D)):
            np.testing.assert_allclose(ours, dense, rtol=1e-14,
                                       atol=1e-14 * np.abs(dense).max())

    def test_undamped_generator_is_skew(self, conservative_system):
        system = conservative_system
        n = system.n_free
        A = np.block([[np.zeros((n, n)), np.eye(n)],
                      [-system.K.toarray(), -np.diag(system.D)]])
        B = np.block([[np.eye(n), np.zeros((n, n))],
                      [np.zeros((n, n)), system.M.toarray()]])
        lam = sla.eig(A, B, right=False)
        assert np.max(np.abs(lam.real)) < 1e-10


class TestProducts:
    """A @ x on the fixed-width arrays against the dense matrix."""

    @staticmethod
    def assert_products(A, seed):
        dense = A.toarray()
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(A.n)
        atol = 1e-14 * np.abs(dense).sum(axis=1).max() * np.abs(x).max()
        np.testing.assert_allclose(A @ x, dense @ x, rtol=0, atol=atol)
        np.testing.assert_allclose(A.abs_row_sums(), np.abs(dense).sum(axis=1),
                                   rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("name", ["M", "K"])
    def test_operators(self, name):
        system = desk_system(ne=12, gamma1=1.0, gamma2=2.0, xi=Fraction(2, 5),
                             tip=0.4)
        self.assert_products(getattr(system, name), seed=len(name))

    def test_unsymmetric_list_with_repeats_and_empty_rows(self):
        # a transposed product or a lost repeat would show here, where the
        # symmetric operators cannot tell A from its transpose
        rng = np.random.default_rng(4)
        n, nnz = 9, 40
        A = CooMatrix(rng.integers(0, n - 2, nnz), rng.integers(0, n, nnz),
                      rng.standard_normal(nnz), n)
        assert np.any(A.toarray() != A.toarray().T)
        self.assert_products(A, seed=5)

    def test_row_sums_add_in_column_order_as_csr(self):
        # the step's force scale reads these sums; they equal scipy's CSR
        # row sums bit for bit
        system = desk_system(ne=64, gamma1=1.0, gamma2=1.0,
                             tip=1e-2)
        for A in (system.M, system.K):
            csr = sp.csr_array((A.vals, (A.rows, A.cols)), shape=(A.n, A.n))
            assert np.array_equal(A.abs_row_sums(), abs(csr).sum(axis=1))


def dense_reference_operators(mesh, beam, tip):
    """Element-by-element dense assembly of the reduced M, K, D."""
    nn = mesh.nn
    nd = 2 * nn
    M = np.zeros((nd, nd))
    K = np.zeros((nd, nd))
    for e in range(nn - 1):
        h = mesh.nodes[e + 1] - mesh.nodes[e]
        m_e = h / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]])
        iphi = [e, e + 1]
        ipsi = [nn + e, nn + e + 1]
        M[np.ix_(iphi, iphi)] += beam.rho1 * m_e
        M[np.ix_(ipsi, ipsi)] += beam.rho2 * m_e
        K[np.ix_(ipsi, ipsi)] += beam.b / h * np.array([[1.0, -1.0], [-1.0, 1.0]])
        g = np.array([-1.0 / h, 1.0 / h, 0.5, 0.5])
        K[np.ix_(iphi + ipsi, iphi + ipsi)] += beam.k * h * np.outer(g, g)
    # eliminate phi(0) and psi(ell), the first and last full dofs
    M = M[1:-1, 1:-1].copy()
    K = K[1:-1, 1:-1].copy()
    D = np.zeros_like(M)
    tip_slot = nn - 2
    D[mesh.xi_index - 1, mesh.xi_index - 1] = beam.gamma1
    D[nn + mesh.xi_index - 1, nn + mesh.xi_index - 1] = beam.gamma2
    M[tip_slot, tip_slot] += tip
    K[tip_slot, tip_slot] += tip
    D[tip_slot, tip_slot] += tip
    return M, K, D


def quad_energy(a, amp_phi, amp_psi):
    """Exact 2x potential of phi=A sin(ax), psi=C cos(ax) on [0,1] (unit k, b)."""
    # int (phi_x+psi)^2 = (aA+C)^2 * int cos^2, int psi_x^2 = (aC)^2 * int sin^2
    int_cos2 = 0.5 + math.sin(2 * a) / (4 * a)
    int_sin2 = 0.5 - math.sin(2 * a) / (4 * a)
    return (a * amp_phi + amp_psi) ** 2 * int_cos2 + (a * amp_psi) ** 2 * int_sin2


def _displacement(system, phi):
    """Reduced displacement with nodal deflection phi and zero rotation."""
    return system.reduce(np.concatenate([phi, np.zeros(system.mesh.nn)]))


class TestRecoverStress:
    def test_zero_state(self, conservative_system):
        u = np.zeros(conservative_system.n_free)
        assert recover_stress(conservative_system, u) == 0.0
        gamma, kappa = element_strains(conservative_system.mesh,
                                       *conservative_system.expand(u))
        assert not gamma.any() and not kappa.any()

    def test_linear_field_gives_constant_shear(self, conservative_system):
        # k*gamma is 1 and b*kappa is 0 on every element, the end's included;
        # a block of states gives one end stress per state
        mesh, beam = conservative_system.mesh, conservative_system.beam
        u = _displacement(conservative_system, mesh.nodes)
        gamma, kappa = element_strains(mesh, *conservative_system.expand(u))
        np.testing.assert_allclose(beam.k * gamma, 1.0)
        np.testing.assert_allclose(beam.b * kappa, 0.0, atol=1e-12)
        S = recover_stress(conservative_system, np.stack([u, 2.0 * u]))
        assert S.shape == (2,)
        assert S == pytest.approx([1.0, 2.0])

    def test_interface_jump_matches_damper_under_refinement(self):
        # the transmission defect |[[S]](xi) - gamma1*phi_t(xi)| of the
        # computed solution, the shear forces of the elements on either side
        # of the damper node, shrinks ~O(h) on smooth data
        defects = []
        for ne in (16, 64):
            system = desk_system(ne=ne, gamma1=1.0, gamma2=1.0)
            s0 = initial_state(system, "mode", amplitude=1.0, amplitude_psi=0.5)
            traj = simulate(system, s0, Laws(), SchemeConfig(dt=2.5e-4), 1.0,
                            sample_stride=40)
            i = system.mesh.xi_index
            gamma, _ = element_strains(system.mesh, *system.expand(traj.U))
            S_l, S_r = system.beam.k * gamma[:, i - 1], system.beam.k * gamma[:, i]
            phi_t, _ = system.expand(traj.W)
            defect = abs((S_r - S_l) - 1.0 * phi_t[:, i])
            defects.append(defect.max())
        assert defects[1] < 0.4 * defects[0]


class TestGuards:
    def test_mass_positive_definite_guard(self):
        mesh = build_mesh(1.0, 0.5, 6)
        system = assemble(mesh, desk_beam(), 0.0)
        np.linalg.cholesky(system.M.toarray())  # does not raise

    def test_indefinite_mass_is_an_assembly_error(self):
        # the records reject rho1 <= 0; bypass them to reach the guard
        beam = desk_beam()
        object.__setattr__(beam, "rho1", -1.0)
        with pytest.raises(AssemblyError, match="mass operator is not positive"):
            assemble(build_mesh(1.0, 0.5, 6), beam, 0.0)

    def test_degenerate_mesh_rejected(self):
        from gapbeam.discretize import Mesh
        bad = Mesh(nodes=np.array([0.0, 0.5, 0.5, 1.0]), xi_index=1)
        with pytest.raises(AssemblyError):
            assemble(bad, desk_beam(), 0.0)
