from fractions import Fraction

import numpy as np
import pytest

from conftest import desk_beam, desk_system
from gapbeam import TipParams, generator, spectrum, trend_toward_zero, xi_study
from gapbeam.model import EXCLUDED, STABILIZING
from gapbeam.spectral import DimensionCapExceeded, XiStudyRow


class TestGenerator:
    def test_pencil_shape_and_blocks(self, damped_system):
        pen = generator(damped_system)
        n = damped_system.n_free
        assert pen.A_block.shape == (2 * n, 2 * n)
        assert pen.n == 2 * n
        np.testing.assert_array_equal(pen.A_block[:n, :n], np.zeros((n, n)))
        np.testing.assert_array_equal(pen.A_block[:n, n:], np.eye(n))
        np.testing.assert_array_equal(pen.A_block[n:, :n], -damped_system.K.toarray())
        np.testing.assert_array_equal(pen.M_block[n:, n:], damped_system.M.toarray())
        assert pen.model == "non-hybrid"
        assert pen.epsilon is None

    def test_hybrid_tag(self):
        system = desk_system(ne=8, tip=TipParams(enabled=True, epsilon=0.01))
        pen = generator(system)
        assert pen.model == "hybrid"
        assert pen.epsilon == 0.01


class TestSpectrum:
    def test_undamped_purely_imaginary(self, conservative_system):
        rep = spectrum(generator(conservative_system))
        assert abs(rep.abscissa) <= 1e-10
        assert np.max(np.abs(rep.eigenvalues.real)) <= 1e-10

    def test_conjugate_symmetry(self, damped_system):
        rep = spectrum(generator(damped_system))
        lam = rep.eigenvalues
        for z in lam[np.abs(lam.imag) > 1e-12]:
            assert np.min(np.abs(lam - z.conjugate())) < 1e-8

    def test_dissipative_abscissa(self, damped_system):
        rep = spectrum(generator(damped_system))
        assert rep.abscissa < 0.0
        assert rep.min_damping_gap == pytest.approx(abs(rep.abscissa))
        assert np.max(rep.eigenvalues.real) <= 1e-10

    def test_ordering_descending_real(self, damped_system):
        lam = spectrum(generator(damped_system)).eigenvalues
        assert np.all(np.diff(lam.real) <= 1e-14)

    def test_dense_cap_error_mentions_shift_invert(self, damped_system):
        with pytest.raises(DimensionCapExceeded, match="shift_invert"):
            spectrum(generator(damped_system), dense_cap=10)

    def test_shift_invert_matches_dense_near_axis(self, damped_system):
        pen = generator(damped_system)
        dense = spectrum(pen)
        reduced = spectrum(pen, dense_cap=10, shift_invert=True)
        assert not reduced.complete
        assert reduced.abscissa == pytest.approx(dense.abscissa, rel=1e-6, abs=1e-9)

    def test_hybrid_same_mesh_same_dimension(self):
        # the tip coordinate is identified with the end-deflection dof, so the
        # hybrid pencil has the same size as the traction-free one
        plain = desk_system(ne=8)
        hybrid = desk_system(ne=8, tip=TipParams(enabled=True, epsilon=1e-2))
        assert generator(plain).n == generator(hybrid).n


class TestEpsilonSweep:
    def test_hybrid_approaches_non_hybrid(self):
        non_hybrid = spectrum(generator(desk_system(ne=32, gamma1=1.0, gamma2=1.0)))
        gaps = []
        for eps in (1e-2, 1e-3, 1e-4):
            system = desk_system(ne=32, gamma1=1.0, gamma2=1.0,
                                 tip=TipParams(enabled=True, epsilon=eps))
            rep = spectrum(generator(system))
            assert rep.abscissa < 0.0
            gaps.append(abs(rep.abscissa - non_hybrid.abscissa))
        assert gaps[-1] < gaps[0]
        assert gaps[-1] <= 0.25 * abs(non_hybrid.abscissa)


class TestXiStudy:
    def test_verdicts_and_dissipativity(self):
        beam = desk_beam(gamma1=1.0, gamma2=0.0)
        rows = xi_study(beam, TipParams(), [Fraction(1, 2), Fraction(2, 3)], [16, 32])
        assert len(rows) == 4
        by_xi = {}
        for row in rows:
            assert row.abscissa <= 1e-10
            by_xi.setdefault(row.xi_fraction, []).append(row)
        assert all(r.verdict == STABILIZING for r in by_xi[Fraction(1, 2)])
        assert all(r.verdict == EXCLUDED for r in by_xi[Fraction(2, 3)])

    def test_undamped_rows_sit_on_axis(self):
        beam = desk_beam(gamma1=0.0, gamma2=0.0)
        rows = xi_study(beam, TipParams(),
                        [Fraction(1, 2), Fraction(2, 3), Fraction(1, 3)], [16])
        for row in rows:
            assert abs(row.abscissa) <= 1e-10

    def test_trend_helper(self):
        mk = lambda ne, a: XiStudyRow(Fraction(2, 3), ne, a, EXCLUDED)
        assert trend_toward_zero([mk(32, -1e-3), mk(128, -1e-5)], tol_bad=1e-4)
        assert not trend_toward_zero([mk(32, -1e-3), mk(128, -9e-4)],
                                     tol_bad=1e-3)
        assert not trend_toward_zero([mk(32, -1e-3), mk(128, -1e-4)],
                                     tol_bad=1e-6)
