from __future__ import annotations

import dataclasses
import math
import inspect
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import desk_beam, force_laws, p1_law
from gapbeam.config import ExperimentConfig, build_config
from gapbeam.diagnostics import _multipliers
from gapbeam.model import (
    EXCLUDED,
    STABILIZING,
    BeamParams,
    ForceLaw,
    InitSpec,
    NormalCompliance,
    ParamError,
    SchemeConfig,
    body_force,
    body_force_primitive,
    contact_potential,
    contact_traction,
    is_stabilizing_xi,
    penalty_stiffness,
)
from test_cli import BASE_MAP

NC = NormalCompliance(d1=1.0, d2=1.0, p=2, g_lo=-1.0, g_hi=1.0)
PEN = p1_law(2.0, g_lo=-1.0, g_hi=1.0)  # eps_pen = 0.5
LAWS = [
    NC,
    NormalCompliance(d1=3.0, d2=0.7, p=1, g_lo=-0.5, g_hi=0.25),
    NormalCompliance(d1=1.5, d2=2.0, p=3, g_lo=-1.0, g_hi=0.5),
    PEN,
    p1_law(100.0, g_lo=-0.3, g_hi=0.3),
]

_STOPS = dict(g_lo=st.floats(-1.0, -1e-3), g_hi=st.floats(1e-3, 1.0))
STOP_LAWS = st.one_of(
    st.builds(NormalCompliance, d1=st.floats(1e-2, 1e3),
              d2=st.floats(1e-2, 1e3), p=st.sampled_from([1, 2, 3]), **_STOPS),
    st.builds(p1_law, d=st.floats(1.0, 1e4), **_STOPS),
)


def central_quotient(f, v, h):
    """(f(v+h) - f(v-h)) / step and a bound on its rounding error."""
    lo_v, hi_v = v - h, v + h
    lo, hi = f(lo_v), f(hi_v)
    return (hi - lo) / (hi_v - lo_v), 1e-14 * (abs(lo) + abs(hi)) / h


class TestContactTraction:
    def test_zero_inside_gap_all_laws(self):
        for law in (NC, PEN):
            for v in (-0.99, -0.3, 0.0, 0.5, 0.99):
                assert contact_traction(v, law) == (0.0, 0.0)

    def test_zero_at_contact_onset(self):
        assert contact_traction(1.0, NC) == (0.0, 0.0)

    def test_quadratic_upper_value(self):
        # -(3-1)^2 with d2=1, p=2, and the slope -2*(3-1)
        assert contact_traction(3.0, NC) == (-4.0, -4.0)

    def test_penalty_lower_value(self):
        # (1/0.5)*((-1) - (-2))^+ = 2, and the slope -1/0.5
        assert contact_traction(-2.0, PEN) == (2.0, -2.0)

    def test_monotone_nonincreasing(self):
        for law in (NC, PEN, NormalCompliance(d1=2.0, d2=0.5, p=1, g_lo=-0.2, g_hi=0.4)):
            vs = np.linspace(-3.0, 3.0, 201)
            ts = [contact_traction(v, law)[0] for v in vs]
            assert all(b <= a + 1e-15 for a, b in zip(ts, ts[1:]))


class TestContactPotential:
    def test_zero_on_gap(self):
        for law in (NC, PEN):
            for v in (law.g_lo, -0.5, 0.0, 0.7, law.g_hi):
                assert contact_potential(v, law) == 0.0

    def test_quadratic_upper_value(self):
        assert contact_potential(3.0, NC) == pytest.approx(8.0 / 3.0, rel=1e-15)

    def test_nonnegative_everywhere(self):
        for law in (NC, PEN):
            for v in np.linspace(-4, 4, 101):
                assert contact_potential(v, law) >= 0.0

    @pytest.mark.parametrize("law", LAWS)
    def test_traction_is_negative_gradient(self, law):
        # central differences at 20 points; the two kink points are skipped
        # for p=1 (and the penalty law) where the traction is only C^0
        vs = np.linspace(-2.5, 2.5, 20)
        kinked = law.p == 1
        for v in vs:
            if kinked and (abs(v - law.g_hi) < 0.3 or abs(v - law.g_lo) < 0.3):
                continue
            for h in (1e-3, 1e-4, 1e-5):
                fd = -(contact_potential(v + h, law) - contact_potential(v - h, law)) / (2 * h)
                traction, _ = contact_traction(v, law)
                assert abs(fd - traction) <= 50.0 * max(1.0, abs(traction)) * h**2

    def test_derivative_at_example_point(self):
        for h in (1e-3, 1e-4, 1e-5, 1e-6):
            fd = -(contact_potential(3 + h, NC) - contact_potential(3 - h, NC)) / (2 * h)
            assert fd == pytest.approx(-4.0, abs=10 * h**2 + 1e-9)

    @pytest.mark.parametrize("law", LAWS)
    def test_stiffness_is_traction_derivative(self, law):
        # central differences away from the kinks; the penalty law is p=1
        for v in np.linspace(-2.5, 2.5, 20):
            if law.p == 1 and (abs(v - law.g_hi) < 0.3 or abs(v - law.g_lo) < 0.3):
                continue
            h = 1e-5
            fd = (contact_traction(v + h, law)[0]
                  - contact_traction(v - h, law)[0]) / (2 * h)
            _, slope = contact_traction(v, law)
            assert abs(fd - slope) <= 1e-6 * max(1.0, abs(slope))

    @given(law=STOP_LAWS, v=st.floats(-3.0, 3.0))
    def test_potential_and_stiffness_are_traction_derivatives(self, law, v):
        # -dN/dv = traction and d(traction)/dv = the returned slope, by
        # central quotients on intervals that hold no kink; away from the
        # kinks the traction is d * penetration**p, so the quotients'
        # truncation errors are h^2/6 times the third derivatives of N and of
        # the traction
        h = 1e-5 * max(1.0, abs(v))
        assume(abs(v - law.g_lo) > 2 * h and abs(v - law.g_hi) > 2 * h)
        d, p = max(law.d1, law.d2), law.p
        pen = max(v - law.g_hi, law.g_lo - v, 0.0) + h
        traction, slope = contact_traction(v, law)
        dN, round_N = central_quotient(lambda x: contact_potential(x, law), v, h)
        trunc_N = h**2 / 6 * d * p * (p - 1) * pen ** max(p - 2, 0)
        assert abs(-dN - traction) <= trunc_N + round_N
        dT, round_T = central_quotient(lambda x: contact_traction(x, law)[0], v, h)
        trunc_T = h**2 / 6 * d * p * (p - 1) * (p - 2)
        assert abs(dT - slope) <= trunc_T + round_T

    def test_semismooth_slope_zero_at_kink(self):
        law = NormalCompliance(d1=1.0, d2=1.0, p=1, g_lo=-1.0, g_hi=1.0)
        assert contact_traction(1.0, law)[1] == 0.0
        assert contact_traction(1.5, law)[1] == -1.0
        assert contact_traction(-1.5, law)[1] == -1.0


class TestBodyForce:
    def test_vanishes_at_zero(self):
        assert body_force(0.0, ForceLaw(mu=2.0, alpha=1.5)) == 0.0

    def test_power_law_value(self):
        assert body_force(-1.5, ForceLaw(mu=2.0, alpha=2.0)) == pytest.approx(-6.75)

    def test_cutoff_branch(self):
        law = ForceLaw(mu=1.0, alpha=2.0, cutoff_r=1.0)
        assert body_force(3.0, law) == pytest.approx(3.0)
        assert body_force(-3.0, law) == pytest.approx(-3.0)

    def test_array_evaluation(self):
        law = ForceLaw(mu=1.0, alpha=1.0)
        s = np.array([-2.0, 0.0, 0.5])
        np.testing.assert_allclose(body_force(s, law), [-4.0, 0.0, 0.25])

    @pytest.mark.parametrize("law", [
        ForceLaw(mu=2.0, alpha=1.0, cutoff_r=1.5),
        ForceLaw(mu=0.5, alpha=2.0),
    ])
    def test_primitive_matches_quadrature(self, law):
        for s in (-2.2, -0.7, 0.4, 1.1, 3.0):
            ref, _ = quad(lambda t: body_force(t, law), 0.0, s)
            assert body_force_primitive(s, law) == pytest.approx(ref, rel=1e-10, abs=1e-12)

    def test_primitive_below_an_overflowing_cutoff(self):
        # R**alpha leaves the floats, but only the tail past R reads it
        law = ForceLaw(mu=1.0, alpha=3e209, cutoff_r=3e209)
        with np.errstate(over="ignore"):
            assert body_force_primitive(np.array([0.0, 0.5]), law).tolist() == \
                [0.0, 0.0]

    def test_global_lipschitz_with_cutoff(self):
        law = ForceLaw(mu=2.0, alpha=2.0, cutoff_r=1.0)
        bound = law.mu * (law.alpha + 1.0) * law.cutoff_r**law.alpha
        s = np.linspace(-5, 5, 400)
        quot = np.abs(np.diff(body_force(s, law))) / np.diff(s)
        assert quot.max() <= bound + 1e-12

    @given(law=force_laws(), k=st.floats(0.0, 3.0),
           sign=st.sampled_from([-1.0, 1.0]))
    def test_primitive_derivative_is_body_force(self, law, k, sign):
        # s = sign k R: draws of k near 1 straddle the cutoff
        s = sign * k * (law.cutoff_r or 1.0)
        h = 1e-5 * max(1.0, abs(s))
        lo = body_force_primitive(s - h, law)
        hi = body_force_primitive(s + h, law)
        # body_force is Lipschitz on [s-h, s+h] with the slope bound lip, so
        # the central quotient of its primitive is within lip h/2 of it
        a = abs(s) + h if law.cutoff_r is None else min(abs(s) + h, law.cutoff_r)
        lip = law.mu * (law.alpha + 1.0) * a**law.alpha
        tol = lip * h / 2.0 + 1e-14 * (abs(lo) + abs(hi)) / h
        assert abs((hi - lo) / (2.0 * h) - body_force(s, law)) <= tol


class TestMultiplier:
    def test_anchor_values(self):
        (q, qx), _ = _multipliers(np.array([0.0, 1.0]), 1, 1.0)
        assert (q[0], qx[0]) == (0.0, 1.0)
        assert q[1] == pytest.approx(math.e - 1.0)
        assert qx[1] == pytest.approx(math.e)

    def test_companion_vanishes_at_right_end(self):
        _, (q0, _) = _multipliers(2.0, 3, 2.0)
        assert q0 == pytest.approx(0.0, abs=1e-15)

    def test_strictly_increasing_from_zero(self):
        x = np.linspace(0.0, 1.0, 50)
        (q, qx), (q0, q0x) = _multipliers(x, 8, 1.0)
        assert q[0] == 0.0
        assert np.all(np.diff(q) > 0.0)
        assert np.all(qx > 0.0)
        # the companion falls to zero at ell
        assert np.all(np.diff(q0) < 0.0) and np.all(q0x < 0.0)

    def test_slope_dominates_value(self):
        # pointwise q'/q >= n at observability's default n = ceil(8/ell)
        for ell in (0.5, 1.0, 3.0):
            n = math.ceil(8.0 / ell)
            x = np.linspace(1e-9, ell, 200)
            (q, qx), _ = _multipliers(x, n, ell)
            ratio = qx / q
            assert ratio.min() >= n
            weak = n / (math.exp(n * ell) - 1.0)
            assert ratio.min() >= weak


class TestXiVerdict:
    def test_excluded_two_thirds(self):
        assert is_stabilizing_xi(Fraction(2, 3)) == EXCLUDED

    def test_stabilizing_half(self):
        assert is_stabilizing_xi(Fraction(1, 2)) == STABILIZING

    def test_reduces_before_deciding(self):
        assert is_stabilizing_xi(Fraction(4, 6)) == EXCLUDED
        assert is_stabilizing_xi(Fraction(2, 4)) == STABILIZING

    def test_rejects_bad_fractions(self):
        for bad in (Fraction(0, 1), Fraction(-1, 3), Fraction(5, 4), Fraction(1, 1)):
            with pytest.raises(ValueError):
                is_stabilizing_xi(bad)


class TestValidation:
    def test_beam_positivity(self):
        with pytest.raises(ValueError):
            BeamParams(rho1=0.0, rho2=1, k=1, b=1, ell=1, gamma1=0, gamma2=0,
                       xi_num=1, xi_den=2)
        with pytest.raises(ValueError):
            BeamParams(rho1=1, rho2=1, k=1, b=1, ell=1, gamma1=-0.1, gamma2=0,
                       xi_num=1, xi_den=2)

    def test_xi_inside_domain(self):
        for num, den, name in [
                (6, 5, "xi_num"), (0, 1, "xi_num"), (-1, 2, "xi_num"),
                (1, 0, "xi_den"), (1, -2, "xi_den"),
                # below 1 as a fraction, but xi rounds to ell
                (10**17 - 1, 10**17, "xi_num"),
                # the float of this fraction would overflow
                (2**1024, 1, "xi_num")]:
            with pytest.raises(ParamError) as exc:
                BeamParams(rho1=1, rho2=1, k=1, b=1, ell=1, gamma1=0, gamma2=0,
                           xi_num=num, xi_den=den)
            assert exc.value.name == name

    def test_xi_fraction_times_ell(self):
        beam = BeamParams(rho1=1, rho2=1, k=1, b=1, ell=3.0, gamma1=0, gamma2=0,
                          xi_num=4, xi_den=6)
        assert beam.xi_fraction == Fraction(2, 3)
        assert beam.xi == pytest.approx(2.0)

    def test_tip_epsilon_must_be_nonnegative(self):
        # epsilon = 0 is no tip body, the traction-free end
        cfg = ExperimentConfig(beam=desk_beam(), contact=None,
                               force_f=ForceLaw(), force_g=ForceLaw(), ne=8,
                               scheme=SchemeConfig(dt=1e-3), t_final=0.0)
        assert cfg.tip == 0.0
        with pytest.raises(ParamError, match="epsilon must be nonnegative") as exc:
            dataclasses.replace(cfg, tip=-1e-300)
        assert exc.value.name == "tip"

    def test_contact_law_invariants(self):
        with pytest.raises(ValueError):
            NormalCompliance(d1=1, d2=1, p=4, g_lo=-1, g_hi=1)
        with pytest.raises(ValueError):
            NormalCompliance(d1=1, d2=1, p=2, g_lo=0.1, g_hi=1)
        for eps_pen in (0.0, -0.0, -1e-2):
            with pytest.raises(ParamError) as exc:
                penalty_stiffness(eps_pen)
            assert exc.value.name == "eps_pen"

    def test_penalty_is_the_p1_law_with_stiffnesses_one_over_eps(self):
        assert penalty_stiffness(0.3) == 1.0 / 0.3
        cfg = build_config({**BASE_MAP, "contact.kind": "signorini_penalty",
                            "contact.eps_pen": "0.3", "contact.g_lo": "-0.5",
                            "contact.g_hi": "0.25"})
        assert cfg.contact == \
            NormalCompliance(d1=1.0 / 0.3, d2=1.0 / 0.3, p=1, g_lo=-0.5, g_hi=0.25)

    @pytest.mark.parametrize("eps_pen", [5e-324, 5.5e-309])
    def test_penalty_stiffness_must_be_a_float(self, eps_pen):
        # 1/eps_pen overflows below about 5.6e-309
        with pytest.raises(ParamError, match="1/eps_pen out of float range") as exc:
            penalty_stiffness(eps_pen)
        assert exc.value.name == "eps_pen"

    def test_force_law_invariants(self):
        with pytest.raises(ValueError):
            ForceLaw(mu=-1.0)
        with pytest.raises(ValueError):
            ForceLaw(mu=1.0, cutoff_r=0.0)

    @pytest.mark.parametrize("kw, name", [
        (dict(kind="mode", mode=0), "mode"),
        (dict(kind="gaussian", width=0.0), "width"),
        (dict(kind="random_ball", radius=0.0), "radius"),
        (dict(kind="random_ball", radius=-1.0), "radius"),
        (dict(kind="sawtooth"), "kind"),
        (dict(kind="mode", amplitude=math.nan), "amplitude"),
        (dict(kind="random_ball", seed=-1), "seed"),
    ], ids=["mode-0", "width-0", "radius-0", "radius-negative", "kind-unknown",
            "amplitude-nan", "seed-negative"])
    def test_initial_data_checks_name_the_field(self, kw, name):
        # initial_state once drew data from the mode, width, radius and nan
        # cases without complaint; the kind and the seed gave bare ValueErrors
        with pytest.raises(ParamError) as exc:
            InitSpec(**kw)
        assert exc.value.name == name


def penalty_law(eps_pen: float, g_lo: float, g_hi: float) -> NormalCompliance:
    """The law that build_config reads for contact.kind = signorini_penalty."""
    return p1_law(penalty_stiffness(eps_pen), g_lo, g_hi)


# one valid instance of every parameter record, each float field set, keyed
# by its label; the Signorini penalty checks its arguments like a record
VALID_RECORDS = {
    "BeamParams": (BeamParams, dict(rho1=1.0, rho2=1.0, k=1.0, b=1.0, ell=1.0,
                                    gamma1=0.5, gamma2=0.5, xi_num=1, xi_den=2)),
    "NormalCompliance": (NormalCompliance,
                         dict(d1=1.0, d2=1.0, p=2, g_lo=-0.1, g_hi=0.1)),
    "SignoriniPenalty": (penalty_law,
                         dict(eps_pen=1e-2, g_lo=-0.1, g_hi=0.1)),
    "ForceLaw": (ForceLaw, dict(mu=1.0, alpha=1.0, cutoff_r=2.0, f0=0.5)),
    "SchemeConfig": (SchemeConfig, dict(dt=1e-3, newton_tol=1e-10)),
    "InitSpec": (InitSpec, dict(kind="gaussian", amplitude=1.0, amplitude_psi=0.5,
                                center=0.5, width=0.1, radius=1.0)),
}
FLOAT_FIELDS = [(label, name) for label, (_, kw) in VALID_RECORDS.items()
                for name, value in kw.items() if isinstance(value, float)]


class TestFiniteParameters:
    def test_every_float_field_is_listed(self):
        for build, kw in VALID_RECORDS.values():
            declared = {name for name, param in
                        inspect.signature(build).parameters.items()
                        if param.annotation.startswith("float")}
            assert declared == {n for n, v in kw.items() if isinstance(v, float)}
            build(**kw)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("label, name", FLOAT_FIELDS,
                             ids=[f"{c}.{n}" for c, n in FLOAT_FIELDS])
    def test_non_finite_field_is_named(self, label, name, bad):
        build, kw = VALID_RECORDS[label]
        with pytest.raises(ValueError, match=rf"^{name} must be finite"):
            build(**{**kw, name: bad})
