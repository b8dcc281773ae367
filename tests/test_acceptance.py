"""Acceptance suite: one test per criterion, one printed verdict line each.

Desk scale throughout: unit beam coefficients on [0, 1].  Every tolerance is
pinned here, not configured elsewhere.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg as sla

from conftest import (assert_digest_line, desk_beam, desk_system, digest_tool,
                      toarray)
from gapbeam import (
    ForceLaw,
    InitSpec,
    Laws,
    SchemeConfig,
    absorbing_probe,
    complementarity_report,
    energy_series,
    fit_decay,
    generator,
    initial_state,
    simulate,
    spectrum,
    total_energy,
    trend_toward_zero,
    xi_study,
)
from gapbeam.cli import main
from gapbeam.model import NormalCompliance


def report(cid, desc, ok, detail):
    print(f"[{cid}] {desc}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{cid} {desc}: {detail}"


def test_c01_conservation():
    system = desk_system(ne=64)
    laws = Laws()
    cfg = SchemeConfig(dt=1e-3, newton_tol=1e-12)
    s0 = initial_state(system, InitSpec("mode", amplitude=1.0, mode=2))
    traj = simulate(system, s0, laws, cfg, 10.0, sample_stride=1000)
    e0 = total_energy(system, traj.U[0], traj.W[0], laws)
    ef = total_energy(system, traj.U[-1], traj.W[-1], laws)
    drift = abs(ef - e0) / e0
    report("C01", "conservation over 1e4 midpoint steps", drift <= 1e-9,
           f"relative drift {drift:.3e} <= 1e-9")


def test_c02_dissipation_identity():
    system = desk_system(ne=32, gamma1=1.0, gamma2=1.0,
                         tip=0.5)
    laws = Laws()
    cfg = SchemeConfig(dt=1e-3, newton_tol=1e-12)
    s0 = initial_state(system,
                       InitSpec("mode", amplitude=1.0, amplitude_psi=0.5, mode=2))
    traj = simulate(system, s0, laws, cfg, 1.0, sample_stride=1)
    worst = max(abs(r) for r in traj.balance)
    energies = [total_energy(system, u, w, laws) for u, w in zip(traj.U, traj.W)]
    monotone = all(b <= a + 10 * cfg.newton_tol
                   for a, b in zip(energies, energies[1:]))
    ok = worst <= 10 * cfg.newton_tol and monotone
    report("C02", "per-step energy balance and monotone decay", ok,
           f"max |residual| {worst:.3e} <= 1e-11, monotone={monotone}")


def test_c03_undamped_spectrum():
    lam = spectrum(generator(desk_system(ne=64)))
    worst = float(np.max(np.abs(lam.real)))
    report("C03", "undamped generator is skew to solver tolerance",
           worst <= 1e-9, f"max |Re lambda| {worst:.3e} <= 1e-9")


def test_c04_decay_matches_abscissa():
    system = desk_system(ne=64, gamma1=1.0, gamma2=1.0)
    laws = Laws()
    abscissa = spectrum(generator(system))[0].real
    # seed the slowest mode: the integrator is a rational map of the same
    # generator, so the eigenspace is invariant and the fit sees one rate
    n = system.n_free
    A = np.block([[np.zeros((n, n)), np.eye(n)],
                  [-toarray(system.K), -np.diag(system.D)]])
    B = np.block([[np.eye(n), np.zeros((n, n))],
                  [np.zeros((n, n)), toarray(system.M)]])
    lam, vecs = sla.eig(A, B)
    vec = vecs[:, int(np.argmax(lam.real))]
    u, w = np.real(vec[:n]), np.real(vec[n:])
    scale = 1.0 / math.sqrt(0.5 * (w @ (system.M @ w) + u @ (system.K @ u)))
    traj = simulate(system, (scale * u, scale * w), laws, SchemeConfig(dt=1e-3),
                    60.0, sample_stride=20)
    energies = [total_energy(system, u, w, laws) for u, w in zip(traj.U, traj.W)]
    gamma_state = fit_decay(traj.times, energies)["gamma_state"]
    err = abs(gamma_state - abs(abscissa)) / abs(abscissa)
    report("C04", "fitted state decay rate vs spectral abscissa", err <= 0.20,
           f"gamma_state {gamma_state:.4e} vs |abscissa| "
           f"{abs(abscissa):.4e}, rel err {err:.3f} <= 0.20")


def test_c05_damping_location_obstruction():
    # transverse damper only: the obstructed locations are the interior zeros
    # of the half-wave traces, which is what the location verdict encodes
    beam = desk_beam(gamma1=1.0, gamma2=0.0)
    rows = xi_study(beam, 0.0, [Fraction(1, 2), Fraction(2, 3)], [32, 128])
    a_half = {ne: a for xi, ne, a, _ in rows if xi == Fraction(1, 2)}
    a_23 = {ne: a for xi, ne, a, _ in rows if xi == Fraction(2, 3)}
    factor = abs(a_half[128]) / max(abs(a_23[128]), 1e-15)
    toward_zero = trend_toward_zero([r for r in rows if r[0] == Fraction(2, 3)])
    ok = factor >= 5.0 and toward_zero
    report("C05", "excluded damper location stalls the spectral gap", ok,
           f"abscissa(2l/3)/abscissa(l/2) factor {factor:.3g}x at ne=128 "
           f"(>=5), refinement 32->128 toward zero: {toward_zero}; "
           f"a(2/3)={a_23[32]:.2e}->{a_23[128]:.2e}")


def test_c06_hybrid_non_hybrid_equivalence():
    non_hybrid = spectrum(generator(
        desk_system(ne=64, gamma1=1.0, gamma2=1.0)))[0].real
    abscissae = {}
    for eps in (1e-1, 1e-2, 1e-3):
        system = desk_system(ne=64, gamma1=1.0, gamma2=1.0,
                             tip=eps)
        abscissae[eps] = spectrum(generator(system))[0].real
    all_negative = all(a < 0.0 for a in abscissae.values())
    rel = abs(abscissae[1e-3] - non_hybrid) / abs(non_hybrid)
    ok = all_negative and rel <= 0.25
    report("C06", "tip-body spectrum tracks the plain model", ok,
           f"hybrid abscissae {[f'{a:.2e}' for a in abscissae.values()]} all "
           f"< 0; eps=1e-3 vs non-hybrid rel diff {rel:.3f} <= 0.25")


SWEEP_CFG = """
beam.rho1 = 1.0
beam.rho2 = 1.0
beam.k = 1.0
beam.b = 1.0
beam.ell = 1.0
beam.gamma1 = 1.0
beam.gamma2 = 1.0
beam.xi_num = 1
beam.xi_den = 2
mesh.ne = 64
scheme.dt = 2e-4
scheme.newton_tol = 1e-11
run.t_final = 6.0
run.stride = 25
contact.kind = signorini_penalty
contact.eps_pen = 1e-1
contact.g_lo = -0.05
contact.g_hi = 0.05
force_f.f0 = 0.25
sweep.eps_pen = 1e-1, 1e-2, 1e-3, 1e-4
"""


def test_c07_penalty_limit(tmp_path):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(SWEEP_CFG)
    out = tmp_path / "out"
    code = main(["sweep-eps", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[2:]]
    assert all(r[1] == "ok" for r in rows)
    viols = [float(r[2]) for r in rows]
    strictly_decreasing = all(a > b for a, b in zip(viols, viols[1:]))
    final_ok = viols[-1] <= 1e-2 * 0.1
    compl_clean = int(rows[-1][8]) == 0
    ok = strictly_decreasing and final_ok and compl_clean
    report("C07", "penalty sweep converges to the unilateral limit", ok,
           f"violations {[f'{v:.2e}' for v in viols]} strictly decreasing="
           f"{strictly_decreasing}, final <= 1e-3: {final_ok}, "
           f"settled sign-pattern violations {rows[-1][8]} == 0")
    assert_digest_line(f"c07 {code} {digest_tool().artifact_digest(out)}")


def test_c08_compliance_sign_conditions():
    system = desk_system(ne=128, gamma1=1.0, gamma2=1.0)
    law = NormalCompliance(d1=100.0, d2=100.0, p=2, g_lo=-0.05, g_hi=0.05)
    laws = Laws(contact=law, force_f=ForceLaw(f0=0.25))
    s0 = initial_state(system, InitSpec("zero"))
    traj = simulate(system, s0, laws, SchemeConfig(dt=2e-4), 6.0,
                    sample_stride=25)
    # the one-sided stress trace carries O(h) recovery error, so the sign
    # tolerance scales with the mesh, not with machine precision
    tol_S = 1e-2 * system.beam.k
    comp = complementarity_report(system, traj, law, tol_S=tol_S)
    ok = (comp["complementarity_violation"] == 0
          and comp["complementarity_upper"] > 0
          and comp["complementarity_interior"] > 0)
    report("C08", "steady push satisfies the contact sign pattern", ok,
           f"counts {comp} with tol_S={tol_S:g}")


def test_c09_observability_mesh_stability():
    ratios = {}
    for ne in (64, 128):
        system = desk_system(ne=ne, gamma1=1.0, gamma2=1.0)
        laws = Laws()
        s0 = initial_state(system, InitSpec("mode", amplitude=1.0, amplitude_psi=0.5,
                                            mode=2))
        traj = simulate(system, s0, laws, SchemeConfig(dt=5e-4), 8.0,
                        sample_stride=5)
        from gapbeam import observability
        _, figures = observability(system, traj, laws=laws)
        assert figures["c0_measured"] > 0.0 and figures["c1_measured"] > 0.0
        ratios[ne] = figures["ratio_ell_to_E0"], figures["ratio_0_to_E0"]
    change_ell = abs(ratios[128][0] - ratios[64][0]) / ratios[64][0]
    change_0 = abs(ratios[128][1] - ratios[64][1]) / ratios[64][1]
    ok = change_ell <= 0.10 and change_0 <= 0.10
    report("C09", "observability defect ratios stable under mesh doubling", ok,
           f"defect/E0 changes: boundary-l {change_ell:.3f}, boundary-0 "
           f"{change_0:.3f}, both <= 0.10")


def test_c10_absorbing_set():
    system = desk_system(ne=16, gamma1=1.0, gamma2=1.0)
    laws = Laws(force_f=ForceLaw(mu=1.0, alpha=1.0, f0=0.05))
    cfg = SchemeConfig(dt=4e-3)
    probes = {}
    for radius in (2.0, 4.0):
        probes[radius] = absorbing_probe(system, laws, cfg, radius=radius,
                                         t_final=45.0, sample_stride=10,
                                         seed=7)
    (t2, plateau2, converged2), (t4, plateau4, converged4) = \
        probes[2.0], probes[4.0]
    plateau_match = (abs(plateau2 - plateau4) / max(plateau2, plateau4) <= 0.25)
    ordered = t4 > t2
    ok = converged2 and converged4 and plateau_match and ordered
    report("C10", "forced ensembles share an absorbing ball", ok,
           f"plateaus {plateau2:.4f}/{plateau4:.4f} within "
           f"25%; entry times {t2:.2f} < {t4:.2f}")


DETERMINISM_CFG = """
beam.rho1 = 1.0
beam.rho2 = 1.0
beam.k = 1.0
beam.b = 1.0
beam.ell = 1.0
beam.gamma1 = 1.0
beam.gamma2 = 1.0
beam.xi_num = 1
beam.xi_den = 2
mesh.ne = 32
scheme.dt = 1e-3
run.t_final = 0.5
run.stride = 10
run.seed = 123
init.kind = random_ball
init.radius = 1.5
tip.epsilon = 1e-2
contact.kind = signorini_penalty
contact.eps_pen = 1e-2
contact.g_lo = -0.05
contact.g_hi = 0.05
"""


def test_c11_determinism(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(DETERMINISM_CFG)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        outs.append((out / "trajectory.csv").read_bytes())
    ok = outs[0] == outs[1]
    report("C11", "identical configs give bitwise-identical trajectories", ok,
           f"{len(outs[0])} bytes compared equal: {ok}")
    assert_digest_line(f"c11 0 {digest_tool().artifact_digest(out)}")
