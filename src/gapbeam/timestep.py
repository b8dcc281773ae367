"""Implicit-midpoint time integration with a chord-Newton corrector.

The midpoint rule is a Cayley map of the semi-discrete generator: it conserves
the quadratic energy of the conservative linear system exactly and is
unconditionally stable for any positive semidefinite damping.  Nonlinear
contact and body forces are evaluated at the midpoint displacement.  Every
correction solves with the one factor of the step matrix per step size, a
banded nested dissection in numpy, the semismooth contact slope entering as a
rank-one update; the body force stays out of the tangent, a chord iteration
that contracts while dt resolves its frequency.
The itemized energy functional, whose balance simulate() records per sample,
is defined here as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discretize import (N_LEFT, N_RIGHT, AssemblyError, CooMatrix, Mesh,
                         SemiDiscreteSystem, element_strains)
from .model import (
    ForceLaw,
    InitSpec,
    Laws,
    SchemeConfig,
    SolverFailure,
    body_force,
    body_force_primitive,
    contact_potential,
    contact_traction,
    step_count,
)


class NewtonDivergence(SolverFailure):
    """Newton's residual after its last allowed correction is above tolerance."""

    def __init__(self, t: float, residual: float, iterations: int):
        super().__init__(
            f"Newton did not converge at t={t:.6g}: residual {residual:.3e} "
            f"after {iterations} iterations (reduce dt or soften the contact)",
            {"status": "newton_divergence", "t_fail": t,
             "last_residual": residual})


def _quadratic_form(A: CooMatrix, x: np.ndarray) -> float:
    """x.A.x with the product taken as A @ x."""
    return float(x @ (A @ x))


# largest interior block of the dissection, in dofs
BLOCK = 32


class BandFactor:
    """Solver for a symmetric positive definite A whose half-bandwidth is 3
    once dof i moves to position rank[i].

    One-level nested dissection (George, SIAM J. Numer. Anal. 10, 1973): in
    that order the dofs form g groups of w = b + 3, an interior block of
    b <= BLOCK dofs and a 3-dof separator, which decouples the blocks on its
    two sides.  The blocks are inverted in one batched call; the separators
    solve with the inverse of the dense Schur complement S = C - B^T.A_I^-1.B
    of A = [[A_I, B], [B^T, C]], blocks first.  A solve is a fixed number of
    batched numpy calls for any n; dofs past n pad the last group as identity.
    """

    def __init__(self, A: CooMatrix, rank: np.ndarray):
        keys = ("scheme.dt, beam.rho1, beam.rho2, beam.k, beam.b, beam.ell, "
                "beam.gamma1, beam.gamma2, tip.epsilon")
        rows, cols, vals = A.merged()
        if not np.all(np.isfinite(vals)):
            raise AssemblyError(f"step matrix holds a non-finite entry ({keys})")
        if np.any(np.abs(rank[rows] - rank[cols]) > 3):
            raise AssemblyError("step matrix is not banded in node order")
        g = -(-A.n // (BLOCK + 3))
        w = max(-(-A.n // g), 3)
        b = w - 3
        pad = np.arange(A.n, g * w)
        rows, cols = (np.concatenate([rank[i], pad]) for i in (rows, cols))
        # entry (r, c) goes to the window of group k = max(r, c) // w: the
        # separator before that group (its first 3 rows), then its w dofs
        k = np.maximum(rows, cols) // w
        E = np.zeros((g, w + 3, w + 3))
        E[k, rows - k * w + 3, cols - k * w + 3] = np.append(vals, np.ones(pad.size))
        sep = np.r_[0:3, w:w + 3]    # separators k - 1 and k of block k
        blocks = E[:, 3:w, 3:w]
        coupling = np.ascontiguousarray(E[:, 3:w][:, :, sep])
        # separators k - 1 and k are rows 3k .. 3k + 6 of a Schur complement
        # that starts with an unused separator -1
        window = 3 * np.arange(g)[:, None, None] + np.arange(6)[:, None]
        at = (window, window.transpose(0, 2, 1))
        try:
            np.linalg.cholesky(blocks)
            inv = np.linalg.inv(blocks)
            W = inv @ coupling
            C, BW = np.zeros((2, 3 * g + 3, 3 * g + 3))
            np.add.at(C, at, E[:, sep][:, :, sep])
            np.add.at(BW, at, coupling.transpose(0, 2, 1) @ W)
            S = C[3:, 3:] - BW[3:, 3:]
            np.linalg.cholesky(S)
        except np.linalg.LinAlgError as exc:
            raise AssemblyError(
                f"step matrix is not positive definite ({keys})") from exc
        self._inv_S = np.linalg.inv(S)
        # one product gives A_I^-1.f_I and the coupling's share W^T.f_I
        self._forward = np.concatenate([inv, W.transpose(0, 2, 1)], axis=1)
        self._W, self._window = W, window
        self._rank, self._g, self._b = rank, g, b

    def solve(self, f: np.ndarray) -> np.ndarray:
        """A^-1.f for one vector f."""
        g, b = self._g, self._b
        F = np.zeros((g, b + 3, 1))
        F.ravel()[self._rank] = f
        yt = np.zeros((g + 1, b + 6, 1))  # an empty group after the last
        np.matmul(self._forward, F[:, :b], out=yt[:g])
        # separator k takes the coupling shares of blocks k and k + 1
        rS = F[:, b:] - yt[:g, b + 3:] - yt[1:, b:b + 3]
        xS = np.zeros(3 * g + 3)
        np.matmul(self._inv_S, rS.ravel(), out=xS[3:])
        xI = yt[:g, :b] - self._W @ xS[self._window]
        X = np.concatenate([xI, xS[3:].reshape(g, 3, 1)], axis=1)
        return X.ravel()[self._rank]


def integrate_primitive(mesh: Mesh, nodal: np.ndarray, law: ForceLaw) -> float:
    """Quadrature of the body-force antiderivative along the beam."""
    if law.mu == 0.0:
        return 0.0
    return float(np.sum(mesh.gauss_weights
                        * body_force_primitive(mesh.at_gauss(nodal), law)))


def energy(system: SemiDiscreteSystem, u: np.ndarray, w: np.ndarray,
           laws: Laws) -> dict[str, float]:
    """The energy functional of the reduced state (u, w), itemized.

    Keyed as trajectory.csv's energy columns, in its order: E_total is the sum
    of the next seven items, and dissipation_rate is w.D.w.  Shear and bending
    are 1/2 sum k h gamma_e^2 and 1/2 sum b h kappa_e^2 over the element
    strains of the nodal fields system.expand(u), the kinetic energy w.M.w / 2;
    the tip body's share of the mass and stiffness is the tip_energy item, not
    kinetic or potential energy of the beam.
    """
    mesh, beam, tip = system.mesh, system.beam, system.tip
    phi, psi = system.expand(u)
    gamma, kappa = element_strains(mesh, phi, psi)
    shear = 0.5 * beam.k * float(mesh.widths @ gamma**2)
    bend = 0.5 * beam.b * float(mesh.widths @ kappa**2)
    kinetic = 0.5 * _quadratic_form(system.M, w)
    # numpy scalars: a square past the float range is inf, not OverflowError
    v, v_t = u[system.tip_slot], w[system.tip_slot]
    tip_e = 0.0
    if tip:  # with no body, an overflowing v must not give 0 * inf
        tip_e = 0.5 * tip * (v**2 + v_t**2)
        kinetic -= 0.5 * tip * v_t**2
    n_p = contact_potential(v, laws.contact) if laws.contact else 0.0
    fhat = integrate_primitive(mesh, phi, laws.force_f)
    ghat = integrate_primitive(mesh, psi, laws.force_g)
    return {
        "E_total": kinetic + shear + bend + tip_e + n_p + fhat + ghat,
        "kinetic": kinetic,
        "potential_shear": shear,
        "potential_bend": bend,
        "N_p": n_p,
        "tip_energy": tip_e,
        "Fhat_int": fhat,
        "Ghat_int": ghat,
        "dissipation_rate": float(w @ (system.D * w)),
    }


def total_energy(system: SemiDiscreteSystem, u: np.ndarray, w: np.ndarray,
                 laws: Laws) -> float:
    """Discrete Lyapunov functional of (u, w): the sum of the energy items."""
    return energy(system, u, w, laws)["E_total"]


def state_norm(system: SemiDiscreteSystem, u: np.ndarray, w: np.ndarray) -> float:
    """Phase-space norm (the quadratic part only, without stored potentials)."""
    return math.sqrt(_quadratic_form(system.M, w) + _quadratic_form(system.K, u))


@dataclass
class Trajectory:
    """A run sampled at `times`, one row per sample.

    U and W, of shape (samples, n_free), hold the reduced displacement and
    velocity vectors the stepper advances; system.expand gives their nodal
    fields.  balance[i] is E_i - E_{i-1} plus the dissipation dt.wm.D.wm of
    the steps since sample i - 1 (0 at sample 0).  The energy holds no load
    term, so with a constant load the column is the load's work over those
    steps; with nonlinear laws it also holds the midpoint rule's quadrature
    error of their potentials.
    """

    times: np.ndarray
    U: np.ndarray
    W: np.ndarray
    balance: np.ndarray
    dt: float

    def __len__(self) -> int:
        return len(self.times)


class MidpointStepper:
    """One-step solver bound to a system, its laws and a step size.

    With delta = u+ - u the midpoint equations read J delta + r0 = loads of
    the midpoint, where J = 2/dt^2 M + D/dt + K/2 gets a BandFactor once per
    dt and r0 = K u - 2/dt M w - load once per step.  A correction costs one
    product with J and one solve with its factor: Newton on linear and contact
    steps, chord Newton once a body law is on (its slope is left out).
    """

    def __init__(self, system: SemiDiscreteSystem, laws: Laws, cfg: SchemeConfig):
        self.system = system
        self.laws = laws
        self.cfg = cfg
        self.mesh = system.mesh
        h, nn = self.mesh.widths, self.mesh.nn
        self._load = self._scatter(
            (offset, f0 * h / 2.0, f0 * h / 2.0)
            for offset, f0 in ((0, laws.force_f.f0), (nn, laws.force_g.f0))
            if f0 != 0.0)
        self._nl_body = laws.force_f.mu > 0.0 or laws.force_g.mu > 0.0
        self._nl_contact = laws.contact is not None
        self._cache: dict[float, tuple] = {}

    # -- assembly helpers -------------------------------------------------

    def _scatter(self, shares) -> np.ndarray:
        """Reduced load from (field offset, left, right) element shares: node
        e gets element e's left share, then node e + 1 its right share."""
        nn = self.mesh.nn
        load = np.zeros(2 * nn)
        for offset, left, right in shares:
            load[offset:offset + nn - 1] += left
            load[offset + 1:offset + nn] += right
        return self.system.reduce(load)

    def _base_operators(self, dt: float):
        """Cached (J, factor of J, force scale, z = J^{-1} e_tip) for dt."""
        hit = self._cache.get(dt)
        if hit is not None:
            return hit
        sysm = self.system
        M, D, K = sysm.M, sysm.D, sysm.K
        # each entry is (2/dt^2 m + d/dt) + k/2 of the merged operators
        (mr, mc, mv), (kr, kc, kv) = M.merged(), K.merged()
        dr = np.flatnonzero(D)
        J = CooMatrix(np.concatenate([mr, dr, kr]), np.concatenate([mc, dr, kc]),
                      np.concatenate([2.0 / dt**2 * mv, D[dr] / dt, 0.5 * kv]),
                      sysm.n_free)
        factor = BandFactor(J, sysm.node_rank)
        fscale = (
            2.0 / dt**2 * M.abs_row_sums().max()
            + np.abs(D).max() / dt
            + 0.5 * K.abs_row_sums().max()
        )
        e_tip = np.zeros(sysm.n_free)
        e_tip[sysm.tip_slot] = 1.0
        z_tip = factor.solve(e_tip)
        hit = (J, factor, fscale, z_tip)
        self._cache[dt] = hit
        return hit

    def _body_force_reduced(self, phi: np.ndarray, psi: np.ndarray) -> np.ndarray:
        """Body-force load on the reduced dofs from its Gauss-point shares."""
        mesh = self.mesh
        shares = []
        for offset, nodal, law in ((0, phi, self.laws.force_f),
                                   (mesh.nn, psi, self.laws.force_g)):
            if law.mu != 0.0:
                contrib = mesh.gauss_weights * body_force(mesh.at_gauss(nodal), law)
                shares.append((offset, contrib @ N_LEFT, contrib @ N_RIGHT))
        return self._scatter(shares)

    # -- core solve --------------------------------------------------------

    def _residual(self, J, r0, u, delta):
        """(R, slope): delta's midpoint residual and contact slope (0 if none)."""
        sysm = self.system
        R = J @ delta + r0
        um = u + 0.5 * delta
        if self._nl_body:
            phi_m, psi_m = sysm.expand(um)
            R += self._body_force_reduced(phi_m, psi_m)
        slope = 0.0
        if self._nl_contact:
            traction, slope = contact_traction(um[sysm.tip_slot], self.laws.contact)
            R[sysm.tip_slot] -= traction
        return R, slope

    def _solve_step(self, u, w, dt, t_next):
        sysm = self.system
        J, factor, fscale, z_tip = self._base_operators(dt)
        tip = sysm.tip_slot
        r0 = sysm.K @ u - (2.0 / dt) * (sysm.M @ w) - self._load
        delta = dt * w
        for it in range(self.cfg.newton_max + 1):
            R, slope = self._residual(J, r0, u, delta)
            up = u + delta
            res = np.linalg.norm(R) / (fscale * max(1.0, np.linalg.norm(up)))
            if res <= self.cfg.newton_tol:
                wp = 2.0 * delta / dt - w
                return up, wp, it, res
            if it == self.cfg.newton_max:  # the last correction is checked too
                raise NewtonDivergence(t_next, res, it)
            # chord step: body slope left out, contact slope by Sherman-Morrison
            step = factor.solve(-R)
            c = -0.5 * slope
            if c != 0.0:
                step -= (c * step[tip] / (1.0 + c * z_tip[tip])) * z_tip
            delta = delta + step

    def step_reduced(self, u, w, t):
        """Advance (u, w) by one dt; bisects the step once on Newton failure.
        A NewtonDivergence names the end time of the (half) step that failed."""
        dt = self.cfg.dt
        try:
            up, wp, _, _ = self._solve_step(u, w, dt, t + dt)
            return up, wp
        except NewtonDivergence:
            if self._nl_contact or self._nl_body:
                uh, wh, _, _ = self._solve_step(u, w, dt / 2.0, t + dt / 2.0)
                up, wp, _, _ = self._solve_step(uh, wh, dt / 2.0, t + dt)
                return up, wp
            raise


def simulate(system: SemiDiscreteSystem, initial: tuple[np.ndarray, np.ndarray],
             laws: Laws, cfg: SchemeConfig, t_final: float,
             sample_stride: int = 1) -> Trajectory:
    """March the reduced state initial = (u, w) from t = 0 to t_final, sampling
    every sample_stride steps (plus the endpoints).

    Per-sample balance residuals telescope the energy identity between
    consecutive samples.  Deterministic for identical inputs.
    """
    n_steps = step_count(t_final, cfg.dt)
    if sample_stride < 1:
        raise ValueError("sample_stride must be >= 1")
    stepper = MidpointStepper(system, laws, cfg)
    # step 0, every stride-th step and the last
    sampled = np.minimum(np.arange(0, n_steps + sample_stride, sample_stride),
                         n_steps)
    U, W = np.empty((2, sampled.size, system.n_free))
    balance = np.zeros(sampled.size)
    u, w = initial
    U[0], W[0] = u, w
    energy_prev = total_energy(system, u, w, laws)
    for i, (first, last) in enumerate(zip(sampled.tolist(), sampled[1:].tolist()), 1):
        dissipated = 0.0
        for k in range(first, last):
            up, w = stepper.step_reduced(u, w, k * cfg.dt)
            wm = (up - u) / cfg.dt
            dissipated += cfg.dt * float(wm @ (system.D * wm))
            u = up
        U[i], W[i] = u, w
        energy_now = total_energy(system, u, w, laws)
        balance[i] = energy_now - energy_prev + dissipated
        energy_prev = energy_now
    return Trajectory(times=sampled * cfg.dt, U=U, W=W, balance=balance,
                      dt=cfg.dt)


def initial_state(system: SemiDiscreteSystem,
                  init: InitSpec) -> tuple[np.ndarray, np.ndarray]:
    """Initial-data library: the reduced state (u, w) at t = 0 of init.

    kinds: 'zero'; 'mode' / 'mode_velocity' (half-wave pair sin/cos compatible
    with the clamped/free end conditions, as displacement or velocity data);
    'gaussian' (transverse pulse); 'random_ball' (uniform direction, scaled to
    a phase-space-norm radius drawn uniformly in the ball).  Nodal profiles
    lose their essential dofs in system.reduce.
    """
    mesh = system.mesh
    x, ell = mesh.nodes, mesh.ell
    u, w = np.zeros((2, system.n_free))
    if init.kind == "zero":
        return u, w
    if init.kind in ("mode", "mode_velocity"):
        a = (2 * init.mode - 1) * math.pi / (2.0 * ell)
        data = system.reduce(np.concatenate([init.amplitude * np.sin(a * x),
                                             init.amplitude_psi * np.cos(a * x)]))
        return (data, w) if init.kind == "mode" else (u, data)
    if init.kind == "gaussian":
        c = ell / 2.0 if init.center is None else init.center
        s = ell / 10.0 if init.width is None else init.width
        fphi = init.amplitude * np.exp(-((x - c) ** 2) / (2.0 * s**2))
        return system.reduce(np.concatenate([fphi, np.zeros(mesh.nn)])), w
    # random_ball
    rng = np.random.default_rng(init.seed)
    n = system.n_free
    z = rng.standard_normal(2 * n)
    u, w = z[:n], z[n:]
    target = init.radius * rng.uniform() ** (1.0 / (2 * n))
    scal = target / state_norm(system, u, w)
    return scal * u, scal * w
