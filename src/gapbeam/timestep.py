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
from dataclasses import dataclass, field

import numpy as np

from .discretize import (N_LEFT, N_RIGHT, AssemblyError, CooMatrix, Mesh,
                         SemiDiscreteSystem, element_strains)
from .model import (
    ContactLaw,
    ForceLaw,
    NoContact,
    ParamError,
    body_force,
    body_force_primitive,
    contact_potential,
    contact_stiffness,
    contact_traction,
    require_finite,
)


class NewtonDivergence(RuntimeError):
    """Newton failed to reach the residual tolerance within the iteration cap."""

    def __init__(self, t: float, residual: float, iterations: int):
        self.t = t
        self.residual = residual
        self.iterations = iterations
        super().__init__(
            f"Newton did not converge at t={t:.6g}: residual {residual:.3e} "
            f"after {iterations} iterations (reduce dt or soften the contact)"
        )

    def __reduce__(self):
        return type(self), (self.t, self.residual, self.iterations)


@dataclass(frozen=True)
class Laws:
    """Bundle of the nonlinear laws entering the force balance."""

    contact: ContactLaw = NoContact()
    force_f: ForceLaw = ForceLaw()
    force_g: ForceLaw = ForceLaw()


@dataclass(frozen=True)
class SchemeConfig:
    """Time step and Newton controls.

    newton_tol applies to the step residual normalized by the implicit-system
    force scale (2/dt^2 * ||M|| + ...) so it is meaningful uniformly in dt.
    It bounds that residual, not the error of the accepted iterate.
    """

    dt: float
    newton_tol: float = 1e-10
    newton_max: int = 25

    def __post_init__(self):
        require_finite(self)
        if self.dt <= 0.0:
            raise ParamError("dt", "dt must be positive")
        if self.newton_tol <= 0.0:
            raise ParamError("newton_tol", "newton_tol must be positive")
        if self.newton_max < 1:
            raise ParamError("newton_max", "newton_max must be at least 1")


@dataclass
class State:
    """Nodal fields (full arrays, essential zeros included) at time t."""

    phi: np.ndarray
    psi: np.ndarray
    phi_t: np.ndarray
    psi_t: np.ndarray
    t: float = 0.0

    @property
    def v(self) -> float:
        return float(self.phi[-1])

    @property
    def v_t(self) -> float:
        return float(self.phi_t[-1])

    @classmethod
    def zeros(cls, mesh: Mesh, t: float = 0.0) -> "State":
        nn = mesh.nn
        return cls(np.zeros(nn), np.zeros(nn), np.zeros(nn), np.zeros(nn), t)

    @classmethod
    def from_reduced(cls, system: SemiDiscreteSystem, u: np.ndarray,
                     w: np.ndarray, t: float = 0.0) -> "State":
        phi, psi = system.expand(u)
        phi_t, psi_t = system.expand(w)
        return cls(phi, psi, phi_t, psi_t, t)

    def pack(self, system: SemiDiscreteSystem) -> tuple[np.ndarray, np.ndarray]:
        u = system.reduce(np.concatenate([self.phi, self.psi]))
        w = system.reduce(np.concatenate([self.phi_t, self.psi_t]))
        return u, w


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
        rows, cols, vals = A.merged()
        if not np.all(np.isfinite(vals)):
            raise AssemblyError("step matrix holds a non-finite entry")
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
            raise AssemblyError("step matrix is not positive definite") from exc
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


@dataclass
class EnergyReport:
    """Itemized Lyapunov functional; E_total is the sum of the parts."""

    E_total: float
    kinetic: float
    potential_shear: float
    potential_bend: float
    N_p: float
    tip_energy: float
    Fhat_int: float
    Ghat_int: float
    dissipation_rate: float = 0.0
    dissipated_cum: float = 0.0


def energy(system: SemiDiscreteSystem, state: State, laws: Laws) -> EnergyReport:
    """Evaluate the energy functional of one state, itemized.

    Shear and bending are 1/2 sum k h gamma_e^2 and 1/2 sum b h kappa_e^2 over
    the element strains; the tip body's share of the mass and stiffness is
    reported as tip_energy, not as kinetic or potential energy of the beam.
    """
    _, w = state.pack(system)
    mesh, beam, tip = system.mesh, system.beam, system.tip
    gamma, kappa = element_strains(mesh, state.phi, state.psi)
    shear = 0.5 * beam.k * float(mesh.widths @ gamma**2)
    bend = 0.5 * beam.b * float(mesh.widths @ kappa**2)
    kinetic = 0.5 * _quadratic_form(system.M, w)
    tip_e = 0.0
    if tip.enabled:
        tip_e = 0.5 * tip.epsilon * (state.v**2 + state.v_t**2)
        kinetic -= 0.5 * tip.epsilon * state.v_t**2
    n_p = contact_potential(state.v, laws.contact)
    fhat = integrate_primitive(mesh, state.phi, laws.force_f)
    ghat = integrate_primitive(mesh, state.psi, laws.force_g)
    return EnergyReport(
        E_total=kinetic + shear + bend + tip_e + n_p + fhat + ghat,
        kinetic=kinetic,
        potential_shear=shear,
        potential_bend=bend,
        N_p=n_p,
        tip_energy=tip_e,
        Fhat_int=fhat,
        Ghat_int=ghat,
        dissipation_rate=_quadratic_form(system.D, w),
    )


def total_energy(system: SemiDiscreteSystem, state: State, laws: Laws) -> float:
    """Discrete Lyapunov functional: the sum of the energy items."""
    return energy(system, state, laws).E_total


def state_norm(system: SemiDiscreteSystem, state: State) -> float:
    """Phase-space norm (the quadratic part only, without stored potentials)."""
    u, w = state.pack(system)
    return math.sqrt(_quadratic_form(system.M, w) + _quadratic_form(system.K, u))


@dataclass
class Trajectory:
    """Sampled states plus per-sample balance bookkeeping."""

    times: list[float] = field(default_factory=list)
    states: list[State] = field(default_factory=list)
    balance_residuals: list[float] = field(default_factory=list)
    dissipated_cum: list[float] = field(default_factory=list)
    dt: float = 0.0

    def __len__(self) -> int:
        return len(self.states)

    def v_series(self) -> np.ndarray:
        return np.array([s.v for s in self.states])


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
        self._load = self._constant_load()
        self._nl_body = laws.force_f.mu > 0.0 or laws.force_g.mu > 0.0
        self._nl_contact = not isinstance(laws.contact, NoContact)
        self._cache: dict[float, tuple] = {}

    # -- assembly helpers -------------------------------------------------

    def _constant_load(self) -> np.ndarray:
        nn = self.mesh.nn
        h = self.mesh.widths
        load = np.zeros(2 * nn)
        for offset, f0 in ((0, self.laws.force_f.f0), (nn, self.laws.force_g.f0)):
            if f0 != 0.0:
                load[offset:offset + nn - 1] += f0 * h / 2.0
                load[offset + 1:offset + nn] += f0 * h / 2.0
        return self.system.reduce(load)

    def _base_operators(self, dt: float):
        """Cached (J, factor of J, force scale, z = J^{-1} e_tip) for dt."""
        hit = self._cache.get(dt)
        if hit is not None:
            return hit
        sysm = self.system
        M, D, K = sysm.M, sysm.D, sysm.K
        # each entry is (2/dt^2 m + d/dt) + k/2 of the merged operators
        (mr, mc, mv), (dr, dc, dv), (kr, kc, kv) = M.merged(), D.merged(), K.merged()
        J = CooMatrix(np.concatenate([mr, dr, kr]), np.concatenate([mc, dc, kc]),
                      np.concatenate([2.0 / dt**2 * mv, dv / dt, 0.5 * kv]),
                      sysm.n_free)
        factor = BandFactor(J, sysm.node_rank)
        fscale = (
            2.0 / dt**2 * M.abs_row_sums().max()
            + D.abs_row_sums().max() / dt
            + 0.5 * K.abs_row_sums().max()
        )
        e_tip = np.zeros(sysm.n_free)
        e_tip[sysm.tip_slot] = 1.0
        z_tip = factor.solve(e_tip)
        hit = (J, factor, fscale, z_tip)
        self._cache[dt] = hit
        return hit

    def _body_force_reduced(self, phi: np.ndarray, psi: np.ndarray) -> np.ndarray:
        """Body-force load on the reduced dofs, left Gauss shares first."""
        nn = self.mesh.nn
        out = np.zeros(self.system.n_free)
        mesh, law_f, law_g = self.mesh, self.laws.force_f, self.laws.force_g
        if law_f.mu != 0.0:
            contrib = mesh.gauss_weights * body_force(mesh.at_gauss(phi), law_f)
            out[:nn - 2] += (contrib @ N_LEFT)[1:]
            out[:nn - 1] += contrib @ N_RIGHT
        if law_g.mu != 0.0:
            contrib = mesh.gauss_weights * body_force(mesh.at_gauss(psi), law_g)
            out[nn - 1:] += contrib @ N_LEFT
            out[nn:] += (contrib @ N_RIGHT)[:-1]
        return out

    # -- core solve --------------------------------------------------------

    def _residual(self, J, r0, u, delta):
        sysm = self.system
        R = J @ delta + r0
        um = u + 0.5 * delta
        if self._nl_body:
            phi_m, psi_m = sysm.expand(um)
            R += self._body_force_reduced(phi_m, psi_m)
        if self._nl_contact:
            R[sysm.tip_slot] -= contact_traction(um[sysm.tip_slot], self.laws.contact)
        return R

    def _solve_step(self, u, w, dt, t_next):
        sysm = self.system
        J, factor, fscale, z_tip = self._base_operators(dt)
        tip = sysm.tip_slot
        r0 = sysm.K @ u - (2.0 / dt) * (sysm.M @ w) - self._load
        delta = dt * w
        res = math.inf
        for it in range(self.cfg.newton_max):
            R = self._residual(J, r0, u, delta)
            up = u + delta
            res = np.linalg.norm(R) / (fscale * max(1.0, np.linalg.norm(up)))
            if res <= self.cfg.newton_tol:
                wp = 2.0 * delta / dt - w
                return up, wp, it, res
            # chord step: body slope left out, contact slope by Sherman-Morrison
            step = factor.solve(-R)
            c = -0.5 * contact_stiffness(u[tip] + 0.5 * delta[tip], self.laws.contact)
            if c != 0.0:
                step -= (c * step[tip] / (1.0 + c * z_tip[tip])) * z_tip
            delta = delta + step
        raise NewtonDivergence(t_next, res, self.cfg.newton_max)

    def step_reduced(self, u, w, t):
        """Advance (u, w) by one dt; bisects the step once on Newton failure."""
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


def step_count(t_final: float, dt: float) -> int:
    """The number of dt steps in t_final; ValueError unless it is whole.

    A relative slack of 1e-9 absorbs the rounding of t_final / dt.
    """
    if t_final < 0.0:
        raise ValueError("must be nonnegative")
    steps = t_final / dt
    if not math.isfinite(steps):
        raise ValueError(f"{t_final!r} overflows in steps of dt = {dt!r}")
    n_steps = round(steps)
    if abs(steps - n_steps) > 1e-9 * max(n_steps, 1):
        raise ValueError(f"{t_final!r} is not a whole number of dt = {dt!r} steps")
    return n_steps


def simulate(system: SemiDiscreteSystem, state0: State, laws: Laws,
             cfg: SchemeConfig, t_final: float, sample_stride: int = 1) -> Trajectory:
    """March to t_final, sampling every sample_stride steps (plus the endpoints).

    Per-sample balance residuals telescope the energy identity between
    consecutive samples.  Deterministic for identical inputs.
    """
    n_steps = step_count(t_final, cfg.dt)
    if sample_stride < 1:
        raise ValueError("sample_stride must be >= 1")
    stepper = MidpointStepper(system, laws, cfg)
    traj = Trajectory(dt=cfg.dt)

    u, w = state0.pack(system)
    state = State.from_reduced(system, u, w, state0.t)
    energy_prev = total_energy(system, state, laws)
    dissipated = 0.0
    diss_since_sample = 0.0

    traj.times.append(state.t)
    traj.states.append(state)
    traj.balance_residuals.append(0.0)
    traj.dissipated_cum.append(0.0)

    for k in range(1, n_steps + 1):
        t = state0.t + (k - 1) * cfg.dt
        try:
            up, wp = stepper.step_reduced(u, w, t)
        except NewtonDivergence as exc:
            exc.t = t + cfg.dt
            raise
        wm = (up - u) / cfg.dt
        d_step = cfg.dt * _quadratic_form(system.D, wm)
        dissipated += d_step
        diss_since_sample += d_step
        u, w = up, wp
        if k % sample_stride == 0 or k == n_steps:
            state = State.from_reduced(system, u, w, state0.t + k * cfg.dt)
            energy_now = total_energy(system, state, laws)
            traj.times.append(state.t)
            traj.states.append(state)
            traj.balance_residuals.append(energy_now - energy_prev + diss_since_sample)
            traj.dissipated_cum.append(dissipated)
            energy_prev = energy_now
            diss_since_sample = 0.0
    return traj


def initial_state(system: SemiDiscreteSystem, kind: str, *, amplitude: float = 1.0,
                  amplitude_psi: float = 0.0, mode: int = 1,
                  center: float | None = None, width: float | None = None,
                  radius: float = 1.0, seed: int = 0) -> State:
    """Initial-data library.

    kinds: 'zero'; 'mode' / 'mode_velocity' (half-wave pair sin/cos compatible
    with the clamped/free end conditions, as displacement or velocity data);
    'gaussian' (transverse pulse); 'random_ball' (uniform direction, scaled to
    a phase-space-norm radius drawn uniformly in the ball).
    """
    mesh = system.mesh
    x = mesh.nodes
    ell = mesh.ell
    nn = mesh.nn
    if kind == "zero":
        return State.zeros(mesh)
    if kind in ("mode", "mode_velocity"):
        if mode < 1:
            raise ValueError("mode index must be >= 1")
        a = (2 * mode - 1) * math.pi / (2.0 * ell)
        fphi = amplitude * np.sin(a * x)
        fpsi = amplitude_psi * np.cos(a * x)
        fphi[0] = 0.0
        fpsi[-1] = 0.0
        z = np.zeros(nn)
        if kind == "mode":
            return State(fphi, fpsi, z.copy(), z.copy())
        return State(z.copy(), z.copy(), fphi, fpsi)
    if kind == "gaussian":
        c = ell / 2.0 if center is None else center
        s = ell / 10.0 if width is None else width
        fphi = amplitude * np.exp(-((x - c) ** 2) / (2.0 * s**2))
        fphi[0] = 0.0
        z = np.zeros(nn)
        return State(fphi, z.copy(), z.copy(), z.copy())
    if kind == "random_ball":
        rng = np.random.default_rng(seed)
        n = system.n_free
        z = rng.standard_normal(2 * n)
        u, w = z[:n], z[n:]
        nrm = math.sqrt(_quadratic_form(system.K, u) + _quadratic_form(system.M, w))
        target = radius * rng.uniform() ** (1.0 / (2 * n))
        scal = target / nrm
        return State.from_reduced(system, scal * u, scal * w)
    raise ValueError(f"unknown initial-data kind {kind!r}")
