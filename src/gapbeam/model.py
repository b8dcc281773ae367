"""Parameters, constitutive laws and step controls of the damped beam with stops.

Everything in this module is a pure function of its inputs or an immutable
parameter record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from fractions import Fraction

import numpy as np

STABILIZING = "stabilizing"
EXCLUDED = "excluded"


class ParamError(ValueError):
    """A bad value of one field of a parameter record; `name` is the field.

    Every check in a record's __post_init__ raises this, so that a config
    loader can name the key the field was read from.
    """

    def __init__(self, name: str, message: str):
        self.name = name
        super().__init__(message)


class SolverFailure(RuntimeError):
    """A run that failed in the solver (exit 3); `summary` holds the entries
    the failure adds to the run's summary, status first."""

    def __init__(self, message: str, summary: dict):
        self.summary = summary
        super().__init__(message)


def require_finite(record) -> None:
    """Raise a ParamError naming the first nan or inf float field of a record.

    Every parameter record calls this first in __post_init__: nan passes any
    `<= 0` comparison, so the range checks alone would let it through.
    """
    for f in fields(record):
        value = getattr(record, f.name)
        if isinstance(value, (float, np.floating)) and not math.isfinite(value):
            raise ParamError(f.name, f"{f.name} must be finite, got {value!r}")


@dataclass(frozen=True)
class BeamParams:
    """Material/geometry constants of the beam and the location of the damper.

    rho1, rho2 are the translational and rotational inertia densities, k the
    shear stiffness, b the bending stiffness, ell the length.  The damper sits
    at xi = (xi_num / xi_den) * ell, an exact fraction of ell because the
    location verdicts need exact rationals.  gamma1 damps the transverse
    velocity at xi, gamma2 the rotation rate.
    """

    rho1: float
    rho2: float
    k: float
    b: float
    ell: float
    gamma1: float
    gamma2: float
    xi_num: int
    xi_den: int

    def __post_init__(self):
        require_finite(self)
        for name in ("rho1", "rho2", "k", "b", "ell"):
            if getattr(self, name) <= 0.0:
                raise ParamError(name, f"{name} must be strictly positive")
        for name in ("gamma1", "gamma2"):
            if getattr(self, name) < 0.0:
                raise ParamError(name, f"{name} must be nonnegative")
        if self.xi_den < 1:
            raise ParamError("xi_den", "xi_den must be >= 1")
        # the mesh takes the float position: a fraction just below 1 can
        # round to ell
        if not (0 < self.xi_fraction < 1 and 0.0 < self.xi < self.ell):
            raise ParamError("xi_num", f"xi={self.xi_fraction} * ell must lie "
                             f"strictly inside (0, {self.ell})")

    @property
    def xi_fraction(self) -> Fraction:
        return Fraction(self.xi_num, self.xi_den)

    @property
    def xi(self) -> float:
        return float(self.xi_fraction) * self.ell


@dataclass(frozen=True)
class NormalCompliance:
    """Power-law compliant stops: traction grows as penetration**p.

    g_lo < 0 < g_hi are the lower/upper stop positions; d1/d2 the lower/upper
    stiffness coefficients; p in {1, 2, 3}, 1 by default.
    """

    d1: float
    d2: float
    p: int = field(default=1, kw_only=True)
    g_lo: float
    g_hi: float

    def __post_init__(self):
        require_finite(self)
        for name in ("d1", "d2"):
            if getattr(self, name) <= 0.0:
                raise ParamError(name, f"contact stiffness {name} must be positive")
        if self.p not in (1, 2, 3):
            raise ParamError("p", "compliance exponent p must be 1, 2 or 3")
        # rest position v=0 must be admissible, so the stops straddle zero
        if not self.g_lo < 0.0 < self.g_hi:
            raise ParamError("g_hi" if self.g_lo < 0.0 else "g_lo",
                             "stops must satisfy g_lo < 0 < g_hi, got "
                             f"[{self.g_lo}, {self.g_hi}]")


def penalty_stiffness(eps_pen: float) -> float:
    """1/eps_pen, the stiffness d1 = d2 of the Signorini penalty: the p=1 law
    that tends to the rigid stops as eps_pen -> 0.  A ParamError unless
    eps_pen is finite and positive and 1/eps_pen is a float."""
    if not math.isfinite(eps_pen):
        raise ParamError("eps_pen", f"eps_pen must be finite, got {eps_pen!r}")
    if eps_pen <= 0.0:
        raise ParamError("eps_pen", f"eps_pen must be positive, got {eps_pen!r}")
    d = 1.0 / eps_pen
    if not math.isfinite(d):
        raise ParamError("eps_pen", f"eps_pen={eps_pen!r} puts 1/eps_pen out of "
                         "float range")
    return d


@dataclass(frozen=True)
class ForceLaw:
    """Semilinear restoring force mu*s*|s|**alpha with optional truncation.

    With cutoff_r = R set, the slope saturates beyond |s| = R, which makes the
    law globally Lipschitz with constant at most mu*(alpha+1)*R**alpha.  f0 is
    a constant distributed load applied to the same field equation (it is not
    part of the pointwise law: body_force(0) == 0 always).
    """

    mu: float = 0.0
    alpha: float = 0.0
    cutoff_r: float | None = None
    f0: float = 0.0

    def __post_init__(self):
        require_finite(self)
        for name in ("mu", "alpha"):
            if getattr(self, name) < 0.0:
                raise ParamError(name, f"{name} must be nonnegative")
        if self.cutoff_r is not None and self.cutoff_r <= 0.0:
            raise ParamError("cutoff_r", "cutoff_r must be positive when given")


@dataclass(frozen=True)
class Laws:
    """The nonlinear laws of the force balance; contact None: a traction-free end."""

    contact: NormalCompliance | None = None
    force_f: ForceLaw = ForceLaw()
    force_g: ForceLaw = ForceLaw()


@dataclass(frozen=True)
class SchemeConfig:
    """Time step and Newton controls.

    newton_tol applies to the step residual normalized by the implicit-system
    force scale (2/dt^2 * ||M|| + ...) so it is meaningful uniformly in dt.
    It bounds that residual, not the error of the accepted iterate.
    newton_max caps the corrections of a step.
    """

    dt: float
    newton_tol: float = 1e-10
    newton_max: int = 25

    def __post_init__(self):
        require_finite(self)
        if self.dt <= 0.0:
            raise ParamError("dt", "dt must be positive")
        try:  # the step matrix scales as 2/dt**2
            scale_ok = math.isfinite(2.0 / self.dt**2)
        except (ZeroDivisionError, OverflowError):  # dt**2 leaves the floats
            scale_ok = False
        if not scale_ok:
            raise ParamError("dt", f"dt={self.dt!r} puts 2/dt**2 out of float range")
        if self.newton_tol <= 0.0:
            raise ParamError("newton_tol", "newton_tol must be positive")
        if self.newton_max < 1:
            raise ParamError("newton_max", "newton_max must be at least 1")


@dataclass(frozen=True)
class InitSpec:
    """Initial data of a run, read by timestep.initial_state.

    center and width None put the gaussian pulse at ell/2, of width ell/10.
    """

    kind: str = "zero"
    amplitude: float = 1.0
    amplitude_psi: float = 0.0
    mode: int = 1
    center: float | None = None
    width: float | None = None
    radius: float = 1.0
    seed: int = 0

    def __post_init__(self):
        require_finite(self)
        if self.kind not in ("zero", "mode", "mode_velocity", "gaussian",
                             "random_ball"):
            raise ParamError("kind", f"unknown initial-data kind {self.kind!r}")
        if self.mode < 1:
            raise ParamError("mode", "must be >= 1")
        if self.mode > 2**53:
            raise ParamError("mode", "must be at most 2**53: past it a float "
                             "frequency tells no two modes apart")
        if self.width is not None and self.width <= 0.0:
            raise ParamError("width", "must be positive")
        if self.radius <= 0.0:
            raise ParamError("radius", "must be positive")
        # the generator of the random ball takes no negative seed
        if self.seed < 0:
            raise ParamError("seed", "must be >= 0")


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


def contact_traction(v: float, law: NormalCompliance) -> tuple[float, float]:
    """Traction added to the force balance of the end deflection v, and its
    semismooth derivative d(traction)/dv.

    The traction is zero inside the gap and pushes back toward the gap outside
    it (negative above g_hi, positive below g_lo).  At the kinks (contact
    onset) the positive parts vanish, so the slope is the inactive branch's 0;
    this is the generalized derivative used by the Newton corrector.
    """
    up = max(v - law.g_hi, 0.0)
    lo = max(law.g_lo - v, 0.0)
    slope = 0.0
    if up > 0.0:
        slope -= law.d2 * law.p * up ** (law.p - 1)
    if lo > 0.0:
        slope -= law.d1 * law.p * lo ** (law.p - 1)
    return -law.d2 * up**law.p + law.d1 * lo**law.p, slope


def contact_potential(v: float, law: NormalCompliance) -> float:
    """Stored contact energy; nonnegative, zero on the gap.

    Its negative derivative with respect to v is contact_traction's traction.
    """
    up = max(v - law.g_hi, 0.0)
    lo = max(law.g_lo - v, 0.0)
    q = law.p + 1
    return law.d2 / q * up**q + law.d1 / q * lo**q


def body_force(s, law: ForceLaw):
    """Pointwise semilinear force mu*s*|s|**alpha, slope-saturated past cutoff_r."""
    a = np.abs(s) if law.cutoff_r is None else np.minimum(np.abs(s), law.cutoff_r)
    return law.mu * s * a**law.alpha


def body_force_primitive(s, law: ForceLaw):
    """Antiderivative of body_force vanishing at 0 (an even, nonnegative function)."""
    a = np.abs(s)
    if law.cutoff_r is None:
        return law.mu * a ** (law.alpha + 2.0) / (law.alpha + 2.0)
    R = np.float64(law.cutoff_r)  # R**alpha overflows to inf, not an error
    core = law.mu * np.minimum(a, R) ** (law.alpha + 2.0) / (law.alpha + 2.0)
    tail = np.where(a > R, law.mu * R**law.alpha * (a**2 - R**2) / 2.0, 0.0)
    return core + tail


def is_stabilizing_xi(xi_fraction: Fraction) -> str:
    """Damper-location verdict for xi = (p/q) * ell.

    After reduction, fractions with an even numerator (and hence odd
    denominator) are the obstructed locations: they coincide with interior
    zeros of the transverse half-wave traces, so the transverse damper misses
    a whole family of modes there.  Everything else is stabilizing.
    """
    if not 0 < xi_fraction < 1:
        raise ValueError(f"xi fraction {xi_fraction} must lie strictly in (0, 1)")
    num, den = xi_fraction.numerator, xi_fraction.denominator
    if num % 2 == 0 and den % 2 == 1:
        return EXCLUDED
    return STABILIZING
