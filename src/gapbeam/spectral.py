"""First-order generator pencils, spectra and the damper-location study.

M.u'' + D.u' + K.u = 0 is the pencil lam * blockdiag(I, M) x = [[0, I],
[-K, -D]] x.  With M = L.L^T, the undamped modes L^-1.K.L^-T = V.Omega^2.V^T
and D = Z.Z^T on the few slots S where it is nonzero (dampers and tip), the
pencil is similar to the modal form [[0, Omega], [-Omega, -Q.Q^T]], where
Q = V^T.C.Z, C the columns S of L^-1, has rank r <= 3 (Veselic, "Damped
Oscillations of Linear Systems", LNM 2023, 2011).  Its 2n eigenvalues are the
roots of det(I_r + sum_j lam / (lam^2 + omega_j^2) q_j.q_j^T) = 0, q_j the
rows of Q: the poles +-i.omega_j moved by a rank-r perturbation.  An
Ehrlich-Aberth iteration (Bini & Robol, J. Comput. Appl. Math. 272 (2014))
finds them all at once, each held as its pole plus an offset so that a root
1e-13 from its pole keeps its digits, and certifies the set.  Each root
starts at the root of its pole's two-pole local equation, the far field held
constant, so that near-paired poles start near their roots; a sweep is a few
passes over the root-pole pairs, with det F and its derivative in closed
form.  numpy only, and no BLAS call before the SVD of the modal form.

spectrum and mesh_spectrum return the 2n eigenvalues ordered by real part,
descending (ties by imaginary part): the abscissa, the largest real part, is
lam[0].real, and the distance of the spectrum to the imaginary axis, its
damping gap, is min |Re lam|.  xi_study returns (xi_fraction, ne, abscissa,
verdict) rows; the mesh and tip model of a row are the caller's inputs.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .discretize import (AssemblyError, CooMatrix, SemiDiscreteSystem, assemble,
                         band_cholesky, band_solve, build_mesh)
from .model import BeamParams, SolverFailure, is_stabilizing_xi


# largest pencil dimension admitted (ne elements give 4 * ne); the dense SVD
# of the modal form is of half that order
DENSE_CAP = 4000

_EPS = float(np.finfo(float).eps)
# a root stops after a step below _STEP_TOL times its offset: convergence is
# cubic, so that step left it at rounding (within the step in a cluster).  It
# also stops once its step no longer shrinks inside the certificate's rounding
# of the root itself, _CERT_ULPS rounding units of |z|: such a root cycles at
# rounding level, a few units above eps.|z| at the stiffest dampers, and
# meets no offset tolerance
_STEP_TOL, _MAX_SWEEPS = 2.0 ** -40, 80
_MAX_STAGES = 12  # x10 each; beyond, slow roots ~omega/10^12 drown in rounding
_START_PASSES = 3  # far-field evaluations of the two-pole start
_CERT_ULPS = 64            # certificate tolerance, rounding units per root
_SET_ASIDE = 2.0 ** -500   # |q_j|^2 up to this keeps its first-order root


class DimensionCapExceeded(RuntimeError):
    """Pencil larger than DENSE_CAP; raised before any dense work."""

    def __init__(self, n: int):
        self.n = n
        super().__init__(
            f"pencil dimension {n} exceeds DENSE_CAP = {DENSE_CAP} of the dense "
            f"modal eigensolver; the largest admissible mesh has ne = "
            f"{DENSE_CAP // 4}"
        )


class SpectrumCertificateError(SolverFailure):
    """A root set that failed its certificate; the message names the check."""

    def __init__(self, message: str):
        super().__init__(message, {"status": "certificate_failure"})


@dataclass(frozen=True)
class GeneratorPencil:
    """Pencil lam * blockdiag(I, M) x = [[0, I], [-K, -D]] x of the system.

    Holds the system's reduced operators, K and M as coordinate lists banded
    in the node order rank, and D as its diagonal, and nothing of the config
    they came from; n is the pencil dimension, twice the number of free dofs.
    """

    K: CooMatrix = field(repr=False)
    D: np.ndarray = field(repr=False)
    M: CooMatrix = field(repr=False)
    rank: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return 2 * self.K.n


def generator(system: SemiDiscreteSystem) -> GeneratorPencil:
    """The generator pencil of an assembled system, tip body included (its
    entries sit in M, D and K at the end deflection slot); nothing is factored."""
    return GeneratorPencil(K=system.K, D=system.D, M=system.M,
                           rank=system.node_rank)


def modal_form(pencil: GeneratorPencil) -> tuple[np.ndarray, np.ndarray]:
    """(omega, Q) of the module docstring, omega ascending, Q of shape (n, r).

    In node order M = L.L^T and K = R.R^T are banded (half-bandwidths 2 and
    3), and one forward solve gives B^T = L^-1.R and C.Z, Z = sqrt(D) on S.
    None of it calls BLAS, so it rounds alike on any thread count.  omega and
    V are the SVD of B^T: exact to rounding of omega_max, where eigh of B^T.B
    would square the range.  Frequencies equal to 12 digits are one multiple
    pole, whose rows of Q turn orthogonal, at most r of them nonzero.
    """
    D, n, rank = pencil.D, pencil.n // 2, pencil.rank
    L = band_cholesky(pencil.M.lower_band(rank))
    K = pencil.K.lower_band(rank)
    keys = "beam.k, beam.b, beam.ell, tip.epsilon"
    if not np.isfinite(K).all():
        raise AssemblyError(
            f"reduced stiffness operator has a non-finite entry ({keys})")
    try:
        R = band_cholesky(K)
    except np.linalg.LinAlgError as exc:
        raise AssemblyError(
            f"reduced stiffness operator is not positive definite ({keys})") from exc
    if np.any(D < 0.0):
        raise AssemblyError("damping operator is not nonnegative")
    S = np.flatnonzero(D)
    X = np.zeros((n, n + S.size))   # [R, E_S.sqrt(D_S)]
    k, j = np.nonzero(R)            # band entry (k, j) is R[j + k, j]
    X[j + k, j] = R[k, j]
    X[rank[S], n + np.arange(S.size)] = np.sqrt(D[S])
    Bt, C = band_solve(L, X)[:, :n], X[:, n:]
    if not np.isfinite(X).all():
        raise AssemblyError("modal form of the generator has a non-finite entry")
    V, omega, _ = np.linalg.svd(Bt)
    omega, Q = omega[::-1].copy(), V[:, ::-1].T @ C
    gaps = np.flatnonzero(np.diff(omega) > 2.0 ** -40 * omega[1:]) + 1
    for block in np.split(np.arange(n), gaps):
        if block.size > 1:
            omega[block] = omega[block].mean()
            _, sv, vt = np.linalg.svd(Q[block], full_matrices=False)
            Q[block] = 0.0
            Q[block[:sv.size]] = sv[:, None] * vt
    return omega, Q


def secular_roots(omega: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Offsets of the 2n roots of the modal form from its poles i[omega, -omega].

    A root stays at its first-order offset -|q_j|^2 / 2 if |q_j|^2 <=
    _SET_ASIDE.  Continuation takes Q.sqrt(s), s = 10^-k, ..., 0.1, 1,
    10^-k |q_j|^2 <= omega_j.  The roots start at the two-pole local roots of
    the first scale (_local_roots), turned by 0.01 rad per place on a
    multiple pole, the lower half-plane as the conjugates.  The upper
    half-plane is mirrored until a root reaches the real axis or a stage
    stalls, then all roots iterate, from starts off conjugate symmetry.
    """
    weight = np.einsum("ja,ja->j", Q, Q)
    delta = np.tile(-0.5 * weight, 2).astype(complex)
    live = weight > _SET_ASIDE
    om, q, m = omega[live], Q[live], int(live.sum())
    if not m:
        return delta
    ratio = float(np.max(weight[live] / om))
    if not (ratio <= 10.0 ** _MAX_STAGES and np.isfinite(np.sum((q.T @ q) ** 2))):
        raise AssemblyError(f"secular weights of the modal form out of range: "
                            f"max |q_j|^2 / omega_j = {ratio:.3g} > 1e{_MAX_STAGES} "
                            "(beam.gamma1, beam.gamma2, tip.epsilon over "
                            "beam.rho1, beam.rho2)")
    stages = max(0, math.ceil(math.log10(ratio)))
    R = np.einsum("ja,jb->jab", q, q).reshape(m, -1)
    first = np.flatnonzero(np.diff(om, prepend=-1.0))  # runs of equal poles
    rank = np.arange(m) - np.repeat(first, np.diff(first, append=m))
    up = _local_roots(om, q, R, 10.0 ** -stages) * np.exp(0.01j * rank)
    d = np.concatenate([up, up.conj()])
    rows = m  # the upper half-plane, mirrored
    for s in 10.0 ** np.arange(-stages, 1):
        start = d.copy()
        while not _aberth(om, s * R, d, rows):
            if rows == 2 * m:
                raise SpectrumCertificateError(
                    f"convergence: roots still moving after {_MAX_SWEEPS} "
                    f"sweeps at damping scale {s:g}")
            rows, d = 2 * m, start
            d[m:] *= 1.0 + 1e-3j  # off conjugate symmetry
    delta[np.tile(live, 2)] = d
    return delta


def _local_roots(om: np.ndarray, q: np.ndarray, R: np.ndarray,
                 s: float) -> np.ndarray:
    """Offset of each upper pole's root in its two-pole model at scale s.

    Near i.om_j, with p the nearest other pole, Delta = om_p - om_j and x =
    lam - i.om_j, F = A + s.R_j / (2x) + s.R_p / (2(x - i.Delta)): the pair's
    upper terms exact, all the rest, the far field A, held constant.  With
    u, v = sqrt(s).q_j, sqrt(s).q_p (v = 0 for a lone pole) and alpha, beta,
    gamma = u^T.A^-1.u, v^T.A^-1.v, u^T.A^-1.v, det F = 0 reads
    (2x + alpha)(2x - 2i.Delta + beta) = gamma^2.  Of its two roots j takes
    the one that, with the other for p, lies nearer the first-order pair
    -alpha/2, i.Delta - beta/2.  A is evaluated at the first-order offsets
    -s|q_j|^2 / 2, then at each pass's roots, _START_PASSES times in all.
    """
    m, r = q.shape
    gap = np.diff(om)
    higher = np.append(gap, np.inf) < np.insert(gap, 0, np.inf)
    near = np.maximum(np.arange(m) + np.where(higher, 1, -1), 0)  # p
    u = math.sqrt(s) * q
    v = math.sqrt(s) * q[near] * (near != np.arange(m))[:, None]
    shift = om[near] - om                       # Delta
    x = -0.5 * np.einsum("ja,ja->j", u, u)
    chunk = max(1, 2 ** 15 // m)
    for _ in range(_START_PASSES):
        A = np.empty((m, r * r), complex)
        for a in range(0, m, chunk):
            j = np.arange(a, min(a + chunk, m))
            below = _offsets(om[j], -om, x[j])       # z_j + i.om_l
            above = _offsets(om[j], om, x[j])        # z_j - i.om_l
            above *= below
            np.divide((1j * om[j] + x[j])[:, None], above, out=above)
            # the pair's upper terms are the local model's: their mirror
            # halves 1/(2(z + i.om_l)) stay in A
            for col in (j, near[j]):
                cell = (np.arange(j.size), col)
                above[cell] = 0.5 / below[cell]
            A[j] = above @ R
        A = s * A.reshape(m, r, r) + np.eye(r)
        Ai = np.linalg.solve(A, np.stack([u, v], axis=-1))
        alpha, beta, gamma = (np.einsum("ja,ja->j", f, Ai[..., c])
                              for f, c in ((u, 0), (v, 1), (u, 1)))
        own, other = -0.5 * alpha, 1j * shift - 0.5 * beta
        # the quadratic 4x^2 + b.x + c, by the rule that loses no digits
        b, c = 2.0 * (alpha + beta) - 4j * shift, 4.0 * (own * other) - gamma ** 2
        root = 4.0 * np.sqrt((own - other) ** 2 + gamma ** 2)
        root *= np.where((b.conj() * root).real >= 0.0, 1.0, -1.0)
        lead = -0.5 * (b + root)
        x1, x2 = 0.25 * lead, c / lead
        mine = (np.abs(x1 - own) + np.abs(x2 - other)
                <= np.abs(x2 - own) + np.abs(x1 - other))
        x = np.where(mine, x1, x2)
    return x


def _offsets(top: np.ndarray, poles: np.ndarray, x: np.ndarray) -> np.ndarray:
    """i(top_k - poles_l) + x_k, built from its real and imaginary parts."""
    out = np.empty((top.size, poles.size), complex)
    np.subtract(top[:, None], poles, out=out.imag)
    out.imag += x[:, None].imag
    out.real = x[:, None].real
    return out


def det_and_derivative(F: np.ndarray, dF: np.ndarray) -> tuple[np.ndarray,
                                                               np.ndarray]:
    """det F and its Jacobi derivative tr(adj F.dF) for stacks of r x r, r <= 3.

    Both in closed form from the cofactors C of F: det F = sum_j F_0j.C_0j
    and tr(adj F.dF) = sum_ij C_ij.dF_ij, the sum over j of det F with
    column j replaced by that of dF.
    """
    r = F.shape[-1]
    if r == 1:
        return F[..., 0, 0], dF[..., 0, 0]
    if r == 2:
        C = F[..., ::-1, ::-1] * np.array([[1.0, -1.0], [-1.0, 1.0]])
    else:
        a, b = [1, 2, 0], [2, 0, 1]
        Fa, Fb = F[..., a, :], F[..., b, :]
        C = Fa[..., a] * Fb[..., b] - Fa[..., b] * Fb[..., a]
    return (np.einsum("...j,...j->...", F[..., 0, :], C[..., 0, :]),
            np.einsum("...ij,...ij->...", C, dF))


def _aberth(om: np.ndarray, R: np.ndarray, d: np.ndarray, rows: int) -> bool:
    """Ehrlich-Aberth sweeps on the first `rows` offsets d from i[om, -om].

    Root z_k = mu_k + d_k of prod(lam - mu_p) * det F(lam), F = I +
    sum_j R_j lam / (lam^2 + om_j^2), steps by 1 / (det'/det + 1/d_k - sum_{l != k}
    d_l / ((z_k - mu_l)(z_k - z_l))): the poles' log-derivative less the
    Aberth sum, paired term by term so that no nearby large numbers cancel.
    A chunk of roots holds two arrays of its root-pole pairs; det F and det'
    come in closed form (det_and_derivative).  With rows = len(om) the lower
    half mirrors the upper, and a root reaching the real axis ends the
    sweeps.  True once every root has stopped.
    """
    m, r = om.size, math.isqrt(R.shape[1])
    pole = np.concatenate([om, -om])     # imaginary parts of the poles
    live, chunk = np.arange(rows), max(1, 2 ** 15 // (2 * m))  # chunk: 2^15 pairs
    last = np.full(rows, np.inf)         # each root's previous step size
    for _ in range(_MAX_SWEEPS):
        if not live.size:
            return True
        step = np.empty(live.size, complex)
        for a in range(0, live.size, chunk):
            k = live[a:a + chunk]
            gap = _offsets(pole[k], pole, d[k])            # z_k - mu_p
            pair = gap - d                                  # z_k - z_l
            own = (np.arange(k.size), k)
            pair[own] = 1.0
            pair *= gap
            np.reciprocal(pair, out=pair)   # 1 / ((z_k - mu_l)(z_k - z_l))
            pair[own] = 0.0
            aberth = pair @ d
            # 1 / (z^2 + omega^2) as one product: a mode's pole terms cannot
            # cancel; F's and F''s terms take the quotients' place
            z = 1j * pole[k, None] + d[k, None]
            terms = pair.reshape(2, k.size, m)
            EE = np.multiply(gap[:, :m], gap[:, m:], out=terms[0])
            np.reciprocal(EE, out=EE)
            np.subtract(om * om, z * z, out=terms[1])
            terms[1] *= EE
            terms[1] *= EE
            EE *= z
            F, dF = (terms.reshape(2 * k.size, m) @ R).reshape(2, -1, r, r)
            det, ddet = det_and_derivative(F + np.eye(r), dF)
            step[a:a + k.size] = det / (ddet + (1.0 / d[k] - aberth) * det)
        d[live] -= step
        if rows == m:
            d[m + live] = d[live].conj()
            if np.any(pole[live] + d[live].imag <= 0.0):
                return False
        size, z = np.abs(step), 1j * pole[live] + d[live]
        stalled = ((size >= last[live])
                   & (size <= _CERT_ULPS * _EPS * np.abs(z)))
        last[live] = size
        live = live[(size > _STEP_TOL * np.abs(d[live])) & ~stalled]
    return not live.size


def certify(omega: np.ndarray, Q: np.ndarray, delta: np.ndarray) -> None:
    """Raise SpectrumCertificateError unless delta is a root set of (omega, Q).

    delta holds the offsets from the poles i[omega, -omega].  Checks: 2n finite
    roots; no Re lam above its rounding bound (the generator is dissipative);
    sum lam = -tr(G), sum lam^2 = -2 sum omega^2 + tr(G^2) for G = Q^T.Q.
    """
    n, G = omega.size, Q.T @ Q
    if delta.shape != (2 * n,) or not np.isfinite(delta).all():
        raise SpectrumCertificateError(
            f"count: {np.isfinite(delta).sum()} finite roots of {2 * n}")
    if np.any(delta.real > _CERT_ULPS * _EPS * np.abs(delta)):
        raise SpectrumCertificateError(
            f"sign: a root has Re lambda = {delta.real.max():.4g}")
    square = delta * (2j * np.concatenate([omega, -omega]) + delta)  # lam^2 - mu^2
    for name, terms, want in (("trace", delta, -np.trace(G)),
                              ("trace of the square", square, np.sum(G * G))):
        size = np.abs(terms).sum() + abs(want)
        if not abs(terms.sum() - want) <= _CERT_ULPS * 2 * n * _EPS * size:
            raise SpectrumCertificateError(
                f"{name}: the roots give {terms.sum():.6g}, the modal form {want:.6g}")


def spectrum(pencil: GeneratorPencil) -> np.ndarray:
    """The complete spectrum of the pencil, from its modal form.

    The pencil dimension is checked against DENSE_CAP first.  Operators or
    secular weights that overflow raise AssemblyError; a root set that fails
    its certificate raises SpectrumCertificateError and yields no spectrum.
    """
    if pencil.n > DENSE_CAP:
        raise DimensionCapExceeded(pencil.n)
    omega, Q = modal_form(pencil)
    delta = secular_roots(omega, Q)
    certify(omega, Q, delta)
    lam = 1j * np.concatenate([omega, -omega]) + delta
    return lam[np.lexsort((lam.imag, -lam.real))]


def mesh_spectrum(beam: BeamParams, tip: float, ne: int) -> np.ndarray:
    """One study row: the spectrum of the beam on a mesh of ne elements."""
    try:
        return spectrum(generator(assemble(build_mesh(beam.ell, beam.xi, ne),
                                           beam, tip)))
    except SpectrumCertificateError as exc:
        eps = f", epsilon={tip:g}" if tip else ""
        raise SpectrumCertificateError(
            f"spectrum at ne={ne}, xi={beam.xi_fraction}{eps} "
            f"failed its certificate: {exc}")


def xi_study(beam: BeamParams, tip: float, xi_fractions,
             ne_values) -> list[tuple[Fraction, int, float, str]]:
    """Abscissa table over damper locations and mesh refinements.

    Locations are exact fractions of the length so the verdict of
    is_stabilizing_xi applies and the mesh places the damper on a node.
    Every ne is checked against DENSE_CAP before the first solve; the rows
    are solved in order, every ne of the first location first.
    """
    ne_max = max(ne_values, default=0)
    if 4 * ne_max > DENSE_CAP:
        raise DimensionCapExceeded(4 * ne_max)
    rows = []
    for frac in map(Fraction, xi_fractions):
        row_beam = dataclasses.replace(beam, xi_num=frac.numerator,
                                       xi_den=frac.denominator)
        for ne in ne_values:
            lam = mesh_spectrum(row_beam, tip, ne)
            rows.append((frac, ne, float(lam[0].real), is_stabilizing_xi(frac)))
    return rows


def trend_toward_zero(rows) -> bool:
    """Operational reading of 'abscissa approaches 0 under refinement'.

    rows are xi_study rows of one damper location.  True when the finest
    abscissa at least halves its distance to zero relative to the coarsest
    and ends within 1e-6 of the axis.
    """
    rows = sorted(rows, key=lambda r: r[1])
    a_min, a_max = rows[0][2], rows[-1][2]
    return a_max >= 0.5 * a_min and a_max >= -1e-6
