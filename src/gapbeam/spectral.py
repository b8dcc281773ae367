"""First-order generator pencils, spectra and the damper-location study.

The second-order system M.u'' + D.u' + K.u = 0 is the first-order pencil
lam * blockdiag(I, M) x = [[0, I], [-K, -D]] x.  Its complete spectrum is taken
in energy coordinates x = (R.u, L^T.u') with M = L.L^T and K = R^T.R, where
|x|^2 / 2 is the discrete energy and the generator is the real matrix

    A = [[0, B], [-B^T, -G]],   B = R.L^-T,   G = L^-1.D.L^-T,

similar to the pencil, exactly skew without damping and dissipative (its
symmetric part is -G) with it; see Tisseur & Meerbergen, "The quadratic
eigenvalue problem", SIAM Rev. 43 (2001), for linearizations.  The module is
numpy only: A is formed from the assembled coordinate lists and its
eigenvalues come from np.linalg.eigvals.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .discretize import (AssemblyError, CooMatrix, SemiDiscreteSystem, assemble,
                         build_mesh, tridiagonal_cholesky)
from .model import BeamParams, TipParams, is_stabilizing_xi
from .rows import map_rows


# largest pencil dimension of the dense eigensolver; ne elements give 4 * ne
DENSE_CAP = 4000


class DimensionCapExceeded(RuntimeError):
    """Pencil larger than DENSE_CAP; raised before any dense work."""

    def __init__(self, n: int):
        self.n = n
        super().__init__(
            f"pencil dimension {n} exceeds DENSE_CAP = {DENSE_CAP} of the dense "
            f"eigensolver; the largest admissible mesh has ne = {DENSE_CAP // 4}"
        )

    def __reduce__(self):
        return type(self), (self.n,)


@dataclass(frozen=True)
class GeneratorPencil:
    """Pencil lam * blockdiag(I, M) x = [[0, I], [-K, -D]] x of the system.

    Holds the coordinate lists of the system's reduced operators and nothing
    of the config they came from; n is the pencil dimension, twice the number
    of free dofs.
    """

    K: CooMatrix = field(repr=False)
    D: CooMatrix = field(repr=False)
    M: CooMatrix = field(repr=False)

    @property
    def n(self) -> int:
        return 2 * self.K.n


def generator(system: SemiDiscreteSystem) -> GeneratorPencil:
    """The generator pencil of an assembled system; no dense work is done here.

    The hybrid variant carries the tip-body entries inside M, D, K at the end
    deflection slot (the tip coordinate is identified with that dof); with the
    tip disabled the traction-free end condition holds naturally.
    """
    return GeneratorPencil(K=system.K, D=system.D, M=system.M)


def energy_form(pencil: GeneratorPencil) -> np.ndarray:
    """The dense real generator A = [[0, B], [-B^T, -G]] of the module docstring.

    M is tridiagonal in the reduced numbering, so L is bidiagonal and every
    solve with it is a row recurrence, O(n) per column; K is not banded and
    gets a dense Cholesky.  D has a few nonzeros on slots S, so
    G = C.D_SS.C^T with C the columns S of L^-1.
    """
    n = pencil.n // 2
    M, D = pencil.M, pencil.D
    L = tridiagonal_cholesky(M.diagonal(), M.diagonal(-1))
    try:
        Rt = np.linalg.cholesky(pencil.K.toarray())  # K = R^T.R, R^T lower
    except np.linalg.LinAlgError as exc:
        raise AssemblyError(
            "reduced stiffness operator is not positive definite") from exc
    A = np.zeros((2 * n, 2 * n))
    Bt = lower_solve(L, Rt)     # B^T = L^-1.R^T, in place of R^T
    A[:n, n:] = Bt.T
    np.negative(Bt, out=A[n:, :n])
    # the sorted slots of np.unique, without its import of numpy.ma
    S = np.flatnonzero(np.bincount(np.concatenate([D.rows, D.cols])))
    if S.size:
        unit = np.zeros((n, S.size))
        unit[S, np.arange(S.size)] = 1.0
        C = lower_solve(L, unit)
        D_SS = CooMatrix(np.searchsorted(S, D.rows), np.searchsorted(S, D.cols),
                         D.vals, S.size).toarray()
        A[n:, n:] = C @ (D_SS @ -C.T)
    return A


def lower_solve(L: tuple[np.ndarray, np.ndarray], rhs: np.ndarray) -> np.ndarray:
    """L^-1.rhs for the bidiagonal factor of tridiagonal_cholesky, in place.

    Row i of the result is (rhs_i - below_{i-1} * x_{i-1}) / lower_i, the
    arithmetic of LAPACK's banded triangular solve dtbtrs.
    """
    lower, below = L
    rhs[0] /= lower[0]
    for i in range(1, len(lower)):
        rhs[i] -= below[i - 1] * rhs[i - 1]
        rhs[i] /= lower[i]
    return rhs


@dataclass(frozen=True)
class SpectralReport:
    """Complete spectrum of a generator pencil, ordered by real part (descending).

    abscissa is the largest real part; min_damping_gap the distance of the
    spectrum to the imaginary axis.  The mesh and tip model of a row are the
    caller's inputs, so the report does not repeat them.
    """

    eigenvalues: np.ndarray
    abscissa: float
    min_damping_gap: float


def spectrum(pencil: GeneratorPencil) -> SpectralReport:
    """The complete spectrum of the pencil.

    The pencil dimension is checked against DENSE_CAP first; the eigenvalues
    are those of the dense energy form A, taken by the general nonsymmetric
    solver also without damping.  An A with a non-finite entry (operators that
    overflowed in assembly) raises AssemblyError.
    """
    if pencil.n > DENSE_CAP:
        raise DimensionCapExceeded(pencil.n)
    A = energy_form(pencil)
    if not np.isfinite(A).all():
        raise AssemblyError("generator in energy form has a non-finite entry")
    lam = np.linalg.eigvals(A)
    lam = lam[np.lexsort((lam.imag, -lam.real))]
    return SpectralReport(
        eigenvalues=lam,
        abscissa=float(lam.real.max()),
        min_damping_gap=float(np.abs(lam.real).min()),
    )


@dataclass(frozen=True)
class XiStudyRow:
    xi_fraction: Fraction
    ne: int
    abscissa: float
    verdict: str


def mesh_spectrum(beam: BeamParams, tip: TipParams, ne: int) -> SpectralReport:
    """The spectrum of the beam on a uniform mesh of ne elements; one study row."""
    mesh = build_mesh(beam.ell, beam.xi, ne)
    return spectrum(generator(assemble(mesh, beam, tip)))


def xi_study(beam: BeamParams, tip: TipParams, xi_fractions, ne_values,
             workers: int = 1) -> list[XiStudyRow]:
    """Abscissa table over damper locations and mesh refinements.

    Locations are exact fractions of the length so the verdict of
    is_stabilizing_xi applies and the mesh places the damper on a node.
    Every ne is checked against DENSE_CAP before the first solve.  The rows
    run on up to `workers` processes (rows.map_rows), weighted by ne**3, the
    cost of the dense eigen-solve.
    """
    ne_max = max(ne_values, default=0)
    if 4 * ne_max > DENSE_CAP:
        raise DimensionCapExceeded(4 * ne_max)
    keys = [(Fraction(frac), ne) for frac in xi_fractions for ne in ne_values]
    jobs = [(dataclasses.replace(beam, xi_fraction=frac, xi_real=None), tip, ne)
            for frac, ne in keys]
    reports = map_rows(mesh_spectrum, jobs, [ne ** 3 for _, ne in keys],
                       workers)
    return [XiStudyRow(xi_fraction=frac, ne=ne, abscissa=rep.abscissa,
                       verdict=is_stabilizing_xi(frac))
            for (frac, ne), rep in zip(keys, reports)]


def trend_toward_zero(rows: list[XiStudyRow], tol_bad: float = 1e-6) -> bool:
    """Operational reading of 'abscissa approaches 0 under refinement'.

    True when the finest abscissa at least halves its distance to zero
    relative to the coarsest and ends within tol_bad of the axis.
    """
    rows = sorted(rows, key=lambda r: r.ne)
    a_min, a_max = rows[0].abscissa, rows[-1].abscissa
    return a_max >= 0.5 * a_min and a_max >= -tol_bad
