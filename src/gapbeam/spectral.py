"""First-order generator pencils, spectra and the damper-location study."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.linalg as sla

from .discretize import SemiDiscreteSystem, assemble, build_mesh
from .model import BeamParams, TipParams, is_stabilizing_xi


class DimensionCapExceeded(RuntimeError):
    """Pencil too large for the dense eigensolver."""

    def __init__(self, n: int, cap: int):
        super().__init__(
            f"pencil dimension {n} exceeds the dense cap {cap}; rerun with "
            f"shift_invert=True to extract the reduced set near Re = 0"
        )


@dataclass(frozen=True)
class GeneratorPencil:
    """Companion pencil lam * M_block x = A_block x of the first-order system."""

    A_block: np.ndarray
    M_block: np.ndarray
    model: str                 # 'hybrid' or 'non-hybrid'
    epsilon: float | None
    ne: int

    @property
    def n(self) -> int:
        return self.A_block.shape[0]


def generator(system: SemiDiscreteSystem) -> GeneratorPencil:
    """Assemble [[0, I], [-K, -D]] against blockdiag(I, M).

    The hybrid variant carries the tip-body entries inside M, D, K at the end
    deflection slot (the tip coordinate is identified with that dof); with the
    tip disabled the traction-free end condition holds naturally.  This is the
    one place the sparse operators are densified, for the dense QZ solve.
    """
    n = system.n_free
    eye = np.eye(n)
    zero = np.zeros((n, n))
    A = np.block([[zero, eye], [-system.K.toarray(), -system.D.toarray()]])
    M = np.block([[eye, zero], [zero, system.M.toarray()]])
    tip = system.tip
    return GeneratorPencil(
        A_block=A, M_block=M,
        model="hybrid" if tip.enabled else "non-hybrid",
        epsilon=tip.epsilon if tip.enabled else None,
        ne=system.mesh.ne,
    )


@dataclass(frozen=True)
class SpectralReport:
    """Spectrum of a generator pencil, ordered by real part (descending).

    abscissa is the largest real part; min_damping_gap the distance of the
    spectrum to the imaginary axis.  complete=False marks a shift-invert
    extraction that only covers a neighborhood of the axis.
    """

    eigenvalues: np.ndarray
    abscissa: float
    min_damping_gap: float
    ne: int
    model: str
    epsilon: float | None = None
    complete: bool = True


def _make_report(lam: np.ndarray, pencil: GeneratorPencil, complete: bool) -> SpectralReport:
    order = np.lexsort((lam.imag, -lam.real))
    lam = lam[order]
    return SpectralReport(
        eigenvalues=lam,
        abscissa=float(lam.real.max()),
        min_damping_gap=float(np.abs(lam.real).min()),
        ne=pencil.ne,
        model=pencil.model,
        epsilon=pencil.epsilon,
        complete=complete,
    )


def spectrum(pencil: GeneratorPencil, dense_cap: int = 4000,
             shift_invert: bool = False, shifts=None,
             k_per_shift: int = 24) -> SpectralReport:
    """Eigenvalues of the pencil.

    Dense generalized solve by default (the configured cap bounds the cost);
    above the cap a shift_invert pass targets points on the imaginary axis and
    returns the reduced set found near them.
    """
    if not shift_invert:
        if pencil.n > dense_cap:
            raise DimensionCapExceeded(pencil.n, dense_cap)
        lam = sla.eig(pencil.A_block, pencil.M_block, right=False)
        return _make_report(lam, pencil, complete=True)

    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    n2 = pencil.n // 2
    if shifts is None:
        # top frequency estimate from the stiffness/mass pencil
        K = -pencil.A_block[n2:, :n2]
        M = pencil.M_block[n2:, n2:]
        w2 = spla.eigsh(sp.csc_matrix(K), k=1, M=sp.csc_matrix(M),
                        which="LM", return_eigenvectors=False)
        omega_max = float(np.sqrt(abs(w2[0])))
        shifts = 1j * np.linspace(0.0, omega_max, 7)
    A = sp.csc_matrix(pencil.A_block, dtype=complex)
    M = sp.csc_matrix(pencil.M_block, dtype=complex)
    k = min(k_per_shift, pencil.n - 2)
    found = []
    for sigma in shifts:
        # explicit shift-invert: Ritz values of (A - sigma M)^{-1} M
        lu = spla.splu((A - sigma * M).tocsc())
        op = spla.LinearOperator((pencil.n, pencil.n), dtype=complex,
                                 matvec=lambda x, lu=lu: lu.solve(M @ x))
        theta = spla.eigs(op, k=k, which="LM", return_eigenvectors=False)
        theta = theta[np.abs(theta) > 1e-12]
        found.append(sigma + 1.0 / theta)
    lam = np.concatenate(found)
    lam = lam[np.isfinite(lam)]
    # real pencil: close under conjugation, then drop duplicates across shifts
    lam = np.concatenate([lam, lam.conj()])
    _, keep = np.unique(np.round(lam, 9), return_index=True)
    return _make_report(lam[np.sort(keep)], pencil, complete=False)


@dataclass(frozen=True)
class XiStudyRow:
    xi_fraction: Fraction
    ne: int
    abscissa: float
    verdict: str


def xi_study(beam: BeamParams, tip: TipParams, xi_fractions, ne_values,
             dense_cap: int = 4000) -> list[XiStudyRow]:
    """Abscissa table over damper locations and mesh refinements.

    Locations are exact fractions of the length so the verdict of
    is_stabilizing_xi applies and the mesh places the damper on a node.
    """
    rows = []
    for frac in xi_fractions:
        frac = Fraction(frac)
        verdict = is_stabilizing_xi(frac)
        beam_row = dataclasses.replace(beam, xi_fraction=frac, xi_real=None)
        for ne in ne_values:
            mesh = build_mesh(beam_row.ell, beam_row.xi, ne)
            system = assemble(mesh, beam_row, tip)
            rep = spectrum(generator(system), dense_cap=dense_cap)
            rows.append(XiStudyRow(xi_fraction=frac, ne=ne,
                                   abscissa=rep.abscissa, verdict=verdict))
    return rows


def trend_toward_zero(rows: list[XiStudyRow], tol_bad: float = 1e-6) -> bool:
    """Operational reading of 'abscissa approaches 0 under refinement'.

    True when the finest abscissa at least halves its distance to zero
    relative to the coarsest and ends within tol_bad of the axis.
    """
    rows = sorted(rows, key=lambda r: r.ne)
    a_min, a_max = rows[0].abscissa, rows[-1].abscissa
    return a_max >= 0.5 * a_min and a_max >= -tol_bad
