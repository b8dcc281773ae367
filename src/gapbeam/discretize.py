"""Mesh and semi-discrete operators of the transmission beam.

Linear elements for both fields with one-point (midpoint) integration of the
shear term, the standard cure for shear locking at small thickness.  The
pointwise dampers become single diagonal entries at the interface node, which
is exactly the weak form of the force-jump conditions there.  The tip body is
coupled by identifying the end deflection dof with the tip coordinate and
adding epsilon to mass, damping and stiffness at that slot.  Only the reduced
operators, with the essential dofs phi(0) and psi(ell) eliminated, are kept:
M and K as the coordinate lists assembly builds, their products run on
fixed-width row arrays built from those lists on first use, and D as its
diagonal.  Their Cholesky factors are banded, in Python floats, and their
triangular solves elementwise numpy: no BLAS call.  The element strains are
constant per element; recover_stress gives the stress the contact checks
read, the shear force of the last element at the free end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .model import BeamParams

# linear shape functions at the two Gauss nodes of the reference element
_GAUSS_REF = np.array([-1.0, 1.0]) / math.sqrt(3.0)
N_LEFT = (1.0 - _GAUSS_REF) / 2.0
N_RIGHT = (1.0 + _GAUSS_REF) / 2.0


class AssemblyError(RuntimeError):
    """Inconsistent dof bookkeeping or a singular assembled operator."""


@dataclass(frozen=True, eq=False)
class CooMatrix:
    """An n x n operator as a coordinate list; entries at one (row, col) add.

    Only nonzero entries inside the matrix are stored, in the order assembly
    added them.  A @ x (x a vector) runs on fixed-width (ELL) arrays of the
    merged entries, built on first use.
    """

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    n: int

    def merged(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, vals) sorted by row, then column, one per slot."""
        keys, slot = np.unique(self.rows * self.n + self.cols,
                               return_inverse=True)
        return keys // self.n, keys % self.n, np.bincount(slot, weights=self.vals)

    @cached_property
    def _by_row(self) -> tuple[np.ndarray, np.ndarray]:
        """(data, idx), (width, n): row i's merged entries, zero-padded."""
        rows, cols, vals = self.merged()
        count = np.bincount(rows, minlength=self.n)
        slot = np.arange(rows.size) - (np.cumsum(count) - count)[rows]
        data = np.zeros((max(count.max(initial=0), 1), self.n))
        idx = np.broadcast_to(np.arange(self.n), data.shape).copy()
        data[slot, rows] = vals
        idx[slot, rows] = cols
        return data, idx

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        data, idx = self._by_row
        return np.einsum("ji,ji->i", data, x[idx])

    def abs_row_sums(self) -> np.ndarray:
        """Sum of |a_ij| over each row's merged entries, in column order."""
        return np.abs(self._by_row[0]).cumsum(axis=0)[-1]

    def toarray(self) -> np.ndarray:
        flat = np.bincount(self.rows * self.n + self.cols, weights=self.vals,
                           minlength=self.n * self.n)
        return flat.reshape(self.n, self.n)

    def lower_band(self, rank: np.ndarray) -> np.ndarray:
        """LAPACK's lower band storage of the operator with slot i moved to
        position rank[i]: row k holds the entries (j + k, j), zero past n."""
        cols = rank[self.cols]
        offset = rank[self.rows] - cols
        low = offset >= 0
        flat = np.bincount((offset * self.n + cols)[low], weights=self.vals[low],
                           minlength=(offset.max() + 1) * self.n)
        return flat.reshape(-1, self.n)


def band_cholesky(band: np.ndarray) -> np.ndarray:
    """The factor L of A = L.L^T, both in lower band storage.

    Column by column in Python floats, the recurrence of LAPACK's dpbtf2, so
    that L rounds alike on every BLAS.  A pivot not above the rounding of its
    diagonal entry, eps.A_jj, cannot tell A from a singular matrix:
    np.linalg.LinAlgError then reports A as not positive definite.
    """
    p = len(band) - 1
    # cols[j][k] = A[j + k, j], then p zero columns past the end
    cols = band.T.tolist() + [[0.0] * (p + 1) for _ in range(p)]
    steps = [(b, range(b, p + 1)) for b in range(p, 0, -1)]
    for j, diag in enumerate(band[0].tolist()):
        col = cols[j]
        if not col[0] > 2.0 ** -52 * diag:
            raise np.linalg.LinAlgError(
                f"leading minor of order {j + 1} is not positive definite")
        pivot = col[0] = math.sqrt(col[0])
        for b, reach in steps:   # A[j + a, j + b] -= L[j + a, j].L[j + b, j]
            lb = col[b] = col[b] / pivot
            for a in reach:
                cols[j + b][a - b] -= col[a] * lb
    return np.array(cols[:band.shape[1]]).T


def band_solve(L: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """L^-1.rhs in place, L from band_cholesky and rhs of shape (n, m).

    Row i is (rhs_i - sum_k L[i, i - k].x_{i-k}) / L[i, i], k from the widest
    in, as in LAPACK's dtbtrs, each step elementwise over the columns.
    """
    p, rows = len(L) - 1, list(rhs)
    cols = L.T.tolist()             # cols[i][k] = L[i + k, i]
    term = np.empty(rhs.shape[1])
    for i, (row, col) in enumerate(zip(rows, cols)):
        for k in range(min(p, i), 0, -1):
            row -= np.multiply(cols[i - k][k], rows[i - k], out=term)
        row /= col[0]
    return rhs


@dataclass(frozen=True)
class Mesh:
    """Nodes on [0, ell] with the damper location xi held exactly at a node."""

    nodes: np.ndarray
    xi_index: int

    @property
    def ne(self) -> int:
        return len(self.nodes) - 1

    @property
    def nn(self) -> int:
        return len(self.nodes)

    @property
    def ell(self) -> float:
        return float(self.nodes[-1])

    @cached_property
    def widths(self) -> np.ndarray:
        return np.diff(self.nodes)

    def at_gauss(self, nodal: np.ndarray) -> np.ndarray:
        """Values of a nodal field at the 2-point Gauss nodes, shape (..., ne, 2):
        the nodes run along the last axis of nodal, other axes carry over."""
        return nodal[..., :-1, None] * N_LEFT + nodal[..., 1:, None] * N_RIGHT

    @cached_property
    def gauss_points(self) -> np.ndarray:
        """Positions of the 2-point Gauss nodes, shape (ne, 2)."""
        return self.at_gauss(self.nodes)

    @cached_property
    def gauss_weights(self) -> np.ndarray:
        """Quadrature weights h/2 belonging to gauss_points."""
        return np.outer(self.widths, np.full(2, 0.5))


def build_mesh(ell: float, xi: float, ne: int) -> Mesh:
    """Mesh with ne elements, uniform on each side of xi.

    Element counts are split proportionally to the subinterval lengths
    (rounded, at least one per side) so xi is a node for any location.
    """
    if ne < 2:
        raise ValueError("need at least 2 elements")
    if not 0.0 < xi < ell:
        raise ValueError(f"xi={xi} must lie strictly inside (0, {ell})")
    n_left = int(round(ne * xi / ell))
    n_left = min(max(n_left, 1), ne - 1)
    n_right = ne - n_left
    nodes = np.concatenate(
        [np.linspace(0.0, xi, n_left + 1), np.linspace(xi, ell, n_right + 1)[1:]]
    )
    if np.any(np.diff(nodes) <= 0.0):
        raise AssemblyError("mesh nodes not strictly increasing")
    return Mesh(nodes=nodes, xi_index=n_left)


@dataclass(frozen=True)
class SemiDiscreteSystem:
    """Assembled operators plus dof bookkeeping.

    M, K, D act on the reduced vector: the stacked nodal vector
    [phi_0..phi_N, psi_0..psi_N] without its first and last entries, the
    essential dofs phi(0) and psi(ell), so the free dofs are the contiguous
    range 1 .. 2N and reduce() is a slice (a view).  The quadratic form u.K.u
    equals the potential part of the phase-space norm; w.M.w the kinetic part.
    D is held as its diagonal: gamma1 at phi(xi), gamma2 at psi(xi), the tip
    body's damping at phi(ell) and zero elsewhere, so w.D.w is w @ (D * w).
    """

    mesh: Mesh
    beam: BeamParams
    tip: float                  # the tip body's epsilon
    tip_slot: int               # position of phi(ell) in the reduced numbering
    M: CooMatrix = field(repr=False)
    K: CooMatrix = field(repr=False)
    D: np.ndarray = field(repr=False)

    @property
    def n_free(self) -> int:
        return self.K.n

    @property
    def node_rank(self) -> np.ndarray:
        """Position of each reduced slot in the node order psi_0, phi_1,
        psi_1, ..., phi_N, in which every operator has half-bandwidth 3."""
        node = np.arange(self.mesh.nn - 1)
        return np.concatenate([2 * node + 1, 2 * node])

    def reduce(self, full_vec: np.ndarray) -> np.ndarray:
        return full_vec[1:-1]

    def expand(self, reduced: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Reduced vectors -> (phi, psi) full nodal arrays with essential zeros;
        the dofs run along the last axis, other axes carry over."""
        nn = self.mesh.nn
        full = np.zeros(reduced.shape[:-1] + (2 * nn,))
        full[..., 1:-1] = reduced
        return full[..., :nn], full[..., nn:]


def assemble(mesh: Mesh, beam: BeamParams, tip: float) -> SemiDiscreteSystem:
    """Galerkin assembly of the reduced mass/stiffness/damping operators.

    Shear uses the one-point midpoint rule, bending and mass are exact.
    Dampers are lumped diagonal entries at the xi node.  tip is the tip
    body's epsilon >= 0, which it adds to M, D and K at the phi(ell) slot; with
    epsilon = 0 the end is traction free by the natural boundary condition.
    The element blocks go into one coordinate list each for M and K.  M must
    be positive definite, as band_cholesky checks it.
    """
    if np.any(mesh.widths <= 0.0):
        raise AssemblyError("mesh has empty or inverted elements")
    nn = mesh.nn
    if not 0 < mesh.xi_index < nn - 1:
        raise AssemblyError("damper node collides with an essential dof")
    n = 2 * nn - 2
    h = mesh.widths[:, None, None]
    e = np.arange(nn - 1)
    # element dofs (phi_e, phi_e+1, psi_e, psi_e+1); eliminating phi(0) shifts
    # every full index down by one, so phi(0) lands on -1 and psi(ell) on n
    dofs = np.stack([e, e + 1, nn + e, nn + e + 1], axis=1) - 1
    rows = np.broadcast_to(dofs[:, :, None], (nn - 1, 4, 4)).ravel()
    cols = np.broadcast_to(dofs[:, None, :], (nn - 1, 4, 4)).ravel()

    pair = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0
    m_e = np.zeros((nn - 1, 4, 4))
    m_e[:, :2, :2] = beam.rho1 * h * pair
    m_e[:, 2:, 2:] = beam.rho2 * h * pair
    # midpoint shear strain phi_x + psi_mid as a single constraint row
    g = np.array([-1.0, 1.0, 0.0, 0.0]) / h[:, 0] + np.array([0.0, 0.0, 0.5, 0.5])
    k_e = beam.k * h * (g[:, :, None] * g[:, None, :])
    k_e[:, 2:, 2:] += beam.b / h * np.array([[1.0, -1.0], [-1.0, 1.0]])

    tip_slot = nn - 2

    def coo(r, c, v):
        # entries on the eliminated dofs (-1 and n) and zeros are not stored
        stored = (r >= 0) & (r < n) & (c >= 0) & (c < n) & (v != 0.0)
        return CooMatrix(r[stored], c[stored], v[stored], n)

    # element blocks first, then the point entries, as a sequential assembly
    # would add them
    M = coo(np.append(rows, tip_slot), np.append(cols, tip_slot),
            np.append(m_e.ravel(), tip))
    K = coo(np.append(rows, tip_slot), np.append(cols, tip_slot),
            np.append(k_e.ravel(), tip))
    D = np.zeros(n)
    D[[mesh.xi_index - 1, nn + mesh.xi_index - 1, tip_slot]] = (
        beam.gamma1, beam.gamma2, tip)
    # M couples no phi with a psi dof, so in this numbering it is tridiagonal
    try:
        band_cholesky(M.lower_band(np.arange(n)))
    except np.linalg.LinAlgError as exc:
        raise AssemblyError("reduced mass operator is not positive definite") from exc
    return SemiDiscreteSystem(mesh=mesh, beam=beam, tip=tip, tip_slot=tip_slot,
                              M=M, K=K, D=D)


def element_strains(mesh: Mesh, phi: np.ndarray,
                    psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shear strain phi_x + psi_mid and curvature psi_x of every element.

    Both are constant per element: the shear term is sampled at the midpoint
    (the reduced integration of the stiffness), and psi is linear.  The nodes
    run along the last axis of phi and psi.
    """
    h = mesh.widths
    gamma = np.diff(phi) / h + 0.5 * (psi[..., :-1] + psi[..., 1:])
    kappa = np.diff(psi) / h
    return gamma, kappa


def recover_stress(system: SemiDiscreteSystem, u: np.ndarray) -> np.ndarray:
    """The shear force S(ell-) = k*(phi_x + psi_mid) of the last element.

    It is the end's one-sided stress trace, the traction the Signorini
    condition signs.  u is a reduced displacement vector, or a block of them
    with the dofs along its last axis (such as Trajectory.U); the result takes
    the shape of the block's other axes.
    """
    gamma, _ = element_strains(system.mesh, *system.expand(u))
    return system.beam.k * gamma[..., -1]
