import functools
import importlib.util
from fractions import Fraction
from pathlib import Path
from struct import unpack_from

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from gapbeam import BeamParams, ForceLaw, NormalCompliance, assemble, build_mesh
from gapbeam.artifacts import _SNAP_MAGIC, _SNAP_VERSION

# property tests draw the same examples on every run and stay within seconds
settings.register_profile("gapbeam", derandomize=True, deadline=None,
                          max_examples=40, database=None)
settings.load_profile("gapbeam")


def desk_beam(gamma1=0.0, gamma2=0.0, xi=Fraction(1, 2)):
    """Unit-coefficient beam used throughout the desk-scale tests."""
    return BeamParams(rho1=1.0, rho2=1.0, k=1.0, b=1.0, ell=1.0,
                      gamma1=gamma1, gamma2=gamma2, xi_num=xi.numerator,
                      xi_den=xi.denominator)


def desk_system(ne=16, gamma1=0.0, gamma2=0.0, xi=Fraction(1, 2), tip=0.0):
    beam = desk_beam(gamma1, gamma2, xi)
    mesh = build_mesh(beam.ell, beam.xi, ne)
    return assemble(mesh, beam, tip)


@functools.cache
def digest_tool():
    """tools/artifact_digests.py as a module, loaded on first use: it imports
    the test modules whose configs it runs."""
    spec = importlib.util.spec_from_file_location(
        "artifact_digests",
        Path(__file__).parents[1] / "tools" / "artifact_digests.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def assert_digest_line(line):
    """line, a reference run's 'name exit digest' from digest_tool, is the
    run's line in tools/artifact_digests.expected.  It skips under python,
    numpy or BLAS versions or BLAS thread variables other than the file's."""
    tool = digest_tool()
    header, want = tool.expected()
    if header != tool.environment():
        pytest.skip("environment differs")
    assert line == want[line.split()[0]]


def p1_law(d, g_lo, g_hi):
    """The p = 1 stop law of stiffness d on both sides: the Signorini penalty
    law of eps_pen = 1/d."""
    return NormalCompliance(d1=d, d2=d, p=1, g_lo=g_lo, g_hi=g_hi)


def toarray(op):
    """The dense matrix of a discretize.CooMatrix: entries at one (row, col) add."""
    flat = np.bincount(op.rows * op.n + op.cols, weights=op.vals,
                       minlength=op.n * op.n)
    return flat.reshape(op.n, op.n)


def load_snapshot(path, system):
    """(u, w, t) of a snapshot of system's mesh, the file that
    artifacts.save_snapshot writes; the essential dofs drop out."""
    blob = Path(path).read_bytes()
    head = len(_SNAP_MAGIC) + 16
    if not blob.startswith(_SNAP_MAGIC) or len(blob) < head:
        raise ValueError(f"{path}: not a snapshot file, or its header is cut")
    version, nn, t = unpack_from("<IId", blob, len(_SNAP_MAGIC))
    if version != _SNAP_VERSION:
        raise ValueError(f"{path}: unsupported snapshot version {version}")
    if len(blob) != head + 32 * nn:
        raise ValueError(f"{path}: {len(blob)} bytes, where a snapshot of {nn} "
                         f"nodes takes {head + 32 * nn}")
    if nn != system.mesh.nn:
        raise ValueError(f"{path}: a snapshot of {nn} nodes, where the mesh "
                         f"has {system.mesh.nn}")
    phi, psi, phi_t, psi_t = np.frombuffer(blob, dtype="<f8",
                                           offset=head).reshape(4, nn)
    return (system.reduce(np.concatenate([phi, psi])),
            system.reduce(np.concatenate([phi_t, psi_t])), t)


def last_state(traj):
    """The reduced (u, w) of a trajectory's last sample."""
    return traj.U[-1], traj.W[-1]


def force_laws(mu_max=10.0, alpha_max=3.0):
    """Hypothesis strategy: a body-force law, with or without a cutoff."""
    return st.builds(ForceLaw, mu=st.floats(0.0, mu_max),
                     alpha=st.floats(0.0, alpha_max),
                     cutoff_r=st.none() | st.floats(0.1, 2.0),
                     f0=st.floats(-1.0, 1.0))


@pytest.fixture
def conservative_system():
    return desk_system(ne=16)


@pytest.fixture
def damped_system():
    return desk_system(ne=16, gamma1=1.0, gamma2=1.0)
