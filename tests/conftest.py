import functools
import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from gapbeam import BeamParams, ForceLaw, assemble, build_mesh

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
