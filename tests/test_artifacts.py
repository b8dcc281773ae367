"""Snapshot files: bit-exact round trip and named errors for damaged files;
the energy items that trajectory.csv writes as its columns; the artifact
bytes of the reference runs of tools/artifact_digests.py."""

import functools
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import assert_digest_line, desk_system, digest_tool
from gapbeam import (ForceLaw, Laws, NormalCompliance, energy,
                     initial_state)
from gapbeam.artifacts import TRAJECTORY_COLUMNS, load_snapshot, save_snapshot

# signed zeros, the smallest subnormals, a normal-range boundary and the
# largest magnitudes come often; any other double, nan and inf included, may
EDGES = [0.0, -0.0, 5e-324, -5e-324, 1.1e-308, 2.2250738585072014e-308,
         1e308, -1e308]
values = st.one_of(st.sampled_from(EDGES), st.floats())


@functools.lru_cache(maxsize=None)
def system_of(ne):
    return desk_system(ne=ne)


@st.composite
def states(draw):
    """(system, u, w, t) with any doubles in the reduced state and the time."""
    system = system_of(draw(st.integers(min_value=2, max_value=20)))
    n = system.n_free
    u, w = (np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=float)
            for _ in range(2))
    return system, u, w, draw(values)


def bits(u, w, t):
    return np.float64(t).tobytes(), u.tobytes(), w.tobytes()


@given(state=states())
def test_round_trip_is_bit_exact(tmp_path_factory, state):
    system, u, w, t = state
    path = tmp_path_factory.mktemp("snap") / "s.snap"
    save_snapshot(path, system, u, w, t)
    assert bits(*load_snapshot(path, system)) == bits(u, w, t)


@pytest.mark.parametrize("nn", [3, 9])
def test_cut_or_padded_file_names_its_path(tmp_path, nn):
    system = system_of(nn - 1)
    u, w = np.random.default_rng(nn).standard_normal((2, system.n_free))
    whole = tmp_path / "whole.snap"
    save_snapshot(whole, system, u, w, 0.5)
    with pytest.raises(ValueError, match=re.escape(str(whole))):
        load_snapshot(whole, system_of(nn))  # a mesh of another size
    blob = whole.read_bytes()
    path = tmp_path / "damaged.snap"
    for damaged in [blob[:cut] for cut in range(len(blob))] + [blob + b"\0"]:
        path.write_bytes(damaged)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_snapshot(path, system)


def test_energy_items_are_the_trajectory_columns():
    # tip body, both stops (the tip starts past g_hi) and a body law on each field
    system = desk_system(ne=8, gamma1=1.0, gamma2=1.0,
                         tip=0.4)
    laws = Laws(contact=NormalCompliance(d1=1.0, d2=2.0, p=2, g_lo=-0.05,
                                         g_hi=0.05),
                force_f=ForceLaw(mu=0.5, alpha=1.0),
                force_g=ForceLaw(mu=0.5, alpha=2.0))
    u, w = initial_state(system, "mode", amplitude=0.3, amplitude_psi=0.2)
    w += 0.1
    items = energy(system, u, w, laws)
    assert list(items) == list(TRAJECTORY_COLUMNS[1:9] + ("dissipation_rate",))
    for name, value in items.items():
        assert isinstance(value, float) and math.isfinite(value), name
    assert items["N_p"] > 0.0 and items["tip_energy"] > 0.0
    assert items["dissipation_rate"] > 0.0


# C07 and C11 digest the output of their own acceptance runs
DIGEST_RUNS = [run for run in digest_tool().reference_runs()
               if run[0].endswith("-w1") and run[0] not in ("c07-w1", "c11-w1")]


@pytest.mark.parametrize("name, command, mapping", DIGEST_RUNS,
                         ids=[name for name, _, _ in DIGEST_RUNS])
def test_reference_run_artifacts_are_byte_identical(tmp_path, name, command,
                                                    mapping):
    assert_digest_line(digest_tool().digest_line(name, command, mapping,
                                                 tmp_path))
