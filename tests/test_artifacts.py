"""Snapshot files: bit-exact round trip and named errors for damaged files."""

import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gapbeam.artifacts import load_snapshot, save_snapshot
from gapbeam.timestep import State

# signed zeros, the smallest subnormals, a normal-range boundary and the
# largest magnitudes come often; any other double, nan and inf included, may
EDGES = [0.0, -0.0, 5e-324, -5e-324, 1.1e-308, 2.2250738585072014e-308,
         1e308, -1e308]
values = st.one_of(st.sampled_from(EDGES), st.floats())


@st.composite
def states(draw):
    nn = draw(st.integers(min_value=0, max_value=40))
    fields = [np.array(draw(st.lists(values, min_size=nn, max_size=nn)),
                       dtype=float) for _ in range(4)]
    return State(*fields, t=draw(values))


def bits(state):
    return (np.float64(state.t).tobytes(), state.phi.tobytes(),
            state.psi.tobytes(), state.phi_t.tobytes(), state.psi_t.tobytes())


@given(state=states())
def test_round_trip_is_bit_exact(tmp_path_factory, state):
    path = tmp_path_factory.mktemp("snap") / "s.snap"
    save_snapshot(path, state)
    assert bits(load_snapshot(path)) == bits(state)


@pytest.mark.parametrize("nn", [0, 3])
def test_cut_or_padded_file_names_its_path(tmp_path, nn):
    rng = np.random.default_rng(nn)
    whole = tmp_path / "whole.snap"
    save_snapshot(whole, State(*rng.standard_normal((4, nn)), t=0.5))
    blob = whole.read_bytes()
    path = tmp_path / "damaged.snap"
    for damaged in [blob[:cut] for cut in range(len(blob))] + [blob + b"\0"]:
        path.write_bytes(damaged)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_snapshot(path)
