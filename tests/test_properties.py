"""Property tests: derandomized, with small example counts to keep the suite fast."""

import json
import os
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import phaseinfo as pi
from phaseinfo import states


def _cube(x):
    return x * x * x


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(items=st.lists(st.integers(-1000, 1000), max_size=12), cpus=st.integers(1, 4))
def test_fan_out_equals_the_plain_loop(items, cpus):
    with mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus))):
        assert states._fan_out(_cube, items) == [_cube(x) for x in items]


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(
    max_photon=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
    outcomes=st.lists(st.floats(0.0, 6.283185307179586), min_size=1, max_size=12),
    data=st.data(),
)
def test_posterior_does_not_depend_on_the_outcome_order(max_photon, seed, outcomes, data):
    state = pi.random_state(max_photon, seed)
    shuffled = data.draw(st.permutations(outcomes))
    first = pi.posterior_from_outcomes(state, outcomes, 256).values
    second = pi.posterior_from_outcomes(state, shuffled, 256).values
    assert np.max(np.abs(first - second)) <= 1e-12 * np.max(first)


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(max_photon=st.integers(0, 40), seed=st.integers(0, 2**32 - 1))
def test_state_json_round_trip_is_exact(max_photon, seed):
    state = pi.random_state(max_photon, seed)
    text = pi.dumps_json(pi.state_to_dict(state))
    back = pi.state_from_dict(json.loads(text))
    assert back.amplitudes.tobytes() == state.amplitudes.tobytes()
