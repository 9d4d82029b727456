"""Property tests: derandomized, with small example counts to keep the suite fast."""

import os
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from phaseinfo import states


def _cube(x):
    return x * x * x


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(items=st.lists(st.integers(-1000, 1000), max_size=12), cpus=st.integers(1, 4))
def test_fan_out_equals_the_plain_loop(items, cpus):
    with mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus))):
        assert states._fan_out(_cube, items) == [_cube(x) for x in items]
