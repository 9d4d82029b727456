"""Property tests: derandomized, with small example counts to keep the suite fast."""

import contextlib
import io
import json
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import phaseinfo as pi
from phaseinfo import _pool
from phaseinfo.cli import main


def _cube(x):
    return x * x * x


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(items=st.lists(st.integers(-1000, 1000), max_size=12), cpus=st.integers(1, 4))
def test_fan_out_equals_the_plain_loop(items, cpus):
    with mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus))):
        assert _pool._fan_out(_cube, items) == [_cube(x) for x in items]


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


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(
    kind=st.sampled_from(["random", "sine", "fock"]),
    max_photon=st.integers(0, 32),
    index=st.integers(0, 2**32 - 1),
    grid=st.sampled_from([64, 256, 4096]),
    alpha=st.floats(-100.0, 100.0),
    cells=st.integers(0, 4095),
)
def test_whole_cell_gauge_shifts_leave_every_functional_unchanged(
    kind, max_photon, index, grid, alpha, cells
):
    # beta = 2 pi k / G moves the density by whole cells, a permutation of the nodes.
    if kind == "random":
        state = pi.random_state(max_photon, index)
    elif kind == "sine":
        state = pi.sine_state(max_photon)
    else:
        state = pi.fock_state(index % (max_photon + 1), max_photon)
    beta = 2.0 * np.pi * (cells % grid) / grid
    before = pi.information_report(state, grid).to_dict()
    after = pi.information_report(pi.gauge_transform(state, alpha, beta), grid).to_dict()
    for field, value in before.items():
        if np.isinf(value):
            assert after[field] == value, field
        else:
            assert abs(after[field] - value) <= 1e-12 * max(1.0, abs(value)), field


@settings(max_examples=24, derandomize=True, database=None, deadline=None)
@given(
    kind=st.sampled_from(["random", "sine", "fock"]),
    max_photon=st.integers(0, 40),
    index=st.integers(0, 2**32 - 1),
    grid=st.sampled_from([64, 256, 4096]),
)
# At G = 64, N >= 32 folds lags past G / 2 onto the half spectrum (Q = 1).
@example(kind="random", max_photon=40, index=0, grid=64)
def test_single_shot_information_agrees_with_the_entropy_of_the_density(
    kind, max_photon, index, grid
):
    if kind == "random":
        state = pi.random_state(max_photon, index)
    elif kind == "sine":
        state = pi.sine_state(max_photon)
    else:
        state = pi.fock_state(index % (max_photon + 1), max_photon)
    value = pi.mutual_information_single(state, grid)
    assert value >= 0.0
    tol = 1e-14 * max(1.0, abs(value))
    from_entropy = np.log(2.0 * np.pi) - pi.entropy(pi.canonical_density(state, grid))
    assert abs(value - max(0.0, from_entropy)) <= tol
    assert abs(value - pi.information_report(state, grid).mutual_information) <= tol


# Each option has a pool of accepted values and one of refused ones.  Every
# call names each option, so that no default (grid 4096, 16 starts, 500
# trials) runs, and draws at most one of them from its refused pool.  An
# accepted value keeps the run small: cutoffs <= 4, trials and shots <= 5,
# grids <= 256.  A huge refused value must be refused before anything is
# allocated.
_HUGE = [str(2**62), str(2**70)]
_GRID = ("--grid", ["64", "256"], ["100", "0", "x"] + _HUGE)
_SEED = ("--seed", ["0", "7", str(2**128)], ["-1", "2.5"])
_STATE = ("--state", ["pair", "fock"], ["missing", "deep", "broken", "huge"])
_SEARCH = [
    ("--starts", ["1", "2"], ["0", "x"] + _HUGE),
    ("--tol", ["1e-6", "1e-3"], ["0", "inf", "nan"]),
    ("--max-iters", ["1", "30"], ["0", "-5"]),
    _SEED,
    _GRID,
]
_CUTOFF = (["0", "2", "4"], ["-1", "2.5", "4096"])
_OPTIONS = {
    "info": [_STATE, _GRID],
    "optimize": [("--max-photon",) + _CUTOFF] + _SEARCH,
    "sweep": [("--n-max",) + _CUTOFF] + _SEARCH,
    "simulate": [
        _STATE,
        ("--true-phase", ["0", "0.5", "1e300"], ["nan", "inf"]),
        ("--shots", ["1", "5"], ["0"] + _HUGE),
        _SEED,
        _GRID,
    ],
    "bounds": [
        _STATE,
        ("--modes", ["1", "1,4"], ["0", "999", "abc", ""]),
        ("--trials", ["2", "5"], ["1"] + _HUGE),
        _SEED,
        _GRID,
    ],
}


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """The state files that the ``--state`` pools name."""
    root = tmp_path_factory.mktemp("fuzz")
    files = {"missing": str(root / "missing.json")}
    for name, state in (("pair", pi.normalize([1.0, 1.0])), ("fock", pi.fock_state(1, 3))):
        files[name] = str(root / (name + ".json"))
        pi.save_state(state, files[name])
    for name, text in (
        ("deep", "[" * 100000 + "]" * 100000),
        ("broken", "{not json"),
        ("huge", '{"max_photon": 1, "amplitudes": [[1e308, 0], [1e308, 0]]}'),
    ):
        files[name] = str(root / (name + ".json"))
        with open(files[name], "w", encoding="utf-8") as fh:
            fh.write(text)
    return files


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(command=st.sampled_from(sorted(_OPTIONS)), data=st.data())
def test_cli_returns_an_exit_code_for_any_arguments(fuzz_files, command, data):
    options = _OPTIONS[command]
    refused = data.draw(st.none() | st.sampled_from([flag for flag, _, _ in options]))
    argv = [command]
    for flag, good, bad in options:
        value = data.draw(st.sampled_from(bad if flag == refused else good), label=flag)
        argv += [flag, fuzz_files[value] if flag == "--state" else value]
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code in (0, 2, 3)
    assert "Traceback" not in stderr.getvalue()
    if refused is not None:
        assert code == 2 and stderr.getvalue().count("error:") == 1
