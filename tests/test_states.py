import json

import numpy as np
import pytest

import phaseinfo as pi
from phaseinfo import ConfigurationError, InvalidStateError


def test_normalize_equal_pair():
    s = pi.normalize([1.0, 1.0])
    assert np.allclose(s.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-15)
    assert abs(np.linalg.norm(s.amplitudes) - 1.0) <= 1e-15


def test_normalize_rejects_bad_input():
    with pytest.raises(InvalidStateError):
        pi.normalize([0.0, 0.0])
    with pytest.raises(InvalidStateError):
        pi.normalize([])
    with pytest.raises(InvalidStateError):
        pi.normalize([1.0, np.nan])
    with pytest.raises(InvalidStateError):
        pi.normalize([[1.0, 0.0], [0.0, 1.0]])


def test_state_vector_norm_gate():
    with pytest.raises(InvalidStateError):
        pi.StateVector(np.array([1.0, 1.0]))
    # Built directly, without normalize's own refusals in front.
    for bad, message in (
        (np.eye(2), "amplitudes must be one-dimensional, got shape (2, 2)"),
        (np.array([]), "state needs at least one amplitude"),
        (np.array([1.0, np.nan]), "amplitudes contain non-finite entries"),
    ):
        with pytest.raises(InvalidStateError) as info:
            pi.StateVector(bad)
        assert str(info.value) == message
    ok = pi.StateVector(np.array([1.0, 0.0], dtype=complex))
    assert ok.max_photon == 1
    assert ok.dim == 2
    assert not ok.amplitudes.flags.writeable


def test_fock_state_one_hot():
    s = pi.fock_state(3, 8)
    expected = np.zeros(9)
    expected[3] = 1.0
    assert np.array_equal(s.amplitudes, expected)
    with pytest.raises(InvalidStateError):
        pi.fock_state(5, 4)
    with pytest.raises(InvalidStateError):
        pi.fock_state(-1, 4)


def test_sine_state_matches_formula():
    for n_max in (0, 1, 4, 8, 16):
        s = pi.sine_state(n_max)
        n = np.arange(n_max + 1)
        expected = np.sqrt(2.0 / (n_max + 2)) * np.sin(np.pi * (n + 1) / (n_max + 2))
        assert np.allclose(s.amplitudes.real, expected, atol=1e-14)
        assert np.allclose(s.amplitudes.imag, 0.0, atol=1e-16)
        assert abs(np.linalg.norm(s.amplitudes) - 1.0) <= 1e-12


def test_random_state_deterministic_and_distinct():
    a = pi.random_state(8, 42)
    b = pi.random_state(8, 42)
    c = pi.random_state(8, 43)
    assert np.array_equal(a.amplitudes, b.amplitudes)
    assert not np.allclose(a.amplitudes, c.amplitudes)


def test_random_state_norm_over_many_seeds():
    for seed in range(100):
        s = pi.random_state(6, seed)
        assert abs(np.linalg.norm(s.amplitudes) - 1.0) <= 1e-12


def test_random_state_validates_its_arguments():
    # The seeds -1 and 2.5 escaped as numpy's ValueError and TypeError, the
    # cutoff 2.5 as TypeError, and the cutoff True passed as 1.
    for bad in (-1, 2.5, True, None):
        with pytest.raises(ConfigurationError, match="seed must be an integer >= 0"):
            pi.random_state(3, bad)
    for bad in (2.5, True, "3"):
        with pytest.raises(InvalidStateError, match="max_photon must be an integer"):
            pi.random_state(bad, 0)
    with pytest.raises(InvalidStateError, match="max_photon must be nonnegative"):
        pi.random_state(-1, 0)
    # The same cutoff check guards sine_state and fock_state, where 2.5 gave a
    # 4-amplitude state, True the N = 1 state, and fock_state's counts
    # escaped as TypeError, IndexError or a misleading norm error.
    for bad in (2.5, True, "3"):
        with pytest.raises(InvalidStateError, match="max_photon must be an integer"):
            pi.sine_state(bad)
        with pytest.raises(InvalidStateError, match="max_photon must be an integer"):
            pi.fock_state(1, bad)
    for bad in (0.5, True, "1"):
        with pytest.raises(InvalidStateError, match="photon number must be an integer"):
            pi.fock_state(bad, 2)
    with pytest.raises(InvalidStateError, match="max_photon must be nonnegative"):
        pi.sine_state(-1)
    same = pi.random_state(np.int64(3), np.uint64(5))
    assert same.amplitudes.tobytes() == pi.random_state(3, 5).amplitudes.tobytes()


def test_gauge_transform_preserves_norm_and_shifts_density():
    s = pi.sine_state(6)
    g = 256
    shift = 5
    beta = 2.0 * np.pi * shift / g
    moved = pi.gauge_transform(s, 0.37, beta)
    assert abs(np.linalg.norm(moved.amplitudes) - 1.0) <= 1e-12
    base = pi.canonical_density(s, g).values
    shifted = pi.canonical_density(moved, g).values
    # c_n -> exp(i n beta) c_n turns P(phi) into P(phi + beta)
    assert np.allclose(shifted, np.roll(base, -shift), atol=1e-12)
    # A phase that is not finite is refused by name, with no RuntimeWarning.
    for alpha, beta in ((np.inf, 0.0), (-np.inf, 0.0), (np.nan, 0.0), (0.0, np.inf),
                        (0.0, -np.inf), (0.0, np.nan), (0.0, 1e308)):
        with pytest.raises(ConfigurationError, match="alpha .* and beta .* non-finite phase"):
            pi.gauge_transform(s, alpha, beta)


def test_grid_likelihood_refuses_states_wider_than_the_grid():
    # a length-64 FFT cannot hold 101 amplitudes without aliasing
    s = pi.random_state(100, 0)
    with pytest.raises(InvalidStateError):
        pi.posterior_update(pi.uniform_prior(64), s, 0.5)
    with pytest.raises(InvalidStateError):
        pi.sample_outcomes(s, 0.5, 3, 1, grid_size=64)
    for grid_functional in (pi.fisher_information, pi.objective_gradient, pi.canonical_density):
        with pytest.raises(InvalidStateError, match="grid of 64 nodes cannot hold 101 amplitudes"):
            grid_functional(s, 64)


def test_phase_amplitude_scalar():
    s = pi.normalize([1.0, 1.0])
    val = pi.phase_amplitude(s, 0.0)
    assert isinstance(val, complex)
    assert abs(val - np.sqrt(2)) <= 1e-15
    for bad in (np.inf, -np.inf, np.nan, [0.5, np.nan]):
        with pytest.raises(ConfigurationError, match="angles must be finite"):
            pi.phase_amplitude(s, bad)


def test_dict_round_trip_exact():
    s = pi.random_state(5, 9)
    back = pi.state_from_dict(pi.state_to_dict(s))
    assert np.array_equal(back.amplitudes, s.amplitudes)


def test_state_from_dict_rejects_malformed():
    good = pi.state_to_dict(pi.normalize([1.0, 2.0]))
    with pytest.raises(InvalidStateError):
        pi.state_from_dict([1, 2])
    for key in ("max_photon", "amplitudes"):
        broken = dict(good)
        del broken[key]
        with pytest.raises(InvalidStateError, match=key):
            pi.state_from_dict(broken)
    broken = dict(good)
    broken["max_photon"] = -1
    with pytest.raises(InvalidStateError):
        pi.state_from_dict(broken)
    broken = dict(good)
    broken["amplitudes"] = [[1.0, 0.0]]
    with pytest.raises(InvalidStateError):
        pi.state_from_dict(broken)
    broken = dict(good)
    broken["amplitudes"] = [[1.0, 0.0], ["x", 0.0]]
    with pytest.raises(InvalidStateError):
        pi.state_from_dict(broken)
    broken = dict(good)
    broken["amplitudes"] = [[0.0, 0.0], [0.0, 0.0]]
    with pytest.raises(InvalidStateError):
        pi.state_from_dict(broken)


def test_save_load_round_trip(tmp_path):
    s = pi.random_state(7, 21)
    path = str(tmp_path / "state.json")
    pi.save_state(s, path)
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["max_photon"] == 7
    back = pi.load_state(path)
    assert np.array_equal(back.amplitudes, s.amplitudes)


def test_load_state_errors_name_the_path(tmp_path):
    missing = str(tmp_path / "nope.json")
    with pytest.raises(InvalidStateError, match="nope.json"):
        pi.load_state(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InvalidStateError, match="bad.json"):
        pi.load_state(str(bad))
    latin = tmp_path / "latin.json"
    latin.write_bytes(b"\xff\xfe")
    with pytest.raises(InvalidStateError, match="latin.json"):
        pi.load_state(str(latin))
    # a norm that overflows to inf used to be divided down to "state norm is 0"
    huge = tmp_path / "huge.json"
    huge.write_text('{"max_photon": 1, "amplitudes": [[1e308, 0], [1e308, 0]]}')
    with pytest.raises(InvalidStateError, match="huge.json: amplitude norm overflows"):
        pi.load_state(str(huge))
    partial = tmp_path / "partial.json"
    partial.write_text('{"max_photon": 1}')
    with pytest.raises(InvalidStateError, match="partial.json: .*missing field 'amplitudes'"):
        pi.load_state(str(partial))
    # a RecursionError from the JSON decoder used to escape as a traceback
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    with pytest.raises(InvalidStateError, match="deep.json"):
        pi.load_state(str(deep))
    wide = tmp_path / "wide.json"
    wide.write_text('{"max_photon": 0, "amplitudes": [[1%s, 0]]}' % ("0" * 400))
    with pytest.raises(InvalidStateError, match=r"wide.json: field 'amplitudes'\[0\]"):
        pi.load_state(str(wide))

