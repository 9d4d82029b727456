import json

import numpy as np
import pytest
from scipy import stats

import phaseinfo as pi
from phaseinfo import ConfigurationError


def test_likelihood_anchors(n1_state):
    # equal-pair state: density (1 + cos delta) / (2 pi)
    assert abs(pi.likelihood_density(n1_state, 0.0) - 1.0 / np.pi) <= 1e-12
    assert pi.likelihood_density(n1_state, np.pi) <= 1e-30
    grid = np.linspace(0, 2 * np.pi, 50)
    expected = (1 + np.cos(grid)) / (2 * np.pi)
    assert np.allclose(pi.likelihood_density(n1_state, grid), expected, atol=1e-12)
    # number states carry no phase dependence at all
    f = pi.fock_state(2, 4)
    assert np.allclose(
        pi.likelihood_density(f, grid), 1.0 / (2 * np.pi), atol=1e-15
    )


def test_likelihood_periodic_and_reduces_large_arguments(n1_state):
    d = 1.3
    assert abs(
        pi.likelihood_density(n1_state, d) - pi.likelihood_density(n1_state, d + 2 * np.pi)
    ) <= 1e-12
    big = 1e9
    assert pi.likelihood_density(n1_state, big) == pi.likelihood_density(
        n1_state, np.mod(big, 2 * np.pi)
    )
    # non-finite offsets are refused before the reduction, not returned as NaN
    for bad in (np.inf, -np.inf, np.nan, [0.5, np.inf]):
        with pytest.raises(ConfigurationError, match="delta must be finite"):
            pi.likelihood_density(n1_state, bad)


def test_canonical_density_matches_pointwise(n1_state):
    g = 1024
    d = pi.canonical_density(n1_state, g)
    assert np.allclose(d.values, pi.likelihood_density(n1_state, pi.grid_angles(g)), atol=1e-12)
    assert abs(d.values.sum() * 2 * np.pi / g - 1.0) <= 1e-12


def test_likelihood_grid_and_sampling_at_small_grid(n1_state):
    assert pi.canonical_density(n1_state, 256).grid_size == 256
    assert abs(pi.likelihood_density(n1_state, 0.0) - 1.0 / np.pi) <= 1e-12
    rec = pi.sample_outcomes(n1_state, 0.5, 3, 9, grid_size=256)
    assert rec.count == 3
    with pytest.raises(ConfigurationError):
        pi.canonical_density(n1_state, 100)
    with pytest.raises(ConfigurationError):
        pi.sample_outcomes(n1_state, 0.5, 3, 9, grid_size=100)


def test_sampling_deterministic(n1_state):
    a = pi.sample_outcomes(n1_state, 1.0, 64, 123)
    b = pi.sample_outcomes(n1_state, 1.0, 64, 123)
    assert np.array_equal(a.outcomes, b.outcomes)
    c = pi.sample_outcomes(n1_state, 1.0, 64, 124)
    assert not np.array_equal(a.outcomes, c.outcomes)


def test_sampling_range_and_record(n1_state):
    rec = pi.sample_outcomes(n1_state, 7.0, 500, 3)
    assert np.all(rec.outcomes >= 0.0)
    assert np.all(rec.outcomes < 2 * np.pi)
    # true phase is stored reduced
    assert abs(rec.true_phase - np.mod(7.0, 2 * np.pi)) <= 1e-15
    assert rec.seed == 3
    assert rec.count == 500


def test_sampling_count_validation(n1_state):
    # floats were truncated and bools taken as counts
    for bad in (0, -5, 2.5, True):
        with pytest.raises(ConfigurationError):
            pi.sample_outcomes(n1_state, 0.0, bad, 1)


def test_seed_validation(n1_state):
    # -1 escaped as a ValueError and 2.5 as a TypeError; the record
    # truncated 2.5 to 2
    for bad in (-1, 2.5, True):
        with pytest.raises(ConfigurationError, match="seed"):
            pi.sample_outcomes(n1_state, 0.0, 3, bad)
        with pytest.raises(ConfigurationError, match="seed"):
            pi.MeasurementRecord(true_phase=0.0, outcomes=[1.0], seed=bad)
    rec = pi.sample_outcomes(n1_state, 0.0, 3, np.int64(7))
    assert rec.seed == 7 and type(rec.seed) is int
    assert rec.outcomes.tobytes() == pi.sample_outcomes(n1_state, 0.0, 3, 7).outcomes.tobytes()


def test_sampling_rejects_non_finite_true_phase(n1_state):
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ConfigurationError, match="true_phase"):
            pi.sample_outcomes(n1_state, bad, 4, 1)


def test_tiny_negative_true_phase_wraps_below_two_pi(n1_state):
    # np.mod(-1e-20, 2 pi) rounds up to exactly 2 pi.
    for phase in (-1e-20, -5e-324, -0.0):
        assert pi.sample_outcomes(n1_state, phase, 3, 1).true_phase == 0.0
        assert pi.MeasurementRecord(phase, [0.5], 0).true_phase == 0.0


def test_fock_outcomes_uniform():
    # flat density: draws must pass a KS test against the uniform law
    n = 100_000
    rec = pi.sample_outcomes(pi.fock_state(1, 2), 0.0, n, 2024)
    stat = stats.kstest(rec.outcomes / (2 * np.pi), "uniform").statistic
    assert stat <= 1.95 / np.sqrt(n)


def test_outcomes_concentrate_at_true_phase(n1_state):
    n = 100_000
    theta = np.pi
    rec = pi.sample_outcomes(n1_state, theta, n, 77)
    z = np.mean(np.exp(1j * rec.outcomes))
    direction = np.mod(np.angle(z), 2 * np.pi)
    assert abs(direction - theta) <= 0.02
    # mean resultant length of the cardioid is 1/2
    assert abs(np.abs(z) - 0.5) <= 0.01


def test_sampled_cdf_tracks_density(n1_state):
    # empirical bin frequencies against exact cell masses, 5 sigma slack
    g = 64
    n = 200_000
    rec = pi.sample_outcomes(n1_state, 2.0, n, 11, grid_size=g)
    counts = np.bincount((rec.outcomes / (2 * np.pi) * g).astype(int), minlength=g)
    probs = pi.likelihood_density(n1_state, pi.grid_angles(g) - 2.0) * 2 * np.pi / g
    probs /= probs.sum()
    sigma = np.sqrt(n * probs * (1 - probs))
    assert np.all(np.abs(counts - n * probs) <= 5 * sigma + 3)


def test_record_validation():
    with pytest.raises(ConfigurationError):
        pi.MeasurementRecord(0.0, np.array([1.0, 7.0]), 0)  # 7.0 out of range
    with pytest.raises(ConfigurationError):
        pi.MeasurementRecord(0.0, np.array([]), 0)
    # NaN fails both range comparisons, so it needs its own refusal
    with pytest.raises(ConfigurationError):
        pi.MeasurementRecord(0.0, np.array([0.5, np.nan]), 0)
    with pytest.raises(ConfigurationError):
        pi.MeasurementRecord(np.nan, np.array([0.5]), 0)
    rec = pi.MeasurementRecord(-1.0, np.array([0.5]), 4)
    assert 0.0 <= rec.true_phase < 2 * np.pi
    assert not rec.outcomes.flags.writeable


def test_record_serialization(tmp_path, n1_state):
    rec = pi.sample_outcomes(n1_state, 0.25, 5, 8)
    doc = pi.record_to_dict(rec)
    assert set(doc) == {"true_phase", "outcomes", "seed"}
    assert len(doc["outcomes"]) == 5
    path = tmp_path / "record.json"
    pi.save_record(rec, str(path))
    loaded = json.loads(path.read_text())
    assert loaded["seed"] == 8
    assert np.allclose(loaded["outcomes"], rec.outcomes)
