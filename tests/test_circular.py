import os
import platform
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

import phaseinfo as pi
from phaseinfo import (
    ConfigurationError,
    DegeneratePosteriorError,
    InvalidDensityError,
    InvalidStateError,
    PhaseinfoError,
    circular,
)

from conftest import independent_density, independent_entropy

LN2PI = np.log(2.0 * np.pi)

# Reference value of the single-measurement information of the equal-pair
# state: the density (1 + cos phi) / (2 pi) has entropy log(2 pi) - (1 - log 2),
# so the information is exactly 1 - log 2.
N1_INFO = 1.0 - np.log(2.0)

# Grid-refined information of the sine-profile state at cutoff 8, frozen from
# a 65536-node evaluation cross-checked against the direct (non-FFT) density
# with extended-precision accumulation; both routes agree below 1e-12.
SINE8_INFO = 1.598173474552067
SINE16_INFO = 2.201291028516543

# Fisher information of sine-profile states, frozen from evaluations at 4096
# and 65536 nodes that agree below 1e-13.  The cutoff-4 value coincides with
# 14/3 to machine precision.
SINE4_FISHER = 14.0 / 3.0
SINE8_FISHER = 13.05572809000084


def test_grid_validation():
    for ok in (64, 128, 4096, 1 << 16):
        assert pi.validate_grid_size(ok) == ok
    for bad in (32, 63, 100, 4095, -64, 0):
        with pytest.raises(ConfigurationError):
            pi.validate_grid_size(bad)
    with pytest.raises(ConfigurationError):
        pi.validate_grid_size(64.0)
    with pytest.raises(ConfigurationError):
        pi.validate_grid_size(True)


def test_uniform_prior():
    prior = pi.uniform_prior(256)
    assert np.allclose(prior.values, 1.0 / (2 * np.pi), atol=1e-16)
    assert np.allclose(prior.log_values, -LN2PI, atol=1e-15)
    assert abs(pi.entropy(prior) - LN2PI) <= 1e-12


def test_density_validation():
    g = 64
    with pytest.raises(ValueError):
        pi.CircularDensity(np.full(g, -1.0 / (2 * np.pi)))
    with pytest.raises(ValueError):
        pi.CircularDensity(np.full(g, 1.0))  # integrates to 2 pi
    with pytest.raises(ValueError):
        pi.CircularDensity(np.full(g, np.nan))
    vals = np.full(g, 1.0 / (2 * np.pi))
    with pytest.raises(ValueError):
        pi.CircularDensity(vals, log_values=np.zeros(g - 1))
    with pytest.raises(ValueError):
        pi.CircularDensity(vals, log_values=np.full(g, np.inf))
    # -inf log entries are legitimate (zero-mass nodes)
    logs = np.full(g, -LN2PI)
    logs[0] = -np.inf
    d = pi.CircularDensity(vals, log_values=logs)
    assert d.grid_size == g


def test_density_error_matrix():
    # Each bad input raises its own error and message, and no warning: the
    # finiteness check comes before any sum, so +inf beside -inf cannot
    # reduce to NaN first.
    g = 64
    flat = np.full(g, 1.0 / (2 * np.pi))
    logs = np.full(g, -LN2PI)
    cases = []
    for bad, message in (
        (np.nan, "density values must be finite"),
        (np.inf, "density values must be finite"),
        (-np.inf, "density values must be finite"),
        (-1e-3, "density values must be nonnegative"),
    ):
        vals = flat.copy()
        vals[5] = bad
        cases.append((vals, None, message))
    both = flat.copy()
    both[[5, 9]] = np.inf, -np.inf
    cases.append((both, None, "density values must be finite"))
    # finite values whose sum overflows
    cases.append((np.full(g, 1e307), None, "density integrates to inf, expected 1 within 1e-9"))
    for bad in (flat.reshape(8, 8), np.array([])):
        cases.append((bad, None, "density values must form a non-empty 1-d array"))
    for bad in (np.nan, np.inf):
        bad_logs = logs.copy()
        bad_logs[3] = bad
        cases.append((flat, bad_logs, "log_values must be free of NaN and +inf"))
    for vals, log_values, message in cases:
        with pytest.raises(InvalidDensityError) as info:
            pi.CircularDensity(vals, log_values)
        assert str(info.value) == message
    bad_logs = logs.copy()
    bad_logs[3] = -np.inf
    assert pi.CircularDensity(flat, bad_logs).log_values[3] == -np.inf
    assert pi.CircularDensity(flat, np.full(g, -np.inf)).grid_size == g


def test_canonical_density_matches_independent_evaluation():
    for state in (pi.normalize([1, 1]), pi.sine_state(8), pi.random_state(16, 4)):
        d = pi.canonical_density(state, 4096)
        ref = independent_density(state, 4096)
        assert np.allclose(d.values, ref, atol=1e-12)
        total = d.values.sum() * 2 * np.pi / 4096
        assert abs(total - 1.0) <= 1e-12


def test_density_errors_are_package_errors():
    with pytest.raises(InvalidDensityError) as info:
        pi.CircularDensity(np.full(64, np.nan))
    assert isinstance(info.value, PhaseinfoError)
    assert isinstance(info.value, ValueError)


def test_canonical_density_matches_amplitude_grid():
    # Cutoffs with 2N + 1 > G exercise the folding of autocorrelation lags
    # past G/2; without it random_state(32, 39) at G = 64 is off by 1.9e-3
    # of the peak.  N = 127 and 128 straddle the switch of the polyphase
    # subgrid from L = 256 to L = 512; N = 200 at G = 256 and 512 is the
    # fold on a single row (L = G).
    for n_max in (0, 1, 8, 31, 32, 40, 63, 127, 128, 200):
        for g in (64, 256, 512, 4096):
            if n_max >= g:
                continue
            for state in (pi.random_state(n_max, 7 + n_max), pi.sine_state(n_max)):
                ref = np.abs(pi.phase_amplitude_grid(state, g)) ** 2 / (2 * np.pi)
                d = pi.canonical_density(state, g)
                assert np.max(np.abs(d.values - ref)) <= 1e-14 * ref.max()
    with pytest.raises(InvalidStateError):
        pi.canonical_density(pi.random_state(64, 1), 64)
    # The twiddle table is shared by every caller, so it must stay read-only.
    tw = circular._twiddles(4096, 256)
    assert circular._twiddles(4096, 256) is tw
    assert tw.shape == (16, 129)
    with pytest.raises(ValueError):
        tw[0, 0] = 0.0


def test_canonical_density_of_fock_is_flat():
    d = pi.canonical_density(pi.fock_state(2, 6), 256)
    assert np.allclose(d.values, 1.0 / (2 * np.pi), atol=1e-15)


def test_entropy_anchors():
    # flat density
    assert abs(pi.entropy(pi.uniform_prior(4096)) - LN2PI) <= 1e-12
    # single-cell density: entropy log(2 pi / G) exactly
    g = 1024
    vals = np.zeros(g)
    vals[17] = g / (2 * np.pi)
    d = pi.CircularDensity(vals)
    assert abs(pi.entropy(d) - np.log(2 * np.pi / g)) <= 1e-12
    # cardioid-shaped density of the equal-pair state: analytic entropy
    s = pi.normalize([1, 1])
    h = pi.entropy(pi.canonical_density(s, 1 << 16))
    assert abs(h - (LN2PI - N1_INFO)) <= 1e-8


def test_entropy_agrees_with_independent_accumulation():
    for state in (pi.normalize([1, 1]), pi.sine_state(8), pi.random_state(12, 8)):
        d = pi.canonical_density(state, 8192)
        assert abs(pi.entropy(d) - independent_entropy(d.values)) <= 1e-11


def test_mutual_information_anchors():
    s = pi.normalize([1, 1])
    assert abs(pi.mutual_information_single(s, 4096) - N1_INFO) <= 1e-6
    assert abs(pi.mutual_information_single(s, 1 << 16) - N1_INFO) <= 1e-8
    for n, n_max in ((0, 0), (0, 4), (3, 8), (16, 16)):
        assert pi.mutual_information_single(pi.fock_state(n, n_max)) <= 1e-12
    assert abs(pi.mutual_information_single(pi.sine_state(8), 1 << 16) - SINE8_INFO) <= 1e-9
    assert abs(pi.mutual_information_single(pi.sine_state(16), 1 << 16) - SINE16_INFO) <= 1e-9


def test_mutual_information_dimension_bound():
    # A measurement with N + 1 distinguishable outcomes cannot beat log(N + 1).
    for n_max in (1, 2, 4, 8, 16):
        for seed in range(5):
            s = pi.random_state(n_max, seed)
            assert pi.mutual_information_single(s) <= np.log(n_max + 1) + 1e-9


def test_mutual_information_gauge_invariance():
    rng = np.random.default_rng(10)
    for n_max in (1, 4, 9):
        s = pi.random_state(n_max, 100 + n_max)
        base_i = pi.mutual_information_single(s)
        base_f = pi.fisher_information(s)
        for _ in range(3):
            alpha, beta = rng.uniform(0, 2 * np.pi, size=2)
            t = pi.gauge_transform(s, alpha, beta)
            assert abs(pi.mutual_information_single(t) - base_i) <= 1e-10
            assert abs(pi.fisher_information(t) - base_f) <= 1e-10


def test_grid_refinement_converges():
    for state in (pi.sine_state(8), pi.random_state(16, 2)):
        coarse = pi.mutual_information_single(state, 1 << 12)
        fine = pi.mutual_information_single(state, 1 << 16)
        assert abs(coarse - fine) <= 1e-7
        d1 = abs(
            pi.mutual_information_single(state, 1024)
            - pi.mutual_information_single(state, 2048)
        )
        d2 = abs(
            pi.mutual_information_single(state, 2048)
            - pi.mutual_information_single(state, 4096)
        )
        assert d2 <= d1 + 1e-15


def test_fisher_anchors():
    s = pi.normalize([1, 1])
    assert abs(pi.fisher_information(s, 4096) - 1.0) <= 1e-8
    for n, n_max in ((0, 0), (2, 4), (8, 16)):
        assert pi.fisher_information(pi.fock_state(n, n_max)) <= 1e-12
    assert abs(pi.fisher_information(pi.sine_state(4)) - SINE4_FISHER) <= 1e-9
    assert abs(pi.fisher_information(pi.sine_state(8)) - SINE8_FISHER) <= 1e-9


def test_fisher_grid_refinement():
    # The integrand extends analytically through density zeros, so doubling
    # the grid four times over must not move the value.
    for state in (pi.sine_state(4), pi.sine_state(8), pi.random_state(6, 12)):
        coarse = pi.fisher_information(state, 4096)
        fine = pi.fisher_information(state, 1 << 16)
        assert abs(coarse - fine) <= 1e-6


def test_posterior_single_update_analytic(n1_state):
    # From a flat prior the posterior equals the likelihood curve itself.
    g = 4096
    outcome = 1.25
    post = pi.posterior_update(pi.uniform_prior(g), n1_state, outcome)
    expected = (1.0 + np.cos(outcome - pi.grid_angles(g))) / (2 * np.pi)
    assert np.allclose(post.values, expected, atol=1e-12)
    peak = pi.grid_angles(g)[np.argmax(post.values)]
    assert abs(peak - outcome) <= 2 * np.pi / g + 1e-12


def test_posterior_fock_is_uninformative():
    g = 1024
    post = pi.posterior_update(pi.uniform_prior(g), pi.fock_state(1, 3), 2.0)
    assert np.allclose(post.values, 1.0 / (2 * np.pi), atol=1e-14)


def test_posterior_log_and_linear_paths_agree(n1_state):
    g = 512
    linear_prior = pi.CircularDensity(np.full(g, 1.0 / (2 * np.pi)))
    log_prior = pi.uniform_prior(g)
    a = pi.posterior_update(linear_prior, n1_state, 0.8)
    b = pi.posterior_update(log_prior, n1_state, 0.8)
    assert np.allclose(a.values, b.values, atol=1e-12)
    assert a.log_values is not None
    assert b.log_values is not None


def test_posterior_outcome_order_irrelevant(n1_state):
    g = 2048
    outcomes = np.array([0.3, 2.9, 4.4, 1.1, 5.8])
    base = pi.posterior_from_outcomes(n1_state, outcomes, g)
    perm = pi.posterior_from_outcomes(n1_state, outcomes[::-1], g)
    assert np.max(np.abs(base.values - perm.values)) <= 1e-12
    # and the one-shot path matches sequential updating
    chained = pi.uniform_prior(g)
    for x in outcomes:
        chained = pi.posterior_update(chained, n1_state, x)
    assert np.max(np.abs(base.values - chained.values)) <= 1e-9
    # and no outcomes at all leave the uniform prior
    empty = pi.posterior_from_outcomes(n1_state, [], g)
    assert np.array_equal(empty.values, pi.uniform_prior(g).values)
    assert np.array_equal(empty.log_values, pi.uniform_prior(g).log_values)


def test_posterior_across_outcome_chunks():
    # 40 outcomes span several batched-FFT chunks; the batch posterior must
    # match a chain of single updates and not depend on outcome order.
    g = 4096
    s = pi.random_state(8, 3)
    outcomes = pi.sample_outcomes(s, 1.0, 40, 3, grid_size=g).outcomes
    base = pi.posterior_from_outcomes(s, outcomes, g)
    chained = pi.uniform_prior(g)
    for x in outcomes:
        chained = pi.posterior_update(chained, s, x)
    assert np.max(np.abs(base.values - chained.values)) <= 1e-9
    reversed_ = pi.posterior_from_outcomes(s, outcomes[::-1], g)
    assert np.max(np.abs(base.values - reversed_.values)) <= 1e-12


def test_posterior_long_chain_well_normalized(n1_state):
    g = 4096
    record = pi.sample_outcomes(n1_state, 2.0, 200, 7, grid_size=g)
    post = pi.posterior_from_outcomes(n1_state, record.outcomes, g)
    total = post.values.sum() * 2 * np.pi / g
    assert abs(total - 1.0) <= 1e-9
    assert pi.entropy(post) < pi.entropy(pi.uniform_prior(g))


def test_degenerate_posterior_raises():
    # A prior concentrated on one node, combined with an outcome whose
    # likelihood vanishes exactly there, leaves no mass anywhere.  The
    # antisymmetric pair state has an exact machine zero at offset 0.
    dead = pi.normalize([1.0, -1.0])
    g = 256
    vals = np.zeros(g)
    vals[0] = g / (2 * np.pi)
    linear_prior = pi.CircularDensity(vals)
    with pytest.raises(DegeneratePosteriorError, match="outcome"):
        pi.posterior_update(linear_prior, dead, 0.0)
    with np.errstate(divide="ignore"):
        logs = np.log(vals)
    log_prior = pi.CircularDensity(vals, log_values=logs)
    with pytest.raises(DegeneratePosteriorError, match="outcome"):
        pi.posterior_update(log_prior, dead, 0.0)


def _first_vanishing(c, logs, outcomes, g):
    # The message of a row-by-row accumulation that checks the peak after
    # each outcome, or None if the mass never vanishes.
    logs = logs.copy()
    n = np.arange(c.size)
    with np.errstate(divide="ignore"):
        for j, x in enumerate(outcomes):
            logs += np.log(np.abs(np.fft.fft(c * np.exp(1j * x * n), n=g)) ** 2 / (2 * np.pi))
            if not np.isfinite(logs.max()):
                return (
                    "posterior mass vanished at every grid node after outcome "
                    "index %d (value %.17g)" % (j, x)
                )
    return None


def test_degenerate_posterior_names_the_outcome_of_the_row_by_row_check():
    # Amplitudes of 1e-161 (the posterior reads nothing else of a state) make
    # the likelihood underflow to exactly zero on a band of about 9 nodes
    # around x + pi.  The prior lives on nodes 40 and 41, and on node 10 when
    # ``early`` kills it first: kill_a empties node 10 alone, kill_b nodes 40
    # and 41, and the fillers only nodes that are already dead.  The check
    # runs once per 16-outcome chunk, so the last deaths sit around its edges.
    g = 64
    tiny = types.SimpleNamespace(amplitudes=np.array([1e-161, 1e-161], dtype=complex))
    kill_a, kill_b = 10 * 2 * np.pi / g + np.pi, 40.5 * 2 * np.pi / g - np.pi
    fillers = (25 * 2 * np.pi / g - np.pi + 2 * np.pi, 55 * 2 * np.pi / g - np.pi)
    for last, early in ((0, None), (15, 3), (16, 2), (17, 16), (31, 5), (40, 20)):
        outcomes = np.array([fillers[j % 2] for j in range(48)])
        logs = np.full(g, -np.inf)
        logs[[40, 41]] = np.log([0.2, 0.3])
        if early is not None:
            logs[10] = np.log(0.1)
            outcomes[early] = kill_a
        outcomes[last] = kill_b
        # Node 10, dead already, gets a zero row again after the last death.
        outcomes[last + 1] = kill_a
        expected = _first_vanishing(tiny.amplitudes, logs, outcomes, g)
        assert "index %d " % last in expected
        before = logs.copy()
        with pytest.raises(DegeneratePosteriorError) as raised:
            circular._log_posterior(logs, tiny, outcomes)
        assert str(raised.value) == expected
        assert logs.tobytes() == before.tobytes()
        # Without the last death the posterior keeps the reference's bytes.
        outcomes[last] = fillers[0]
        assert _first_vanishing(tiny.amplitudes, logs, outcomes, g) is None
        values, ref_logs = _reference_posterior(tiny.amplitudes, logs, outcomes, g)
        posterior = circular._log_posterior(logs, tiny, outcomes)
        assert posterior.values.tobytes() == values.tobytes()
        assert posterior.log_values.tobytes() == ref_logs.tobytes()
    # A prior whose logs are all -inf, which the constructor accepts, is
    # emptied by outcome 0, in one update and in a 20-outcome sequence.
    dead_prior = pi.CircularDensity(np.full(g, 1.0 / (2 * np.pi)), np.full(g, -np.inf))
    outcomes = np.array([fillers[j % 2] for j in range(20)])
    for run, outcome_list in (
        (lambda: pi.posterior_update(dead_prior, tiny, 0.5), [0.5]),
        (lambda: circular._log_posterior(dead_prior.log_values, tiny, outcomes), outcomes),
    ):
        expected = _first_vanishing(tiny.amplitudes, dead_prior.log_values, outcome_list, g)
        assert "index 0 " in expected
        with pytest.raises(DegeneratePosteriorError) as raised:
            run()
        assert str(raised.value) == expected


def test_posterior_refuses_non_finite_outcomes():
    # NaN and inf used to surface as a vanished posterior (and inf as an
    # np.mod warning); they are bad input, refused before any transform.
    s = pi.sine_state(4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ConfigurationError, match="outcome index 0 is not finite"):
                pi.posterior_update(pi.uniform_prior(64), s, bad)
            with pytest.raises(ConfigurationError, match="outcome index 17 is not finite"):
                pi.posterior_from_outcomes(s, [0.5] * 17 + [bad, np.nan], 64)


def _direct_first_moment(p):
    # The first moment with e^{i phi} evaluated afresh on every call.
    return np.sum(p * np.exp(1j * pi.grid_angles(p.size)))


def _direct_log(p):
    # The masked log taken through the ufunc's where= path.
    return np.log(p, out=np.zeros(p.size), where=p > 1e-300)


def test_moments_and_entropy_match_direct_formulas_bit_for_bit():
    for g in (64, 4096):
        outcomes = pi.sample_outcomes(pi.sine_state(8), 1.0, 12, 5, grid_size=g).outcomes
        posterior = pi.uniform_prior(g)
        for x in outcomes:
            posterior = pi.posterior_update(posterior, pi.sine_state(8), x)
        densities = [
            pi.uniform_prior(g),
            pi.canonical_density(pi.random_state(8, 3), g),
            pi.canonical_density(pi.random_state(32, 4), g),
            pi.canonical_density(pi.sine_state(16), g),
            pi.canonical_density(pi.fock_state(1, 3), g),
            posterior,
            pi.posterior_from_outcomes(pi.sine_state(8), outcomes, g),
        ]
        for d in densities:
            p = d.values
            z1 = complex(_direct_first_moment(p)) * (2 * np.pi) / g
            r = min(abs(z1), 1.0)
            m = pi.circular_moments(d)
            assert m.mean_resultant_length == r
            direction = float(np.mod(np.angle(z1), 2 * np.pi)) if r > 0.0 else 0.0
            assert m.mean_direction == (0.0 if direction >= 2 * np.pi else direction)
            h = -float((p * _direct_log(p)).sum()) * (2 * np.pi) / g
            assert pi.entropy(d) == h
            assert circular._plogp(p)[1].tobytes() == _direct_log(p).tobytes()


def test_plogp_matches_the_masked_log_bit_for_bit():
    # Both the densities without a masked node and those with one, in node
    # order and in the (Q, L) layout, give the masked log's exact bytes.
    pair = pi.normalize([1.0, 1.0])
    outcomes = pi.sample_outcomes(pair, 0.5, 400, 1, grid_size=256).outcomes
    sharp = pi.posterior_from_outcomes(pair, outcomes, 256).values
    arrays = [
        pi.uniform_prior(64).values,
        pi.canonical_density(pi.random_state(32, 1), 4096).values,
        circular._canonical_values(pi.random_state(40, 2).amplitudes, 4096),
        pi.canonical_density(pair, 64).values,
        circular._canonical_values(pi.sine_state(8).amplitudes, 4096),
        sharp,
    ]
    masked = [bool(np.any(p <= 1e-300)) for p in arrays]
    assert masked == [False, False, False, True, True, True]
    for p in arrays:
        logp = np.log(p, out=np.zeros(p.shape), where=p > 1e-300)
        plogp, got = circular._plogp(p)
        assert got.tobytes() == logp.tobytes()
        assert plogp == float((p * logp).sum())


def test_information_returns_the_gradient_weights_bit_for_bit():
    # The weights are 1 + log p at the unmasked nodes and 0 at the masked
    # ones: the masked log plus the mask, from the one p log p implementation.
    for state, masked in ((pi.random_state(40, 2), False), (pi.sine_state(8), True)):
        c = state.amplitudes
        p = circular._canonical_values(c, 4096)
        assert bool(np.any(p <= 1e-300)) == masked
        value, weights = circular._information(c, 4096)
        plogp, logp = circular._plogp(p)
        assert weights.tobytes() == (logp + (p > 1e-300)).tobytes()
        assert value == LN2PI + plogp * (2 * np.pi) / 4096


def _reference_posterior(c, logs, outcomes, g):
    # Log-likelihood rows added one by one in outcome order, normalized once.
    logs = logs.copy()
    n = np.arange(c.size)
    with np.errstate(divide="ignore"):
        for x in outcomes:
            logs += np.log(np.abs(np.fft.fft(c * np.exp(1j * x * n), n=g)) ** 2 / (2 * np.pi))
    logs -= np.max(logs)
    w = np.exp(logs)
    total = float(w.sum()) * (2 * np.pi) / g
    return w / total, logs - np.log(total)


def test_posterior_matches_the_row_by_row_reference_bit_for_bit():
    g = 4096
    for k, s in enumerate((pi.normalize([1.0, 1.0]), pi.sine_state(8), pi.random_state(32, 1))):
        outcomes = pi.sample_outcomes(s, 1.0 + k, 40, k, grid_size=g).outcomes
        uniform = pi.uniform_prior(g).log_values
        values, logs = _reference_posterior(s.amplitudes, uniform, outcomes, g)
        batch = pi.posterior_from_outcomes(s, outcomes, g)
        assert batch.values.tobytes() == values.tobytes()
        assert batch.log_values.tobytes() == logs.tobytes()
        chained = pi.uniform_prior(g)
        for x in outcomes:
            values, logs = _reference_posterior(s.amplitudes, chained.log_values, [x], g)
            chained = pi.posterior_update(chained, s, x)
            assert chained.values.tobytes() == values.tobytes()
            assert chained.log_values.tobytes() == logs.tobytes()


def test_posterior_matches_the_reference_at_chunk_edges():
    # Outcome counts on both sides of each 16-row chunk boundary, on a
    # coarse and on the default grid, keep the row-by-row reference's bytes.
    for g in (64, 4096):
        uniform = pi.uniform_prior(g).log_values
        for k, s in enumerate((pi.sine_state(8), pi.random_state(32, 1))):
            outcomes = pi.sample_outcomes(s, 0.5 + k, 64, 7 + k, grid_size=g).outcomes
            for m in (1, 15, 16, 17, 33, 64):
                values, logs = _reference_posterior(s.amplitudes, uniform, outcomes[:m], g)
                batch = pi.posterior_from_outcomes(s, outcomes[:m], g)
                assert batch.values.tobytes() == values.tobytes()
                assert batch.log_values.tobytes() == logs.tobytes()


_FAULT_PROBE = """
import resource
import phaseinfo as pi
s = pi.sine_state(8)
x = pi.sample_outcomes(s, 1.0, 64, 0, grid_size=4096).outcomes
pi.posterior_from_outcomes(s, x, 4096)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    pi.posterior_from_outcomes(s, x, 4096)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="minor-fault counts are pinned for Linux with glibc",
)
def test_posteriors_fault_in_no_fresh_pages():
    # Ten warm 64-outcome posteriors reuse one rows buffer each, and glibc
    # reuses the freed heap blocks of each chunk's spectrum and fresh log
    # array.  With fresh rows per chunk the probe counted about 9,500 minor
    # faults, with one buffer per posterior about 130 (x86_64, glibc,
    # Python 3.11, numpy 2.4).
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(pi.__file__).parents[1]), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _FAULT_PROBE], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 1000


def test_posterior_update_leaves_its_prior_untouched():
    # With logs and with values only, the prior's bytes survive the update,
    # and the posterior shares no memory with it and cannot be written to.
    s = pi.sine_state(8)
    with_logs = pi.posterior_update(pi.uniform_prior(4096), s, 0.7)
    values_only = pi.CircularDensity(with_logs.values)
    for prior in (with_logs, values_only):
        arrays = [a for a in (prior.values, prior.log_values) if a is not None]
        before = [a.tobytes() for a in arrays]
        post = pi.posterior_update(prior, s, 2.3)
        assert [a.tobytes() for a in arrays] == before
        for a in arrays:
            for b in (post.values, post.log_values):
                assert not np.shares_memory(a, b)
        for b in (post.values, post.log_values):
            assert not b.flags.writeable
            with pytest.raises(ValueError):
                b[0] = 0.0


def test_posteriors_pass_the_public_constructor_unchanged():
    # Every posterior the package builds passes the validating constructor
    # with the same bytes, sharp ones with underflowed nodes included.  The
    # antisymmetric pair state's outcome 0 has an exact zero at node 0.
    g = 4096
    pair, dead, sine = pi.normalize([1.0, 1.0]), pi.normalize([1.0, -1.0]), pi.sine_state(8)
    dead_outcomes = pi.sample_outcomes(dead, 0.5, 200, 1, grid_size=g).outcomes.copy()
    dead_outcomes[0] = 0.0
    sine_outcomes = pi.sample_outcomes(sine, 0.5, 200, 1, grid_size=g).outcomes
    posteriors = [
        pi.posterior_update(pi.uniform_prior(g), pair, 1.0),
        pi.posterior_update(pi.uniform_prior(g), sine, 1.0),
        pi.posterior_from_outcomes(dead, dead_outcomes, g),
        pi.posterior_from_outcomes(sine, sine_outcomes, g),
        pi.posterior_from_outcomes(sine, [], g),
    ]
    assert posteriors[2].values[0] == 0.0 and posteriors[2].log_values[0] == -np.inf
    assert np.any(posteriors[3].values == 0.0) and np.isfinite(posteriors[3].log_values).all()
    for post in posteriors:
        rebuilt = pi.CircularDensity(post.values, post.log_values)
        assert rebuilt.values.tobytes() == post.values.tobytes()
        assert rebuilt.log_values.tobytes() == post.log_values.tobytes()


def test_unit_circle_table_is_cached_and_read_only():
    z = circular._unit_circle(256)
    assert circular._unit_circle(256) is z
    assert z.tobytes() == np.exp(1j * pi.grid_angles(256)).tobytes()
    with pytest.raises(ValueError):
        z[0] = 0.0


def test_circular_moments_uniform():
    m = pi.circular_moments(pi.uniform_prior(512))
    assert m.mean_resultant_length <= 1e-12
    assert m.circular_variance >= 1.0 - 1e-12
    assert np.isinf(m.holevo_variance)


def test_circular_moments_cardioid(n1_state):
    m = pi.circular_moments(pi.canonical_density(n1_state, 4096))
    assert abs(m.mean_resultant_length - 0.5) <= 1e-9
    assert min(m.mean_direction, 2 * np.pi - m.mean_direction) <= 1e-9
    assert abs(m.circular_variance - 0.5) <= 1e-9
    assert abs(m.holevo_variance - 3.0) <= 1e-8
    assert 0.0 <= m.mean_direction < 2 * np.pi


def test_circular_moments_single_cell():
    g = 1024
    j = 300
    vals = np.zeros(g)
    vals[j] = g / (2 * np.pi)
    m = pi.circular_moments(pi.CircularDensity(vals))
    assert abs(m.mean_resultant_length - 1.0) <= 1e-12
    assert abs(m.mean_direction - pi.grid_angles(g)[j]) <= 1e-12
    assert m.holevo_variance <= 1e-9


def test_information_report_consistency(n1_state):
    rep = pi.information_report(n1_state)
    assert abs(rep.mutual_information - (LN2PI - rep.entropy)) <= 1e-12
    assert abs(rep.fisher_information - 1.0) <= 1e-8
    keys = set(rep.to_dict())
    assert keys == {
        "entropy",
        "mutual_information",
        "fisher_information",
        "mean_resultant_length",
        "circular_variance",
        "holevo_variance",
    }


def test_information_report_fock_pairing():
    # Zero information pairs with an infinite phase variance, not with an
    # arithmetic blow-up.
    rep = pi.information_report(pi.fock_state(2, 5))
    assert rep.mutual_information <= 1e-12
    assert np.isinf(rep.holevo_variance)
    assert np.isfinite(rep.entropy)
