import os

import numpy as np
import pytest

import phaseinfo as pi
from phaseinfo import (
    ConfigurationError,
    DegeneratePosteriorError,
    UndefinedAsymptoteError,
)

LN2PI = np.log(2.0 * np.pi)

# Frozen regression values for the equal-pair state, 500 trials, seed 12345.
# These pin the deterministic Monte Carlo stream; correctness is established
# separately by the statistical checks below.
MC_GOLDEN = {
    1: (0.3068528194403775, 9.294876673e-13),
    4: (0.9049768288011389, 0.004524173268),
    16: (1.720412741154986, 0.004658113063),
    64: (2.457277750147494, 0.004110737461),
}


def test_chain_bound_basics(n1_state):
    single = pi.mutual_information_single(n1_state)
    assert pi.chain_upper_bound(n1_state, 1) == single
    assert abs(pi.chain_upper_bound(n1_state, 2) - 2 * single) <= 1e-15
    for m in (1, 5):
        assert pi.chain_upper_bound(pi.fock_state(1, 3), m) <= 1e-12
    for bad in (0, -3, True):
        with pytest.raises(ConfigurationError):
            pi.chain_upper_bound(n1_state, bad)


def test_asymptote_formula():
    # value is log(2 pi) + half the log of M F over 2 pi e
    for fisher, modes in ((1.0, 100), (4.5, 7), (0.3, 1)):
        expected = LN2PI + 0.5 * np.log(modes * fisher / (2 * np.pi * np.e))
        assert abs(pi.asymptotic_information(fisher, modes) - expected) <= 1e-12
    # crosses log(2 pi) exactly where M F equals 2 pi e
    assert abs(pi.asymptotic_information(2 * np.pi * np.e, 1) - LN2PI) <= 1e-12


def test_asymptote_needs_positive_fisher():
    with pytest.raises(UndefinedAsymptoteError):
        pi.asymptotic_information(0.0, 10)
    with pytest.raises(UndefinedAsymptoteError):
        pi.asymptotic_information(-1.0, 10)
    with pytest.raises(ConfigurationError):
        pi.asymptotic_information(1.0, 0)


def test_monte_carlo_deterministic(n1_state):
    a = pi.monte_carlo_information(n1_state, 2, 20, seed=5)
    b = pi.monte_carlo_information(n1_state, 2, 20, seed=5)
    assert a == b
    c = pi.monte_carlo_information(n1_state, 2, 20, seed=6)
    assert a != c


def test_monte_carlo_ignores_global_rng_state(n1_state):
    a = pi.monte_carlo_information(n1_state, 2, 10, seed=1)
    np.random.seed(987)
    np.random.random(100)
    b = pi.monte_carlo_information(n1_state, 2, 10, seed=1)
    assert a == b


def test_monte_carlo_validation(n1_state):
    with pytest.raises(ConfigurationError):
        pi.monte_carlo_information(n1_state, 2, 1)
    with pytest.raises(ConfigurationError, match="grid"):
        pi.monte_carlo_information(n1_state, 257, 10, grid_size=4096)
    with pytest.raises(ConfigurationError):
        pi.monte_carlo_information(n1_state, 0, 10)


def test_trial_count_must_be_an_integer(n1_state):
    # 2.5 trials used to run as 2
    for bad in (2.5, True, 2.0):
        with pytest.raises(ConfigurationError, match="trials"):
            pi.monte_carlo_information(n1_state, 2, bad)
        with pytest.raises(ConfigurationError, match="trials"):
            pi.bound_report(n1_state, 2, trials=bad)


def test_seed_must_be_a_nonnegative_integer(n1_state):
    for bad in (-1, 2.5, True):
        with pytest.raises(ConfigurationError, match="seed"):
            pi.monte_carlo_information(n1_state, 2, 4, seed=bad)
        with pytest.raises(ConfigurationError, match="seed"):
            pi.bound_report(n1_state, 2, trials=4, seed=bad)
    assert pi.monte_carlo_information(n1_state, 2, 4, seed=np.int64(3), grid_size=256) == (
        pi.monte_carlo_information(n1_state, 2, 4, seed=3, grid_size=256)
    )


def test_bound_report_refuses_bad_input_before_grid_work(n1_state, monkeypatch):
    def grid_work(*args, **kwargs):
        raise AssertionError("grid work done before the input was checked")

    monkeypatch.setattr("phaseinfo.bounds.mutual_information_single", grid_work)
    monkeypatch.setattr("phaseinfo.bounds.fisher_information", grid_work)
    g = 256
    for kwargs in ({"trials": 1}, {"seed": -1}, {"modes": g // 16 + 1}):
        args = {"modes": 2, "trials": 4, "seed": 0, "grid_size": g, **kwargs}
        with pytest.raises(ConfigurationError):
            pi.bound_report(n1_state, **args)


def test_monte_carlo_fock_carries_nothing():
    mean, stderr = pi.monte_carlo_information(pi.fock_state(1, 2), 4, 40, seed=2)
    assert abs(mean) <= 1e-9
    assert stderr <= 1e-9
    # Every trial of |0> gains nothing; rounding must not make the mean negative.
    for m in (1, 4):
        mean, stderr = pi.monte_carlo_information(pi.fock_state(0, 2), m, 20)
        assert 0.0 <= mean <= 1e-9
        assert stderr <= 1e-9


def test_monte_carlo_single_measurement_unbiased(n1_state):
    # One measurement from a flat prior: the expected entropy drop is the
    # analytic single-measurement information.  The estimator's deterministic
    # quadrature bias is far below 1e-9, and 3 sigma covers the rest.
    mean, stderr = pi.monte_carlo_information(n1_state, 1, 200, seed=31)
    assert abs(mean - (1.0 - np.log(2.0))) <= max(3 * stderr, 1e-9)


def test_monte_carlo_monotone_in_modes(n1_state):
    # More measurements never hurt in expectation.  Sampling noise can still
    # reorder neighbouring means, so allow 3 sigma of combined slack per pair.
    results = [pi.monte_carlo_information(n1_state, m, 200, seed=7) for m in (1, 2, 4, 8, 16, 32, 64)]
    for (lo_mean, lo_err), (hi_mean, hi_err) in zip(results, results[1:]):
        slack = 3.0 * np.hypot(lo_err, hi_err)
        assert hi_mean >= lo_mean - slack


def test_monte_carlo_regression_goldens(n1_state):
    for m, (golden_mean, golden_stderr) in MC_GOLDEN.items():
        mean, stderr = pi.monte_carlo_information(n1_state, m, 500, seed=12345)
        assert abs(mean - golden_mean) <= 1e-9
        assert abs(stderr - golden_stderr) <= 1e-9


def test_monte_carlo_degenerate_trial_is_tagged(n1_state, monkeypatch):
    def explode(*args, **kwargs):
        raise DegeneratePosteriorError("no mass anywhere")

    monkeypatch.setattr("phaseinfo.bounds.posterior_from_outcomes", explode)
    # The patch reaches this process only, so no trial may run in a worker.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    with pytest.raises(DegeneratePosteriorError, match="trial 0"):
        pi.monte_carlo_information(n1_state, 2, 5, seed=0)


def test_bound_report_fields(n1_state):
    rep = pi.bound_report(n1_state, 4, trials=500, seed=12345)
    golden_mean, golden_stderr = MC_GOLDEN[4]
    assert rep.modes == 4
    assert rep.mc_trials == 500
    assert abs(rep.mc_information - golden_mean) <= 1e-9
    assert abs(rep.mc_stderr - golden_stderr) <= 1e-9
    assert abs(rep.chain_upper_bound - 4 * rep.single_info) <= 1e-9
    assert abs(rep.fisher - 1.0) <= 1e-8
    expected_asym = LN2PI + 0.5 * np.log(4 * rep.fisher / (2 * np.pi * np.e))
    assert abs(rep.asymptotic_value - expected_asym) <= 1e-12
    doc = rep.to_dict()
    assert set(doc) == {
        "modes",
        "mc_information",
        "mc_stderr",
        "mc_trials",
        "chain_upper_bound",
        "asymptotic_value",
        "fisher",
        "single_info",
    }


def test_bound_report_fock_has_no_asymptote():
    rep = pi.bound_report(pi.fock_state(2, 4), 3, trials=20, seed=9)
    assert rep.asymptotic_value is None
    assert rep.fisher <= 1e-12
    assert abs(rep.mc_information) <= 1e-9
    assert rep.chain_upper_bound <= 1e-12
    assert rep.to_dict()["asymptotic_value"] is None


def test_bound_report_construction_invariants():
    ok = dict(
        modes=2,
        mc_information=0.5,
        mc_stderr=0.01,
        mc_trials=100,
        chain_upper_bound=0.6,
        asymptotic_value=0.4,
        fisher=1.0,
        single_info=0.3,
    )
    pi.BoundReport(**ok)
    bad = dict(ok, chain_upper_bound=0.7)  # not modes * single_info
    with pytest.raises(ConfigurationError):
        pi.BoundReport(**bad)
    bad = dict(ok, mc_information=0.7)  # exceeds chain bound beyond 3 sigma
    with pytest.raises(ConfigurationError):
        pi.BoundReport(**bad)
    bad = dict(ok, asymptotic_value=None)  # fisher is positive
    with pytest.raises(ConfigurationError):
        pi.BoundReport(**bad)
    bad = dict(ok, fisher=0.0)  # asymptote present without fisher
    with pytest.raises(ConfigurationError):
        pi.BoundReport(**bad)
    bad = dict(ok, mc_stderr=-0.01)
    with pytest.raises(ConfigurationError):
        pi.BoundReport(**bad)
    # Non-finite numbers: every comparison with NaN is false, and inf - inf is NaN.
    one = dict(modes=1, mc_information=0.2, mc_stderr=0.0, mc_trials=2, chain_upper_bound=0.3)
    one.update(asymptotic_value=1.0, fisher=1.0, single_info=0.3)
    pi.BoundReport(**one)
    for bad in (
        dict(one, mc_information=np.nan),
        dict(one, chain_upper_bound=np.inf, single_info=np.inf),
        dict(one, mc_stderr=np.inf),
        dict(one, asymptotic_value=np.nan),
        dict(one, asymptotic_value=np.inf),
    ):
        with pytest.raises(ConfigurationError):
            pi.BoundReport(**bad)


def test_information_passes_prior_entropy_for_sharp_posteriors(n1_state):
    # With M F well past 2 pi e the posterior's differential entropy goes
    # negative, so the expected information gain exceeds log(2 pi) and keeps
    # tracking the Gaussian asymptote.  Differential information has no
    # log(2 pi) ceiling; this pins the estimator to the asymptote out there.
    rep = pi.bound_report(n1_state, 64, trials=60, seed=2)
    assert rep.mc_information > LN2PI + 0.5
    assert abs(rep.mc_information - rep.asymptotic_value) <= 0.1
