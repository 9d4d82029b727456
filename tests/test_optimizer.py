import os
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

import phaseinfo as pi
from phaseinfo import ConfigurationError
from phaseinfo.circular import _information
from phaseinfo.optimizer import _ascend, _snap

# Best information at cutoff 2, frozen from an independent search: a dense
# scan of the two spherical angles of real nonnegative amplitude triples
# (300 x 300 nodes) followed by simplex refinement of the best node, all on
# top of the direct (non-FFT) density evaluation.  The maximizer is the
# sine-profile state at cutoff 2.
N2_ORACLE = 0.6137056389500783

# Best information at cutoffs 4 and 8, frozen from an independent simplex
# optimization over real amplitude vectors (information evaluated through
# the direct density route); stable to the displayed digits across restarts.
N4_ORACLE = 1.0602574596
N8_ORACLE = 1.6152923025


def test_config_validation():
    with pytest.raises(ConfigurationError):
        pi.OptimizerConfig(max_photon=-1)
    with pytest.raises(ConfigurationError):
        pi.OptimizerConfig(max_photon=2, grid_size=100)
    with pytest.raises(ConfigurationError):
        pi.OptimizerConfig(max_photon=64, grid_size=64)
    with pytest.raises(ConfigurationError):
        pi.OptimizerConfig(max_photon=2, starts=0)
    with pytest.raises(ConfigurationError):
        pi.OptimizerConfig(max_photon=2, convergence_tol=0.0)
    with pytest.raises(ConfigurationError):
        pi.OptimizerConfig(max_photon=2, max_iters=0)
    for bad in (np.inf, np.nan):
        with pytest.raises(ConfigurationError, match="finite"):
            pi.OptimizerConfig(max_photon=2, convergence_tol=bad)


def test_config_refuses_non_integer_counts():
    # 2.5 used to escape as a TypeError from the seed generator or the
    # iteration loop, and True passed as the count 1
    for field in ("starts", "max_iters", "max_photon"):
        for bad in (2.5, True):
            with pytest.raises(ConfigurationError, match=field):
                pi.OptimizerConfig(**{"max_photon": 2, field: bad})
    assert pi.OptimizerConfig(max_photon=np.int64(2), starts=np.int32(3)).starts == 3


def test_config_refuses_bad_seeds():
    # -1 was accepted here and failed only inside optimize_state
    for bad in (-1, 2.5, True):
        with pytest.raises(ConfigurationError, match="seed"):
            pi.OptimizerConfig(max_photon=2, seed=bad)
    assert pi.OptimizerConfig(max_photon=2, seed=np.uint32(5)).seed == 5


def _old_gradient(c, g):
    # The gradient as evaluated by complex FFTs of the amplitude on the grid.
    f = np.fft.ifft(c, n=g) * g
    p = np.abs(f) ** 2 / (2 * np.pi)
    w = np.where(p > 1e-300, 1.0 + np.log(np.where(p > 1e-300, p, 1.0)), 0.0)
    return np.fft.fft(w * f)[: c.size] / g


def test_gradient_matches_complex_fft_formula():
    # N = 127 / 128 switch the polyphase subgrid from L = 256 to L = 512;
    # N = 200 at G = 256 and 512 takes the mirror of lags past G/2 (L = G).
    for n_max in (1, 8, 32, 63, 127, 128, 200):
        for g in (64, 256, 512, 4096):
            if n_max >= g:
                continue
            state = pi.random_state(n_max, 300 + n_max)
            ref = _old_gradient(state.amplitudes, g)
            grad = pi.objective_gradient(state, g)
            assert np.linalg.norm(grad - ref) <= 1e-13 * np.linalg.norm(ref)


def test_gradient_matches_finite_differences():
    h = 1e-6
    for n_max in (1, 4):
        state = pi.random_state(n_max, 50 + n_max)
        c = state.amplitudes
        grad_t = pi.tangent_project(c, pi.objective_gradient(state))

        def value(vec):
            return pi.mutual_information_single(pi.normalize(vec))

        fd = np.empty(c.size, dtype=complex)
        for k in range(c.size):
            e = np.zeros(c.size)
            e[k] = h
            fd_re = (value(c + e) - value(c - e)) / (2 * h)
            fd_im = (value(c + 1j * e) - value(c - 1j * e)) / (2 * h)
            fd[k] = fd_re + 1j * fd_im
        target = 2.0 * grad_t
        assert np.linalg.norm(fd - target) / np.linalg.norm(target) <= 1e-5


def test_stationary_points_have_no_tangential_gradient():
    # number states and the cutoff-1 optimum are critical points
    f = pi.fock_state(0, 3)
    gt = pi.tangent_project(f.amplitudes, pi.objective_gradient(f))
    assert np.linalg.norm(gt) <= 1e-10
    opt = pi.normalize([1.0, 1.0])
    gt = pi.tangent_project(opt.amplitudes, pi.objective_gradient(opt))
    assert np.linalg.norm(gt) <= 1e-6


def test_gauge_fix_normal_form():
    s = pi.sine_state(8)
    moved = pi.gauge_transform(s, 0.7, -1.3)
    fixed = pi.gauge_fix(moved)
    assert np.allclose(fixed.amplitudes, s.amplitudes, atol=1e-12)
    twice = pi.gauge_fix(fixed)
    assert np.allclose(twice.amplitudes, fixed.amplitudes, atol=1e-12)
    # leading amplitude real and nonnegative, density mean direction zero
    r = pi.random_state(6, 31)
    fixed = pi.gauge_fix(r)
    assert abs(fixed.amplitudes[0].imag) <= 1e-15
    assert fixed.amplitudes[0].real >= 0.0
    c = fixed.amplitudes
    z1 = np.sum(c[:-1] * np.conj(c[1:]))
    assert abs(z1.imag) <= 1e-9
    assert z1.real >= -1e-12
    # number states are already in normal form
    f = pi.fock_state(2, 4)
    assert np.array_equal(pi.gauge_fix(f).amplitudes, f.amplitudes)
    # an amplitude at or below 1e-12 is not the lead: c1 is made real
    c = pi.random_state(4, 8).amplitudes.copy()
    c[0] = 1e-13 * np.exp(0.4j)
    fixed = pi.gauge_fix(pi.normalize(c)).amplitudes
    assert fixed[1].imag == 0.0 and fixed[1].real > 0.0
    assert 0.0 < abs(fixed[0]) <= 1e-12


def test_ascent_is_monotone():
    # Each capped prefix of a run stops unconverged at its cap, and the
    # values along the prefixes rise strictly from the start's value.
    for n_max, seed in ((1, 3), (4, 99), (8, 5), (16, 12345)):
        config = pi.OptimizerConfig(max_photon=n_max)
        c0 = pi.random_state(n_max, seed).amplitudes
        _, value, iters, converged = _ascend(c0, config)
        assert converged
        last = _information(c0 / np.linalg.norm(c0), config.grid_size)[0]
        for k in range(1, iters):
            _, prefix, k_iters, k_converged = _ascend(c0, replace(config, max_iters=k))
            assert (k_iters, k_converged) == (k, False)
            assert prefix > last
            last = prefix
        assert value >= last


def test_stop_certifies_the_tangent_gradient():
    # A converged start is stationary to the tolerance: the stop is on the
    # tangent gradient, not on a stalled gain.
    for n_max, seed in ((8, 0), (16, 12345), (32, 7)):
        config = pi.OptimizerConfig(max_photon=n_max)
        c, _, _, converged = _ascend(pi.random_state(n_max, seed).amplitudes, config)
        assert converged
        state = pi.normalize(c)
        grad = pi.tangent_project(state.amplitudes, pi.objective_gradient(state))
        assert np.linalg.norm(grad) <= config.convergence_tol


def test_whole_node_shifts_leave_the_gridded_objective_unchanged():
    # The premise of the snap: c_n -> exp(2 pi i n k / G) c_n shifts the
    # density by k whole nodes, an exact symmetry of the gridded objective.
    g = 4096
    for state in [pi.random_state(24, k) for k in range(4)] + [pi.sine_state(24)]:
        c = state.amplitudes
        value = _information(c, g)[0]
        for k in (1, 7, -3):
            shifted = c * np.exp(2j * np.pi * k * np.arange(c.size) / g)
            assert abs(_information(shifted, g)[0] - value) <= 1e-14


def _first_moment_angle(c):
    return float(np.angle(np.vdot(c[1:], c[:-1])))


def test_snap_only_raises_the_value_and_places_the_mean_on_a_quarter_node():
    g = 4096
    quarter = 2 * np.pi / g / 4
    starts = [pi.random_state(24, k).amplitudes for k in range(4)]
    starts += [pi.sine_state(24).amplitudes, pi.random_state(8, 1).amplitudes]
    # Near-optimal states, where the snap runs inside the search.
    starts += [_ascend(pi.random_state(n, 5).amplitudes, pi.OptimizerConfig(max_photon=n))[0]
               for n in (8, 16, 32)]
    kept = 0
    for c in starts:
        value = _information(c, g)[0]
        snap = _snap(c, value, g)
        if snap is None:
            continue
        kept += 1
        phase, placed, placed_value, weights = snap
        assert placed_value > value
        assert np.array_equal(placed, c * phase)
        again = _information(placed, g)
        assert again[0] == placed_value
        assert again[1].tobytes() == weights.tobytes()
        turns = _first_moment_angle(placed) / quarter
        assert abs(turns - round(turns)) <= 1e-6
        # No placement beats the one kept.
        assert _snap(placed, placed_value, g) is None
    assert kept >= 3


def test_starts_agree_at_cutoff_64():
    # Every start reaches the same optimum within 100 iterations.
    config = pi.OptimizerConfig(max_photon=64, starts=4, seed=12345, max_iters=100)
    result = pi.optimize_state(config)
    assert all(result.per_start_converged)
    assert max(result.per_start) - min(result.per_start) <= 1e-10


def test_tolerance_below_rounding_stops_converged():
    # No step can certify a gradient of 1e-14; the run still ends as soon as
    # the gains vanish in rounding, long before the iteration cap.
    config = pi.OptimizerConfig(max_photon=8, convergence_tol=1e-14, max_iters=200)
    _, _, iters, converged = _ascend(pi.random_state(8, 0).amplitudes, config)
    assert converged and iters < 200


def test_one_projection_per_iteration(monkeypatch):
    # The benchmark trace counts optimizer iterations at tangent_project.
    import phaseinfo.optimizer as opt

    calls = []
    iters = []
    project = opt.tangent_project
    ascend = opt._ascend

    def counting_project(c, grad):
        calls.append(1)
        return project(c, grad)

    def recording_ascend(c0, config):
        run = ascend(c0, config)
        iters.append(run[2])
        return run

    monkeypatch.setattr(opt, "tangent_project", counting_project)
    monkeypatch.setattr(opt, "_ascend", recording_ascend)
    # The hooks see only this process, so no start may run in a worker.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    for config in (
        pi.OptimizerConfig(max_photon=5, starts=4),
        pi.OptimizerConfig(max_photon=5, starts=2, max_iters=3),
    ):
        calls.clear()
        iters.clear()
        pi.optimize_state(config)
        assert len(iters) == config.starts
        assert len(calls) == sum(iters) > 0


def test_no_full_grid_transform_in_the_search(monkeypatch):
    # At G = 4096 the density probes and the gradient run batched
    # transforms of length 256, never one transform of length 4096.
    lengths = []
    irfft, rfft = np.fft.irfft, np.fft.rfft

    def recording_irfft(a, n=None, axis=-1, **kwargs):
        lengths.append(n if n is not None else 2 * (np.shape(a)[axis] - 1))
        return irfft(a, n=n, axis=axis, **kwargs)

    def recording_rfft(a, n=None, axis=-1, **kwargs):
        lengths.append(n if n is not None else np.shape(a)[axis])
        return rfft(a, n=n, axis=axis, **kwargs)

    monkeypatch.setattr(np.fft, "irfft", recording_irfft)
    monkeypatch.setattr(np.fft, "rfft", recording_rfft)
    # The hooks see only this process, so no start may run in a worker.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    pi.optimize_state(pi.OptimizerConfig(max_photon=8, starts=2))
    assert lengths and set(lengths) == {256}


def test_optimize_trivial_cutoff():
    result = pi.optimize_state(pi.OptimizerConfig(max_photon=0, starts=2))
    assert result.converged
    assert result.information == 0.0
    assert np.allclose(np.abs(result.state.amplitudes), [1.0], atol=1e-12)


def test_optimize_cutoff_one_hits_known_optimum():
    result = pi.optimize_state(pi.OptimizerConfig(max_photon=1))
    assert result.converged
    assert abs(result.information - (1.0 - np.log(2.0))) <= 1e-6
    assert np.max(np.abs(np.abs(result.state.amplitudes) - 1 / np.sqrt(2))) <= 1e-4


def test_optimize_cutoff_two_matches_oracle():
    result = pi.optimize_state(pi.OptimizerConfig(max_photon=2))
    assert result.converged
    assert abs(result.information - N2_ORACLE) <= 1e-4


def test_optimize_larger_cutoffs_match_oracles():
    for n_max, oracle in ((4, N4_ORACLE), (8, N8_ORACLE)):
        result = pi.optimize_state(pi.OptimizerConfig(max_photon=n_max))
        assert result.converged
        assert abs(result.information - oracle) <= 1e-6


def test_optimize_deterministic():
    config = pi.OptimizerConfig(max_photon=3, seed=17)
    a = pi.optimize_state(config)
    b = pi.optimize_state(config)
    assert a.information == b.information
    assert a.per_start == b.per_start
    assert np.array_equal(a.state.amplitudes, b.state.amplitudes)


def test_result_reports_best_start():
    result = pi.optimize_state(pi.OptimizerConfig(max_photon=2, starts=5))
    assert result.information == max(result.per_start)
    assert len(result.per_start) == 5
    assert len(result.per_start_converged) == 5
    assert pi.mutual_information_single(result.state) == result.information
    # The state is the winning start as its search left it, so it gives back
    # the reported value bit for bit; at cutoff 24 a gauge fix after the
    # ripple snap loses 2.1e-8 of it.
    result = pi.optimize_state(pi.OptimizerConfig(max_photon=24, starts=4, seed=7))
    assert pi.mutual_information_single(result.state) == result.information


def test_multistart_spread_is_flagged_not_fatal():
    result = pi.optimize_state(pi.OptimizerConfig(max_photon=4))
    converged_values = [
        v for v, ok in zip(result.per_start, result.per_start_converged) if ok
    ]
    spread = max(converged_values) - min(converged_values)
    if spread > 1e-6:
        warnings.warn(
            "converged starts spread %.3g at cutoff 4; objective may be "
            "multimodal here" % spread
        )


def test_unconverged_run_still_returns_best():
    result = pi.optimize_state(
        pi.OptimizerConfig(max_photon=4, max_iters=1, starts=2)
    )
    assert not result.converged
    assert np.isfinite(result.information)
    assert result.state.dim == 5


def test_bound_sweep_small():
    points = pi.bound_sweep(pi.OptimizerConfig(max_photon=3))
    assert [p.state.max_photon for p in points] == [0, 1, 2, 3]
    infos = [p.information for p in points]
    assert all(b >= a - 1e-8 for a, b in zip(infos, infos[1:]))
    assert all(p.converged for p in points)
    # never below the sine-profile baseline on the same grid
    for p in points:
        baseline = pi.mutual_information_single(pi.sine_state(p.state.max_photon))
        assert p.information >= baseline - 1e-9


def test_bound_sweep_equals_per_cutoff_searches():
    # One fan-out over every cutoff's starts gives what one search per cutoff
    # gives, field by field.
    config = pi.OptimizerConfig(max_photon=6, starts=3, seed=4)
    points = pi.bound_sweep(config)
    assert len(points) == 7
    for n, point in enumerate(points):
        alone = pi.optimize_state(replace(config, max_photon=n))
        assert np.array_equal(point.state.amplitudes, alone.state.amplitudes)
        assert point.information == alone.information
        assert pi.mutual_information_single(point.state) == point.information
        assert point.per_start == alone.per_start
        assert point.per_start_converged == alone.per_start_converged
        assert point.converged == alone.converged
        assert point.iterations == alone.iterations


def test_bound_sweep_refuses_bad_input_before_any_search():
    start = time.monotonic()
    with pytest.raises(ConfigurationError, match="cannot hold 65 amplitudes"):
        pi.bound_sweep(pi.OptimizerConfig(max_photon=64, grid_size=64))
    assert time.monotonic() - start < 1.0
    with pytest.raises(ConfigurationError, match="expected an OptimizerConfig"):
        pi.bound_sweep({"max_photon": 2})
