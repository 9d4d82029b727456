import functools
import json
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import phaseinfo as pi
from phaseinfo import ConfigurationError, DegeneratePosteriorError, InvalidStateError
from phaseinfo import _pool
from phaseinfo.states import _likelihood_rows


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


def test_phase_amplitude_grid_matches_direct_evaluation():
    s = pi.random_state(12, 5)
    g = 256
    direct = pi.phase_amplitude(s, pi.grid_angles(g))
    fast = pi.phase_amplitude_grid(s, g)
    assert np.allclose(direct, fast, atol=1e-12)


@pytest.mark.parametrize("grid_size", [64, 4096])
@pytest.mark.parametrize("max_photon", [0, 1, 8, 32])
def test_likelihood_rows_match_dense_density(max_photon, grid_size):
    # The FFT kernel against the pointwise sum at random off-grid offsets, in
    # both orientations: the posterior's f(x - phi_k) from the amplitudes and
    # the sampler's f(phi_k - t) from their conjugates.
    s = pi.random_state(max_photon, 21)
    x = np.random.default_rng(3).uniform(0.0, 2 * np.pi, 20)
    nodes = pi.grid_angles(grid_size)
    for amps, delta in (
        (s.amplitudes, np.subtract.outer(x, nodes)),
        (np.conj(s.amplitudes), np.subtract.outer(nodes, x).T),
    ):
        rows = _likelihood_rows(amps, x, grid_size)
        dense = pi.likelihood_density(s, delta)
        assert rows.shape == (x.size, grid_size)
        live = dense > 1e-12
        assert np.all(np.abs(rows - dense)[live] <= 1e-12 * dense[live])


def test_likelihood_rows_near_density_zeros():
    # Sine states vanish on the circle; near a zero both evaluations carry
    # float64 cancellation error, so agreement is absolute, on the peak scale.
    x = np.random.default_rng(4).uniform(0.0, 2 * np.pi, 20)
    nodes = pi.grid_angles(4096)
    for n in (1, 8, 32):
        s = pi.sine_state(n)
        for amps, delta in (
            (s.amplitudes, np.subtract.outer(x, nodes)),
            (np.conj(s.amplitudes), np.subtract.outer(nodes, x).T),
        ):
            dense = pi.likelihood_density(s, delta)
            rows = _likelihood_rows(amps, x, 4096)
            assert np.max(np.abs(rows - dense)) <= 1e-13 * np.max(dense)


def test_likelihood_rows_write_into_out_with_the_same_bytes():
    # A full 16-row buffer and a partial 5-row view of it: the rows land in
    # the buffer, which is returned, with the bytes of a fresh evaluation.
    s = pi.random_state(32, 2)
    x = np.random.default_rng(5).uniform(0.0, 2 * np.pi, 16)
    for grid_size in (64, 4096):
        buf = np.empty((16, grid_size))
        for k in (16, 5):
            view = buf[:k]
            assert _likelihood_rows(s.amplitudes, x[:k], grid_size, out=view) is view
            assert view.tobytes() == _likelihood_rows(s.amplitudes, x[:k], grid_size).tobytes()


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


def test_phase_amplitude_grid_rejects_small_grid():
    s = pi.random_state(8, 0)
    with pytest.raises(InvalidStateError):
        pi.phase_amplitude_grid(s, 4)


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


# _pool._fan_out: the fan-out of optimizer starts and Monte Carlo trials.  Work
# crosses a pipe to the workers, so it must be module-level functions.


def _cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _worker_pids():
    return [pid for pid, _, _ in _pool._pool]


def _assert_queue_empty():
    # A non-blocking read finds no claim token left over in the queue.
    queue = _pool._queue[0]
    os.set_blocking(queue, False)
    try:
        with pytest.raises(BlockingIOError):
            os.read(queue, 4)
    finally:
        os.set_blocking(queue, True)


def _square(x):
    return x * x


def _fail_at(bad, x):
    if x in bad:
        raise DegeneratePosteriorError("item %d" % x)
    return x


def _unpicklable_result(x):
    return lambda: x


def _interrupt_or_sleep(parent, x):
    if x == 0:
        os.kill(parent, signal.SIGINT)
    else:
        time.sleep(60)


def _reversed(data):
    return data[::-1]


def _pid(x):
    return os.getpid()


def _pid_after_a_wait_at_item_0(x):
    if x == 0:
        # The worker that claims item 0 waits; another claims the rest meanwhile.
        time.sleep(0.3)
    return os.getpid()


def _pid_and_nested_pids(x):
    return _pid_after_a_wait_at_item_0(x), _pool._fan_out(_pid, range(4))


def test_fan_out_results_do_not_depend_on_the_cpu_count(monkeypatch):
    config = pi.OptimizerConfig(max_photon=6, starts=5, seed=3)
    state = pi.sine_state(4)

    def run():
        result = pi.optimize_state(config)
        mc = pi.monte_carlo_information(state, 8, 7, seed=11)
        return (
            result.state.amplitudes.tobytes(),
            result.per_start,
            result.per_start_converged,
            result.converged,
            result.iterations,
            mc,
        )

    default = run()
    for count in (1, 2, 3):
        _cpus(monkeypatch, count)
        assert run() == default
    pids = _worker_pids()
    assert len(pids) >= 2
    assert run() == default
    assert _worker_pids() == pids
    _assert_queue_empty()
    _pool._close_pool()
    _assert_no_child_left()


def test_fan_out_keeps_item_order(monkeypatch):
    _cpus(monkeypatch, 3)
    assert _pool._fan_out(_square, range(10)) == [x * x for x in range(10)]
    pids = _worker_pids()
    _assert_queue_empty()
    assert _pool._fan_out(_square, range(7)) == [x * x for x in range(7)]
    assert _pool._fan_out(_square, []) == []
    assert _worker_pids() == pids
    _pool._close_pool()
    _assert_no_child_left()


def test_fan_out_carries_messages_larger_than_a_pipe_buffer(monkeypatch):
    # Every share and every result is 320 KiB, past a pipe's buffer, so each
    # pickle crosses in several partial writes and reads.
    _cpus(monkeypatch, 3)
    size = 320 * 1024
    first = [np.random.default_rng([0, i]).bytes(size) for i in range(3)]
    assert _pool._fan_out(_reversed, first) == [x[::-1] for x in first]
    pids = _worker_pids()
    second = [np.random.default_rng([1, i]).bytes(size) for i in range(3)]
    assert _pool._fan_out(_reversed, second) == [x[::-1] for x in second]
    assert _worker_pids() == pids
    _pool._close_pool()
    _assert_no_child_left()


def test_fan_out_raises_the_lowest_failing_item(monkeypatch):
    # Two workers claim items 0-5 in any order; whichever runs a failing
    # item, the lowest one is raised and the pool stays in step and alive.
    _cpus(monkeypatch, 2)
    cases = (((1, 4), "item 1"), ((4, 5), "item 4"), ((2, 3), "item 2"), ((0, 5), "item 0"))
    for bad, first in cases:
        _pool._fan_out(_square, range(2))
        pids = _worker_pids()
        with pytest.raises(DegeneratePosteriorError, match=first):
            _pool._fan_out(functools.partial(_fail_at, bad), range(6))
        assert _worker_pids() == pids
        _assert_queue_empty()
        assert _pool._fan_out(_square, range(6)) == [x * x for x in range(6)]
        _pool._close_pool()
        _assert_no_child_left()


def test_fan_out_reports_a_worker_without_a_result(monkeypatch):
    # A result that cannot be pickled never reaches this process.
    _cpus(monkeypatch, 2)
    with pytest.raises(ChildProcessError, match="without a result"):
        _pool._fan_out(_unpicklable_result, range(2))
    _assert_no_child_left()


def test_fan_out_kills_children_when_this_process_raises(monkeypatch):
    # A worker's item 0 interrupts this process while the other items sleep.
    _cpus(monkeypatch, 2)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        _pool._fan_out(functools.partial(_interrupt_or_sleep, os.getpid()), range(2))
    assert time.monotonic() - start < 30
    assert _pool._pool == []
    _assert_no_child_left()


def test_fan_out_inside_a_child_runs_serially(monkeypatch):
    # Every item runs in a worker, so every nested call runs there serially.
    # Which worker runs which item depends on the schedule.
    _cpus(monkeypatch, 2)
    assert _pool._fan_out(_square, range(2)) == [0, 1]
    pids = _worker_pids()
    for _ in range(2):
        for pid, inner in _pool._fan_out(_pid_and_nested_pids, range(4)):
            assert pid in pids and inner == [pid] * 4
    assert _worker_pids() == pids
    _pool._close_pool()
    _assert_no_child_left()


def test_fan_out_moves_work_to_the_idle_process(monkeypatch):
    # While one worker sleeps in item 0, the other claims every other run.
    # This process only coordinates: its pid appears nowhere.
    _cpus(monkeypatch, 2)
    pids = _pool._fan_out(_pid, range(8))
    assert os.getpid() not in pids
    assert set(pids) <= set(_worker_pids())
    runs = _pool._fan_out(_pid_after_a_wait_at_item_0, range(8))
    (other,) = set(_worker_pids()) - {runs[0]}
    assert runs == [runs[0]] + [other] * 7
    _assert_queue_empty()
    _pool._close_pool()
    _assert_no_child_left()


def test_fan_out_cuts_many_items_into_capped_runs(monkeypatch):
    # Past 512 items, several items share a run of the 512 tokens.  With
    # more processes than cores too, a token lost or misread would show as
    # a wrong result or a token left over.
    for count in (2, 6):
        _cpus(monkeypatch, count)
        for size in (513, 514, 5000):
            assert _pool._fan_out(_square, range(size)) == [x * x for x in range(size)]
            _assert_queue_empty()
    _pool._close_pool()
    _assert_no_child_left()


def test_fan_out_refuses_an_unpicklable_fn(monkeypatch):
    _cpus(monkeypatch, 2)
    for existing_pool in (False, True):
        if existing_pool:
            _pool._fan_out(_square, range(2))
        with pytest.raises((pickle.PicklingError, AttributeError), match="pickle"):
            _pool._fan_out(lambda x: x, range(2))
        assert _pool._pool == []
        _assert_no_child_left()


def test_fan_out_raises_a_job_a_worker_cannot_load(monkeypatch):
    # A function bound after the workers were forked is missing in them: the
    # job fails to load there, and the pool stays in step and alive.
    _cpus(monkeypatch, 2)
    assert _pool._fan_out(_square, range(4)) == [0, 1, 4, 9]
    pids = _worker_pids()

    def late(x):
        return x

    late.__qualname__ = "_late"
    monkeypatch.setattr(sys.modules[__name__], "_late", late, raising=False)
    with pytest.raises(AttributeError, match="_late"):
        _pool._fan_out(late, range(4))
    assert _worker_pids() == pids
    _assert_queue_empty()
    assert _pool._fan_out(_square, range(4)) == [0, 1, 4, 9]
    _pool._close_pool()
    _assert_no_child_left()


def test_fan_out_replaces_a_killed_idle_worker(monkeypatch):
    _cpus(monkeypatch, 2)
    assert _pool._fan_out(_square, range(4)) == [0, 1, 4, 9]
    killed = _worker_pids()[0]
    os.kill(killed, signal.SIGKILL)
    # Wait until it is dead, and leave it for the pool to reap.
    os.waitid(os.P_PID, killed, os.WEXITED | os.WNOWAIT)
    assert _pool._fan_out(_square, range(4)) == [0, 1, 4, 9]
    assert _worker_pids() and killed not in _worker_pids()
    _pool._close_pool()
    _assert_no_child_left()


def test_a_process_forked_from_the_owner_drops_the_pool(monkeypatch):
    _cpus(monkeypatch, 2)
    assert _pool._fan_out(_square, range(4)) == [0, 1, 4, 9]
    pids = _worker_pids()
    child = os.fork()
    if child == 0:
        ok = False
        try:
            dropped = _pool._pool == []
            ok = dropped and _pool._fan_out(_square, range(4)) == [0, 1, 4, 9]
            _pool._close_pool()
        finally:
            os._exit(0 if ok else 1)
    assert os.waitstatus_to_exitcode(os.waitpid(child, 0)[1]) == 0
    assert _pool._fan_out(_square, range(4)) == [0, 1, 4, 9]
    assert _worker_pids() == pids
    _pool._close_pool()
    _assert_no_child_left()


def _running(pid):
    """True while ``pid`` is a live process; a zombie does not count."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open("/proc/%d/stat" % pid) as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


@pytest.mark.parametrize("exit_call", ["sys.exit(0)", "os._exit(0)"])
def test_fan_out_workers_exit_with_the_interpreter(exit_call, tmp_path):
    # The pids go to a file: a worker holding a captured stdout would make
    # subprocess.run wait for the worker too.
    pid_file = tmp_path / "pids"
    code = (
        "import os, sys; os.sched_getaffinity = lambda pid: {0, 1, 2}; "
        "from phaseinfo import _pool; "
        "assert _pool._fan_out(abs, range(-3, 3)) == [3, 2, 1, 0, 1, 2]; "
        "open(sys.argv[1], 'w').write(' '.join(str(w[0]) for w in _pool._pool)); "
        + exit_call
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(pi.__file__).parents[1]), env.get("PYTHONPATH")) if p
    )
    subprocess.run(
        [sys.executable, "-c", code, str(pid_file)],
        stdout=subprocess.DEVNULL,
        env=env,
        check=True,
    )
    pids = [int(pid) for pid in pid_file.read_text().split()]
    assert len(pids) == 3
    if exit_call == "sys.exit(0)":
        # The atexit hook has killed and reaped them before the interpreter ended.
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
    else:
        # No atexit hook: they leave on end of file on their task pipes.
        deadline = time.monotonic() + 10
        while any(_running(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not any(_running(pid) for pid in pids)
