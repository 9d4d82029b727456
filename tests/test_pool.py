"""phaseinfo._pool: the fork pool of the Monte Carlo trials.

The pool is a leaf of the package, reached through its module only.
perfbench's tracer wraps every function that one phaseinfo module binds by
name from another and charges its calls to the layer of the module that
defines it.  It has no layer for ``_pool``, so a traced run fails on such a
binding; ``bounds`` calls ``_pool._fan_out`` instead.
"""

import ast
import functools
import importlib
import os
import pickle
import pkgutil
import signal
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import numpy as np
import pytest

import phaseinfo
import phaseinfo as pi
from phaseinfo import DegeneratePosteriorError, _pool


def test_the_pool_is_a_stdlib_leaf_that_no_module_binds_by_name():
    modules = [phaseinfo] + [
        importlib.import_module("phaseinfo." + info.name)
        for info in pkgutil.iter_modules(phaseinfo.__path__)
    ]
    bound = [
        "%s.%s" % (module.__name__, name)
        for module in modules
        if module is not _pool
        for name, value in vars(module).items()
        if isinstance(value, types.FunctionType) and value.__module__ == _pool.__name__
    ]
    assert bound == []

    imported = []
    for node in ast.walk(ast.parse(Path(_pool.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported
    assert [name for name in imported if name.split(".")[0] not in sys.stdlib_module_names] == []


# _pool._fan_out: the fan-out of Monte Carlo trials.  Work crosses a pipe to
# the workers, so it must be module-level functions.


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


def _reversed(data):
    return data[::-1]


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


def test_the_optimizer_forks_no_worker(monkeypatch):
    # Its starts run in a plain loop, on any CPU count.
    _pool._close_pool()
    _cpus(monkeypatch, 2)
    pi.optimize_state(pi.OptimizerConfig(max_photon=6, starts=3))
    pi.bound_sweep(pi.OptimizerConfig(max_photon=4))
    assert _pool._pool == []
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


def _interrupt_or_sleep(parent, x):
    if x == 0:
        os.kill(parent, signal.SIGINT)
    else:
        time.sleep(60)


def _pid(x):
    return os.getpid()


def _pid_after_a_wait_at_item_0(x):
    if x == 0:
        # The worker that claims item 0 waits; another claims the rest meanwhile.
        time.sleep(0.3)
    return os.getpid()


def _pid_and_nested_pids(x):
    return _pid_after_a_wait_at_item_0(x), _pool._fan_out(_pid, range(4))


def test_fan_out_kills_children_when_this_process_raises(monkeypatch):
    # A worker's item 0 interrupts this process while the other items sleep.
    _cpus(monkeypatch, 2)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        _pool._fan_out(functools.partial(_interrupt_or_sleep, os.getpid()), range(2))
    assert time.monotonic() - start < 30
    assert _pool._pool == []
    _assert_no_child_left()


@pytest.mark.skipif(not hasattr(signal, "pthread_sigmask"), reason="needs pthread_sigmask")
def test_fan_out_acts_on_an_interrupt_while_waiting_for_a_reply(monkeypatch):
    # With SIGINT blocked here, the timer's thread takes it and this thread's
    # read is never broken off: the wait for a reply must look at the flag.
    # The timer starts first, so its thread does not inherit the mask.
    _cpus(monkeypatch, 2)
    timer = threading.Timer(0.5, os.kill, (os.getpid(), signal.SIGINT))
    timer.start()
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            _pool._fan_out(time.sleep, [20, 20])
        assert time.monotonic() - start < 5
    finally:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
        timer.join()
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
