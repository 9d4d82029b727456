"""phaseinfo._pool: the fork pool of optimizer starts and Monte Carlo trials.

The pool is a leaf of the package, reached through its module only.
perfbench's tracer wraps every function that one phaseinfo module binds by
name from another and charges its calls to the layer of the module that
defines it.  It has no layer for ``_pool``, so a traced run fails on such a
binding; ``optimizer`` and ``bounds`` call ``_pool._fan_out`` instead.
"""

import ast
import functools
import importlib
import os
import pkgutil
import sys
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
