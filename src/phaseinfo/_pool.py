"""Run ``[fn(x) for x in items]`` on every CPU this process may use.

The Monte Carlo trials of the information bracket reach the CPUs through
:func:`_fan_out`, a pool of forked workers kept between calls.  The pool
knows nothing of states or of the package's other modules: it moves pickled
functions, items and results between processes, imports only the standard
library, and returns what the plain loop would.
"""

import atexit
import contextlib
import os
import pickle
import select
import signal
import threading

# Forked workers, each (pid, task pipe, result pipe), kept between calls.
_pool = []
# The claim queue, [read end, write end] of one pipe.  It is made before the
# first worker is forked and closed with the pool, so every worker reads it.
_queue = []
# Held by the call that is using the pool.  A concurrent call finds it taken
# and runs the plain loop, and so does every worker: workers are forked by a
# call that holds it, and a fork copies it held.
_pool_lock = threading.Lock()

# A call cuts its items into at most _RUNS contiguous runs, one 4-byte token
# each, and adds one _END token per worker.  At most _RUNS workers take part,
# so the tokens fill at most 4096 bytes, Linux's PIPE_BUF: one write puts
# them in the empty pipe at once, without blocking, and each 4-byte read of
# a pipe takes one token from it.
_RUNS = 512
_END = b"\xff" * 4


def _fan_out(fn, items):
    """``[fn(x) for x in items]``, run on every CPU this process may use.

    W = min(allowed CPUs, len(items), 512) workers take part, each sent the
    same pickled ``(fn, items)``; this process only coordinates and runs no
    item.  The items are cut into at most 512 contiguous runs, one token
    each in a shared queue, and every worker claims runs one token at a
    time until it reads its end token, so a faster CPU runs more of them.
    Workers are forked at the first call that needs them and then reused.
    Each job and each reply crosses a pipe as one pickle, which marks its
    own end, so ``fn`` must pickle (a module-level function, or a
    ``functools.partial`` of one) and so must its results.  A worker runs
    the modules as they were when it was forked; monkeypatches made after
    that do not reach it.  Every result returns to its item's place, so the
    output is the plain loop's for any CPU count and any schedule as long
    as ``fn`` depends on its item alone.  Where ``os.fork`` or
    ``os.sched_getaffinity`` is missing, with one CPU or one item, inside a
    worker and while another thread's call is fanning out, the plain loop
    runs here.

    An ``Exception`` from an item stops the worker that ran it from running
    more, but not from claiming the runs left to it.  Once every reply is
    in, the failure at the lowest index is re-raised with its type and
    message, and the pool stays in step and alive.  So it does after a job
    that a worker cannot load; that error is raised before any item's.  A
    call that ends on any other exception raised here (an unpicklable
    ``fn`` among them), on an interrupt or on a worker without a result, or
    that finds a worker dead when it starts, kills and reaps every worker
    and closes the queue; the next call makes new ones.  Workers exit with
    this interpreter (atexit), or at end of file on their task pipe if it
    dies.
    """
    items = list(items)
    workers = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        workers = min(len(os.sched_getaffinity(0)), len(items), _RUNS)
    if workers < 2 or not _pool_lock.acquire(blocking=False):
        return [fn(x) for x in items]
    try:
        job = pickle.dumps(pickle.dumps((fn, items)))
        if any(_exited(pid) for pid, _, _ in _pool):
            _close_pool()
        if not _queue:
            _queue.extend(os.pipe())
        while len(_pool) < workers:
            _pool.append(_fork_worker())
        pool = _pool[:workers]
        runs = range(min(len(items), _RUNS))
        os.write(_queue[1], b"".join(i.to_bytes(4, "little") for i in runs) + _END * workers)
        for _, tasks, _ in pool:
            tasks.write(job)
            tasks.flush()
        replies = []
        for worker in pool:
            # Bounded waits: a SIGINT caught just before a blocking read would
            # be acted on only once the reply came.
            while not select.select([worker[2]], [], [], 0.1)[0]:
                pass
            try:
                replies.append(pickle.load(worker[2]))
            except (EOFError, pickle.UnpicklingError):
                _pool.remove(worker)
                raise ChildProcessError(
                    "worker process %d ended without a result (wait status %d)"
                    % (worker[0], _reap(worker))
                ) from None
    except BaseException:
        _close_pool()
        raise
    finally:
        _pool_lock.release()
    failures = [failure for _, failure in replies if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    results = [None] * len(items)
    for pairs, _ in replies:
        for i, value in pairs:
            results[i] = value
    return results


def _claims(queue):
    """Run numbers this process claims from the queue, up to its end token."""
    while (token := os.read(queue, 4)) != _END:
        if len(token) != 4:
            raise EOFError("the claim queue was closed")
        yield int.from_bytes(token, "little")


def _exited(pid):
    """True if worker ``pid`` has ended; it is left for :func:`_reap` to wait for."""
    try:
        return os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT) is not None
    except ChildProcessError:
        return True


def _fork_worker():
    """Fork one worker; returns its pid and this side's task and result pipes.

    The worker ignores SIGINT, so that a Ctrl-C ends it only through its
    parent, and loads jobs until end of file on its task pipe.  A job is
    the pickled ``(fn, items)`` pickled once more, so that one the worker
    cannot load still leaves the pipe in step.  For each job it claims runs
    from the queue until its end token, runs each claimed run's items, and
    answers with ``(index, result)`` pairs and the first failure, as
    ``(index, exception)``, or None.  After its first ``Exception`` it
    still claims runs but runs none, and so it does for a job it cannot
    load, whose failure it answers at index -1.  It exits when the answer
    cannot be pickled, on any error that is not an ``Exception``, or when
    the parent has gone.
    """
    task_read, task_write = os.pipe()
    reply_read, reply_write = os.pipe()
    # The child's copy of _queue is closed by _forget_pool; it reads this one.
    queue = os.dup(_queue[0])
    try:
        pid = os.fork()
    except OSError:
        for fd in (task_read, task_write, reply_read, reply_write, queue):
            os.close(fd)
        raise
    if pid == 0:
        try:
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            os.close(task_write)
            os.close(reply_read)
            with os.fdopen(task_read, "rb") as tasks, os.fdopen(reply_write, "wb") as replies:
                while True:
                    # End of file raises EOFError here, which ends the worker.
                    job = pickle.load(tasks)
                    pairs, failure = [], None
                    try:
                        fn, items = pickle.loads(job)
                    except Exception as exc:
                        failure = (-1, exc)
                    for run in _claims(queue):
                        if failure is not None:
                            continue
                        runs = min(len(items), _RUNS)
                        for i in range(len(items) * run // runs, len(items) * (run + 1) // runs):
                            try:
                                pairs.append((i, fn(items[i])))
                            except Exception as exc:
                                failure = (i, exc)
                                break
                    replies.write(pickle.dumps((pairs, failure)))
                    replies.flush()
        finally:
            # Never return into the caller's frames.
            os._exit(0)
    os.close(task_read)
    os.close(reply_write)
    os.close(queue)
    return pid, os.fdopen(task_write, "wb"), os.fdopen(reply_read, "rb")


def _close_pipes(*pipes):
    for pipe in pipes:
        with contextlib.suppress(OSError):
            pipe.close()


def _reap(worker):
    """Kill a worker, close its pipes and wait for it; returns its wait status."""
    pid, tasks, replies = worker
    with contextlib.suppress(ProcessLookupError):
        os.kill(pid, signal.SIGKILL)
    _close_pipes(tasks, replies)
    try:
        return os.waitpid(pid, 0)[1]
    except ChildProcessError:
        return -1


def _close_queue():
    while _queue:
        with contextlib.suppress(OSError):
            os.close(_queue.pop())


def _close_pool():
    """Kill and reap every worker and close the queue; the next call makes new ones."""
    while _pool:
        _reap(_pool.pop())
    _close_queue()


def _forget_pool():
    """In a child forked from the pool's owner, close its copies of the pipes and queue."""
    for _, tasks, replies in _pool:
        _close_pipes(tasks, replies)
    _pool.clear()
    _close_queue()


atexit.register(_close_pool)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)
