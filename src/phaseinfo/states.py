"""Pure states of a single bosonic mode truncated at a fixed photon number.

A state with photon cutoff ``N`` is stored as the complex amplitude vector
``(c_0, ..., c_N)`` in the number basis, normalized to unit Euclidean norm.
Everything downstream (likelihoods, posteriors, information functionals)
consumes these vectors, so validation lives here: finite entries, at least
one component, norm within ``NORM_TOL`` of one.
"""

import atexit
import contextlib
import numbers
import os
import pickle
import signal
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InvalidStateError

__all__ = [
    "TWO_PI",
    "NORM_TOL",
    "StateVector",
    "normalize",
    "fock_state",
    "sine_state",
    "random_state",
    "gauge_transform",
    "phase_amplitude",
    "phase_amplitude_grid",
    "state_to_dict",
    "state_from_dict",
    "load_state",
    "save_state",
]

TWO_PI = 2.0 * np.pi

# Acceptable deviation of |c| from 1 before a vector is rejected.
NORM_TOL = 1e-12


def _require_integer(value, name, minimum):
    """``value`` as int if it is a non-bool integer >= ``minimum``; floats are refused."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < minimum:
        raise ConfigurationError("%s must be an integer >= %d, got %r" % (name, minimum, value))
    return int(value)


def _require_count(value, name):
    """``value`` as int if it is a non-bool integer >= 0, else InvalidStateError."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise InvalidStateError("%s must be an integer, got %r" % (name, value))
    if value < 0:
        raise InvalidStateError("%s must be nonnegative" % name)
    return int(value)


# Forked workers, each (pid, task pipe, result pipe), kept between calls.
_pool = []
# Held by the call that is using the pool.  A nested or concurrent call
# finds it taken and runs the plain loop, and so does every worker: workers
# are forked by a call that holds it, and a fork copies it held.
_pool_lock = threading.Lock()


def _fan_out(fn, items):
    """``[fn(x) for x in items]``, run on every CPU this process may use.

    ``items`` is cut into W = min(allowed CPUs, len(items)) contiguous
    shares.  This process runs the first and W - 1 workers the others.
    Workers are forked at the first call that needs them and then reused.
    Each job and each reply crosses a pipe as one pickle, which marks its
    own end, so ``fn`` must pickle (a module-level function, or a
    ``functools.partial`` of one) and so must its results.  A worker runs
    the modules as they were when it was forked; monkeypatches made after
    that do not reach it.  Results come back in item order, so the output
    is the plain loop's for any CPU count as long as ``fn`` depends on its
    item alone.  Where ``os.fork`` or ``os.sched_getaffinity`` is missing,
    with one CPU, inside a worker and inside a call that is already fanning
    out, the plain loop runs here.

    The first exception in item order is re-raised with its type and
    message.  One raised in a worker leaves the pool in step and alive.
    A call that ends on an exception raised here (an unpicklable ``fn``
    among them), on an interrupt or on a worker without a result, or that
    finds a worker dead when it starts, kills and reaps every worker; the
    next call forks new ones.  Workers exit with this interpreter (atexit),
    or at end of file on their task pipe if it dies.
    """
    items = list(items)
    workers = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        workers = min(len(os.sched_getaffinity(0)), len(items))
    if workers < 2 or not _pool_lock.acquire(blocking=False):
        return [fn(x) for x in items]
    cuts = [len(items) * w // workers for w in range(workers + 1)]
    failure = None
    try:
        jobs = [pickle.dumps((fn, items[cuts[w] : cuts[w + 1]])) for w in range(1, workers)]
        if any(_exited(pid) for pid, _, _ in _pool):
            _close_pool()
        while len(_pool) < workers - 1:
            _pool.append(_fork_worker())
        pool = _pool[: workers - 1]
        for (_, tasks, _), job in zip(pool, jobs):
            pickle.dump(job, tasks)
            tasks.flush()
        results = [fn(x) for x in items[: cuts[1]]]
        for worker in pool:
            try:
                ok, value = pickle.load(worker[2])
            except (EOFError, pickle.UnpicklingError):
                _pool.remove(worker)
                raise ChildProcessError(
                    "worker process %d ended without a result (wait status %d)"
                    % (worker[0], _reap(worker))
                ) from None
            if ok:
                results.extend(value)
            elif failure is None:
                failure = value
    except BaseException:
        _close_pool()
        raise
    finally:
        _pool_lock.release()
    if failure is not None:
        raise failure
    return results


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
    the pickled ``(fn, share)`` pickled once more, so that one the worker
    cannot load still leaves the pipe in step.  It answers ``(True,
    results)``, or ``(False, exception)`` for the parent to raise, and
    exits when the answer cannot be pickled or the parent has gone.
    """
    task_read, task_write = os.pipe()
    reply_read, reply_write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (task_read, task_write, reply_read, reply_write):
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
                    try:
                        fn, share = pickle.loads(job)
                        payload = (True, [fn(x) for x in share])
                    except BaseException as exc:
                        payload = (False, exc)
                    replies.write(pickle.dumps(payload))
                    replies.flush()
        finally:
            # Never return into the caller's frames.
            os._exit(0)
    os.close(task_read)
    os.close(reply_write)
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


def _close_pool():
    """Kill and reap every worker; the next call that fans out forks new ones."""
    while _pool:
        _reap(_pool.pop())


def _forget_pool():
    """In a child forked from the pool's owner, close its copies of the pipes."""
    for _, tasks, replies in _pool:
        _close_pipes(tasks, replies)
    _pool.clear()


atexit.register(_close_pool)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _norm(amps):
    """Euclidean norm as a float; inf, without numpy's warning, when it overflows."""
    with np.errstate(over="ignore"):
        return float(np.linalg.norm(amps))


def _require_grid_room(grid_size, dim):
    """Refuse a grid with fewer nodes than amplitudes, which would alias them."""
    if grid_size < dim:
        raise InvalidStateError("grid of %d nodes cannot hold %d amplitudes" % (grid_size, dim))


@dataclass(frozen=True)
class StateVector:
    """Unit-norm amplitude vector in the truncated number basis.

    Parameters
    ----------
    amplitudes : ndarray
        Complex array ``(c_0, ..., c_N)``.  Stored read-only.

    Raises
    ------
    InvalidStateError
        If the array is not one-dimensional, is empty, contains non-finite
        entries, or its norm differs from 1 by more than ``NORM_TOL``.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.ndim != 1:
            raise InvalidStateError(
                "amplitudes must be one-dimensional, got shape %r" % (amps.shape,)
            )
        if amps.size == 0:
            raise InvalidStateError("state needs at least one amplitude")
        if not np.all(np.isfinite(amps.real)) or not np.all(np.isfinite(amps.imag)):
            raise InvalidStateError("amplitudes contain non-finite entries")
        norm = _norm(amps)
        if abs(norm - 1.0) > NORM_TOL:
            raise InvalidStateError(
                "state norm is %.17g, expected 1 within %g" % (norm, NORM_TOL)
            )
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def max_photon(self):
        """Photon cutoff N (one less than the vector length)."""
        return self.amplitudes.size - 1

    @property
    def dim(self):
        return self.amplitudes.size


def normalize(amplitudes):
    """Scale an amplitude array to unit norm and wrap it in a StateVector.

    Parameters
    ----------
    amplitudes : array_like
        Complex (or real) coefficients, not all zero.

    Returns
    -------
    StateVector

    Raises
    ------
    InvalidStateError
        If the input is empty, non-finite, or its norm is zero or overflows.
    """
    amps = np.asarray(amplitudes, dtype=np.complex128)
    if amps.ndim != 1 or amps.size == 0:
        raise InvalidStateError("expected a non-empty one-dimensional array")
    if not np.all(np.isfinite(amps.real)) or not np.all(np.isfinite(amps.imag)):
        raise InvalidStateError("amplitudes contain non-finite entries")
    norm = _norm(amps)
    if norm == 0.0:
        raise InvalidStateError("cannot normalize the zero vector")
    if norm == np.inf:
        raise InvalidStateError("amplitude norm overflows float64; cannot normalize")
    return StateVector(amps / norm)


def fock_state(n, max_photon):
    """Number eigenstate |n> inside a cutoff-``max_photon`` space."""
    max_photon = _require_count(max_photon, "max_photon")
    if _require_count(n, "photon number") > max_photon:
        raise InvalidStateError(
            "photon number %d outside [0, %d]" % (n, max_photon)
        )
    amps = np.zeros(max_photon + 1, dtype=np.complex128)
    amps[n] = 1.0
    return StateVector(amps)


def sine_state(max_photon):
    """Sine-profile state, c_n = sqrt(2/(N+2)) sin(pi (n+1)/(N+2)).

    This is the classic high-information benchmark for phase estimation at
    fixed photon cutoff; the optimizer must never fall below it.
    """
    max_photon = _require_count(max_photon, "max_photon")
    n = np.arange(max_photon + 1)
    amps = np.sqrt(2.0 / (max_photon + 2)) * np.sin(
        np.pi * (n + 1) / (max_photon + 2)
    )
    return normalize(amps)


def random_state(max_photon, seed):
    """Haar-like random state: i.i.d. complex standard normal, normalized.

    Deterministic: the same ``(max_photon, seed)`` pair always returns the
    identical vector.  Used to seed optimizer multi-starts.  A ``max_photon``
    that is not a non-bool integer raises InvalidStateError, a seed that is
    not an integer >= 0 ConfigurationError.
    """
    max_photon = _require_count(max_photon, "max_photon")
    rng = np.random.default_rng(_require_integer(seed, "seed", 0))
    re = rng.standard_normal(max_photon + 1)
    im = rng.standard_normal(max_photon + 1)
    return normalize(re + 1j * im)


def gauge_transform(state, alpha, beta):
    """Apply the phase-symmetry map c_n -> exp(i(alpha + n beta)) c_n.

    ``alpha`` is an unobservable global phase; ``beta`` rigidly shifts the
    measurement density along the circle.  Both leave every information
    functional unchanged.
    """
    n = np.arange(state.dim)
    return StateVector(state.amplitudes * np.exp(1j * (alpha + n * beta)))


def phase_amplitude(state, angles):
    """Evaluate f(phi) = sum_n c_n exp(i n phi) at the given angles.

    Parameters
    ----------
    state : StateVector
    angles : float or ndarray

    Returns
    -------
    complex or ndarray
        Same shape as ``angles``.
    """
    angles = np.asarray(angles, dtype=np.float64)
    n = np.arange(state.dim)
    values = np.exp(1j * np.multiply.outer(angles, n)) @ state.amplitudes
    if angles.ndim == 0:
        return complex(values)
    return values


def phase_amplitude_grid(state, grid_size):
    """f(phi_k) on the uniform grid phi_k = 2 pi k / G, via a single inverse FFT.

    Requires ``grid_size >= state.dim`` so the amplitude vector fits in the
    frequency slots without aliasing.
    """
    _require_grid_room(grid_size, state.dim)
    # Unscaled inverse DFT of the zero-padded amplitudes: entry k is f(phi_k).
    return np.fft.ifft(state.amplitudes, n=grid_size, norm="forward")


def _likelihood_rows(amplitudes, offsets, grid_size):
    """Canonical likelihood on the grid phi_k = 2 pi k / G, one row per offset.

    Row j is |f(x_j - phi_k)|^2 / (2 pi) with f(phi) = sum_n c_n e^{i n phi},
    the length-G DFT of c_n e^{i n x_j}: the posterior's view of outcome
    x_j.  The sampler passes the conjugated amplitudes, which turns row j
    into |f(phi_k - x_j)|^2 / (2 pi), its outcome table at true phase x_j.
    Offsets are reduced mod 2 pi first; the result has shape
    (len(offsets), G).
    """
    _require_grid_room(grid_size, amplitudes.size)
    x = np.mod(np.asarray(offsets, dtype=np.float64), TWO_PI)
    phase = np.multiply.outer(x, np.arange(amplitudes.size))
    return np.abs(np.fft.fft(amplitudes * np.exp(1j * phase), n=grid_size)) ** 2 / TWO_PI


def state_to_dict(state):
    """JSON-ready mapping: {"max_photon": N, "amplitudes": [[re, im], ...]}."""
    return {
        "max_photon": int(state.max_photon),
        "amplitudes": [[float(c.real), float(c.imag)] for c in state.amplitudes],
    }


def state_from_dict(data):
    """Parse and validate the mapping produced by :func:`state_to_dict`.

    Vectors already at unit norm pass through bit for bit, so write/read
    round trips are exact; anything else is renormalized, so hand-edited
    files close to unit norm are accepted.  The zero vector is not.
    """
    if not isinstance(data, dict):
        raise InvalidStateError("state document must be a JSON object")
    for key in ("max_photon", "amplitudes"):
        if key not in data:
            raise InvalidStateError("state document missing field %r" % key)
    max_photon = data["max_photon"]
    if not isinstance(max_photon, int) or isinstance(max_photon, bool) or max_photon < 0:
        raise InvalidStateError("field 'max_photon' must be a nonnegative integer")
    pairs = data["amplitudes"]
    if not isinstance(pairs, list) or len(pairs) != max_photon + 1:
        raise InvalidStateError(
            "field 'amplitudes' must list exactly max_photon + 1 = %d pairs"
            % (max_photon + 1)
        )
    amps = np.empty(max_photon + 1, dtype=np.complex128)
    for i, pair in enumerate(pairs):
        if (
            not isinstance(pair, (list, tuple))
            or len(pair) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair)
        ):
            raise InvalidStateError(
                "field 'amplitudes'[%d] must be a [re, im] number pair" % i
            )
        try:
            amps[i] = float(pair[0]) + 1j * float(pair[1])
        except OverflowError:
            raise InvalidStateError(
                "field 'amplitudes'[%d] holds an integer too large for float64" % i
            ) from None
    if abs(_norm(amps) - 1.0) <= NORM_TOL:
        return StateVector(amps)
    return normalize(amps)


def load_state(path):
    """Read a state JSON file; errors name the file, and the field if one is at fault."""
    import json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InvalidStateError("cannot read state file %s: %s" % (path, exc)) from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InvalidStateError("state file %s is not valid JSON: %s" % (path, exc)) from exc
    try:
        return state_from_dict(data)
    except InvalidStateError as exc:
        raise InvalidStateError("state file %s: %s" % (path, exc)) from exc


def save_state(state, path):
    """Write a state JSON file in the canonical deterministic encoding."""
    from .serialize import dumps_json

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_json(state_to_dict(state)))
