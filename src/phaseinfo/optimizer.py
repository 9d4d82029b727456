"""Maximizing single-measurement information over states at fixed cutoff.

The objective J(c) = log(2 pi) - H(P_c) is smooth on the unit sphere of
amplitude vectors, invariant under the gauge maps c_n -> exp(i(a + n b)) c_n,
and multimodal for larger cutoffs.  Each start is a limited-memory BFGS
ascent on the sphere (Nocedal & Wright 2006, ch. 7; Absil, Mahony &
Sepulchre 2008) in the real coordinates of the 2(N + 1) amplitude parts:

* objective and Wirtinger gradient from ``circular._information`` and
  ``_information_gradient``, whose docstrings give the polyphase layout;
  each iteration projects the gradient onto the sphere's tangent space once;
* the direction is the two-loop recursion over the last 5 curvature pairs,
  skipping a pair with s.y <= 0 and scaling by s.y / y.y; with no pairs, or
  when the recursion does not point uphill, the memory restarts from the
  bare gradient, scaled to a step that starts at 0.1, doubles after each
  full step along it and shrinks by the factor t of a shorter one;
* a step retracts onto the sphere by normalizing, and the line search
  halves it from 1 until the Armijo sufficient-increase test passes;
* once per start, at the first step accepted from a tangent gradient below
  1e-3, the start snaps along its gauge orbit toward the grid's ripple crest.

The ripple: on G nodes J is invariant under the linear gauge only up to a
ripple of period 2 pi / G in b, since a whole-node shift of the density is
an exact symmetry of the node sum.  At G = 4096 it measures 6.9e-9 and
6.4e-8 peak to peak at the N = 16 and N = 32 optima, and its slope adds up
to 8.3e-7 and 3.5e-6 to the tangent gradient.  Without the snap a start
creeps along this almost flat direction: at N >= 12, 8-14 of its 30-43
iterations come after the tangent gradient first falls below 1e-5; with
it, about 2 do.  ``_snap`` puts the density's mean direction on a node and
1/4, 1/2 and 3/4 of the way to the next, keeps the best placement if it
beats the step, and turns the curvature pairs with it.  For a density
symmetric about its mean, the node and half-node placements are stationary
along the orbit, but either can be a ripple minimum (at N = 48 and 96 the
half node is one), where no gradient leads on; from a quarter placement a
start keeps climbing.

A start stops, flagged converged, at the first of three exits: the norm of
the tangent gradient is at most ``convergence_tol`` (or exactly zero); no
step as small as 1e-18 passes the Armijo test; or the accepted step gains
nothing (gain <= 0).  Otherwise it stops unconverged at ``max_iters``.

So ``converged`` certifies a tangent gradient within ``convergence_tol``,
unless the rounding of J stops the ascent first: the last two exits fire
once a step's gain is below the rounding of J, which at G = 4096 happens
near a tangent gradient of 1e-8, so a smaller tolerance still ends the run
there instead of at ``max_iters``.  With the default 1e-6 at G = 4096, one
start from ``random_state(N, seed)`` stops with a tangent gradient of
9.2e-7, 3.7e-7 and 4.6e-7 for (N, seed) = (8, 0), (16, 12345) and (32, 7).

Because only increases are ever accepted, the snap included, the
per-iteration objective is monotone by construction.  Multimodality is
handled by restarting from seeded random states and keeping the best run.
"""

import collections
import functools
from dataclasses import dataclass

import numpy as np

from . import _pool
from .circular import _information, _information_gradient, validate_grid_size
from .errors import ConfigurationError
from .states import TWO_PI, StateVector, _require_integer, normalize, random_state

__all__ = [
    "OptimizerConfig",
    "OptimizationResult",
    "objective_gradient",
    "tangent_project",
    "gauge_fix",
    "optimize_state",
    "bound_sweep",
]

_MIN_STEP = 1e-18
# Length of the first step along the bare gradient, taken while the memory is
# empty; it doubles after a full step and shrinks by t after a shorter one.
_FIRST_STEP = 0.1
# Curvature pairs kept by the L-BFGS recursion.
_MEMORY = 5

# Armijo coefficient: fraction of the first-order gain a step must realize.
_SUFFICIENT = 0.1

# Tangent-gradient norm below which a start snaps once toward the ripple's
# crest, and the placements per grid spacing that the snap tries (see _snap).
_SNAP_GRADIENT = 1e-3
_SNAP_PLACEMENTS = 4


@dataclass(frozen=True)
class OptimizerConfig:
    """Search settings for :func:`optimize_state`.

    Parameters
    ----------
    max_photon : int
        Photon cutoff N of the search space.
    grid_size : int
        Quadrature grid for the objective (power of two, >= 64, and large
        enough to hold N + 1 amplitudes).
    starts : int
        Number of random restarts.
    convergence_tol : float
        A start stops converged once the norm of its tangent gradient,
        ``tangent_project(c, objective_gradient(state))``, is at most this;
        positive and finite.
    max_iters : int
        Iteration cap per start.
    seed : int
        Seeds the restart states deterministically; an integer >= 0.
    """

    max_photon: int
    grid_size: int = 4096
    starts: int = 16
    convergence_tol: float = 1e-6
    max_iters: int = 10_000
    seed: int = 0

    def __post_init__(self):
        _require_integer(self.max_photon, "max_photon", 0)
        g = validate_grid_size(self.grid_size)
        if g < self.max_photon + 1:
            raise ConfigurationError(
                "grid size %d cannot hold %d amplitudes" % (g, self.max_photon + 1)
            )
        _require_integer(self.starts, "starts", 1, sized=True)
        if not 0.0 < self.convergence_tol < np.inf:
            raise ConfigurationError("convergence_tol must be positive and finite")
        _require_integer(self.max_iters, "max_iters", 1)
        _require_integer(self.seed, "seed", 0)


@dataclass(frozen=True)
class OptimizationResult:
    """Best state found, with per-start diagnostics.

    ``information`` is exactly ``max(per_start)``; ``converged`` is the flag
    of the winning start.  The state is that start's vector as its ascent
    left it, so ``mutual_information_single(state, config.grid_size)`` is
    ``information`` bit for bit.  Every start is seeded, so rerunning with the
    same config reproduces both bit for bit, on any number of CPUs.
    """

    state: StateVector
    information: float
    per_start: tuple
    per_start_converged: tuple
    converged: bool
    iterations: int


def objective_gradient(state, grid_size=4096):
    """Wirtinger gradient of the information objective at a state.

    Returned with respect to the conjugate amplitudes and unprojected; the
    directional derivative of J along a real perturbation u of c is
    2 Re <grad, u> after projecting onto the sphere's tangent space.
    """
    c = state.amplitudes
    return _information_gradient(c, _information(c, validate_grid_size(grid_size))[1])


def tangent_project(amplitudes, grad):
    """Remove the radial component of a gradient at a unit vector."""
    radial = float(np.real(np.vdot(amplitudes, grad)))
    return grad - radial * amplitudes


def gauge_fix(state):
    """Canonical representative of a state's gauge orbit.

    The linear phase is chosen so the canonical density has mean direction
    zero (the first trigonometric moment of the density becomes real and
    nonnegative), then a global phase makes the leading nonzero amplitude
    real and nonnegative.  Idempotent up to rounding.  On G nodes its sub-node
    shift changes the gridded information by up to the grid's ripple along
    the gauge orbit (6.4e-8 at the N = 32 optimum, G = 4096).
    """
    c = state.amplitudes
    z1 = complex(np.vdot(c[1:], c[:-1]))
    beta = float(np.angle(z1)) if abs(z1) > 1e-12 else 0.0
    c = c * np.exp(1j * beta * np.arange(c.size))
    lead = int(np.argmax(np.abs(c) > 1e-12))
    c = c * np.exp(-1j * np.angle(c[lead]))
    c[lead] = abs(c[lead])
    return normalize(c)


def _direction(grad, pairs, step):
    """L-BFGS two-loop recursion: the inverse-Hessian estimate applied to grad.

    ``pairs`` holds (s, y, 1 / s.y) with s = x_new - x and y = g - g_new, the
    curvature pairs of -J; with none, grad is scaled to a step of length step.
    """
    if not pairs:
        return grad * (step / np.sqrt(np.dot(grad, grad)))
    q = grad.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        alpha = rho * np.dot(s, q)
        q -= alpha * y
        alphas.append(alpha)
    _, y, rho = pairs[-1]
    q /= rho * np.dot(y, y)
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - rho * np.dot(y, q)) * s
    return q


def _snap(c, value, grid_size):
    """Move c along its linear-gauge orbit toward the crest of the grid's ripple.

    The map c_n -> exp(i n b) c_n shifts the density by b, and a whole-node
    shift leaves the gridded J exactly unchanged, so J ripples along the orbit
    with period h = 2 pi / G.  Tries the placements of the density's mean
    direction at 0, 1/4, 1/2 and 3/4 of a node and returns (phase, c, value,
    weights) for the best one if it beats ``value``, else None; ``phase`` is
    the diagonal factor exp(i n b) that moved c.
    """
    h = TWO_PI / grid_size
    # The first moment of the density is sum_n c_n conj(c_{n+1}), and c_n ->
    # exp(i n b) c_n turns its direction by -b.
    mean = float(np.angle(np.vdot(c[1:], c[:-1])))
    node = np.floor(mean / h)
    best = None
    for fraction in np.arange(_SNAP_PLACEMENTS) / _SNAP_PLACEMENTS:
        phase = np.exp(1j * (mean - h * (node + fraction)) * np.arange(c.size))
        placed = c * phase
        placed_value, weights = _information(placed, grid_size)
        if placed_value > value:
            best, value = (phase, placed, placed_value, weights), placed_value
    return best


def _ascend(c0, config):
    """Run one L-BFGS start on the sphere; returns (c, value, iters, converged)."""
    g = config.grid_size
    c = np.array(c0, dtype=np.complex128)
    c /= np.linalg.norm(c)
    value, weights = _information(c, g)
    pairs = collections.deque(maxlen=_MEMORY)
    step = _FIRST_STEP
    snapped = False
    for iteration in range(1, config.max_iters + 1):
        grad = tangent_project(c, _information_gradient(c, weights)).view(np.float64)
        grad_squared = np.dot(grad, grad)
        if grad_squared <= config.convergence_tol**2:
            break
        x = c.view(np.float64)
        if iteration > 1:
            s, y = x - x_old, grad_old - grad
            sy = float(np.dot(s, y))
            if sy > 0.0:
                pairs.append((s, y, 1.0 / sy))
        x_old, grad_old = x, grad
        direction = _direction(grad, pairs, step)
        # The slope of J along the real direction d is 2 grad.d (the gradient
        # is Wirtinger); a direction that does not ascend restarts the memory.
        slope = 2.0 * float(np.dot(grad, direction))
        if not slope > 0.0:
            pairs.clear()
            direction = _direction(grad, pairs, step)
            slope = 2.0 * float(np.dot(grad, direction))
        steepest = not pairs
        t = 1.0
        while t > _MIN_STEP:
            trial = x + t * direction
            trial /= np.sqrt(np.dot(trial, trial))
            trial = trial.view(np.complex128)
            trial_value, trial_weights = _information(trial, g)
            if trial_value >= value + _SUFFICIENT * t * slope:
                break
            t *= 0.5
        else:
            # No step of any size realizes the first-order gain: stationary.
            break
        if trial_value <= value:
            # The gain is below rounding: no step can certify a smaller gradient.
            break
        c, value, weights = trial, trial_value, trial_weights
        if steepest:
            step *= 2.0 if t == 1.0 else t
        if not snapped and grad_squared < _SNAP_GRADIENT**2:
            snapped = True
            snap = _snap(c, value, g)
            if snap is not None:
                phase, c, value, weights = snap
                # The gauge map is an isometry, so the memory turns with c; each
                # of these arrays owns its buffer, c no longer shares x_old's.
                for v in [x_old, grad_old] + [a for s, y, _ in pairs for a in (s, y)]:
                    z = v.view(np.complex128)
                    z *= phase
    else:
        return c, value, config.max_iters, False
    return c, value, iteration, True


def _require_config(config):
    if not isinstance(config, OptimizerConfig):
        raise ConfigurationError("expected an OptimizerConfig")


def _run_start(config, item):
    """One seeded start, item = (cutoff, seed): (c, value, iters, converged)."""
    n, seed = item
    return _ascend(random_state(n, int(seed)).amplitudes, config)


def _best(runs):
    """The :class:`OptimizationResult` of one cutoff's starts."""
    values = [value for _, value, _, _ in runs]
    best = int(np.argmax(values))
    best_c, _, best_iters, best_converged = runs[best]
    return OptimizationResult(
        state=StateVector(best_c),
        information=float(values[best]),
        per_start=tuple(float(v) for v in values),
        per_start_converged=tuple(bool(run[3]) for run in runs),
        converged=bool(best_converged),
        iterations=int(best_iters),
    )


def _search(config, cutoffs):
    """The best of ``config.starts`` starts at each cutoff, all in one fan-out."""
    k = config.starts
    seeds = np.random.SeedSequence(config.seed).generate_state(k, dtype=np.uint64)
    # Through the module, not bound by name: a trace then charges the wait for
    # the ascents to this layer, while perfbench's tracer would wrap a by-name
    # binding into a _pool layer that it does not have, and fail.
    runs = _pool._fan_out(
        functools.partial(_run_start, config), [(n, seed) for n in cutoffs for seed in seeds]
    )
    return [_best(runs[first : first + k]) for first in range(0, len(runs), k)]


def optimize_state(config):
    """Search for the maximum-information state at the configured cutoff.

    Runs ``config.starts`` independent ascents from seeded random states and
    returns the best.  The starts run on every CPU the process may use; the
    result is the same bytes for any CPU count and any schedule, and
    deterministic for a fixed config.

    Returns
    -------
    OptimizationResult
        ``converged`` is False when the winning start hit the iteration cap;
        the best state found is still returned.
    """
    _require_config(config)
    return _search(config, [config.max_photon])[0]


def bound_sweep(config):
    """Optimal information at every cutoff N = 0 .. ``config.max_photon``.

    Returns one :class:`OptimizationResult` per cutoff, in order, each the
    one :func:`optimize_state` returns at that cutoff.  Non-convergence at
    some cutoff is recorded in that result's flag; the sweep itself always
    completes.
    """
    _require_config(config)
    # Every start of every cutoff in one fan-out, so no worker idles at a
    # barrier per cutoff.  The largest cutoffs run longest and go first, so
    # the last items claimed are short (Graham's longest-processing-time order).
    return _search(config, range(config.max_photon, -1, -1))[::-1]
