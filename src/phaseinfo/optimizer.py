"""Maximizing single-measurement information over states at fixed cutoff.

The objective J(c) = log(2 pi) - H(P_c) is smooth on the unit sphere of
amplitude vectors, invariant under the gauge maps c_n -> exp(i(a + n b)) c_n,
and multimodal for larger cutoffs.  The search runs over real amplitude
vectors, which removes the gauge orbit from the search space (the quotient
view of Absil, Mahony & Sepulchre 2008).  On the grid J is exactly invariant
under c -> conj(c), since the nodes are symmetric under phi -> -phi, so at a
real c the derivative along every imaginary direction is zero and every
stationary point of the real search is one of the complex search too.  That
these are maxima over complex states is observed, not proved: the complex
search's optima were real and positive after ``gauge_fix`` (imaginary parts
at most 8.9e-7) at every cutoff N = 0 .. 40, 48, 64, 96, 128 and 160 checked.

Each start is a limited-memory BFGS ascent on the real unit sphere
(Nocedal & Wright 2006, ch. 7) in the N + 1 amplitudes; the first starts
from the moduli of ``sine_state(N)``:

* objective and Wirtinger gradient from ``circular._information`` and
  ``_information_gradient`` at the complex cast of each iterate, whose
  docstrings give the polyphase layout; each iteration projects the real
  part of the gradient onto the sphere's tangent space once;
* the direction is the two-loop recursion over the last 5 curvature pairs,
  skipping a pair with s.y <= 0 and scaling by s.y / y.y; with no pairs, or
  when the recursion does not point uphill, the memory restarts from the
  bare gradient, scaled to a step that starts at 0.1, doubles after each
  full step along it and shrinks by the factor t of a shorter one;
* a step retracts onto the sphere by normalizing, and the line search
  halves it from 1 until the Armijo sufficient-increase test passes.

A start stops, flagged converged, at the first of three exits: the norm of
the tangent gradient is at most ``convergence_tol`` (or exactly zero); no
step as small as 1e-18 passes the Armijo test; or the accepted step gains
nothing (gain <= 0).  Otherwise it stops unconverged at ``max_iters``.

So ``converged`` certifies a tangent gradient within ``convergence_tol``,
unless the rounding of J stops the ascent first: the last two exits fire
once a step's gain is below the rounding of J, which at G = 4096 happens
near a tangent gradient of 1e-8, so a smaller tolerance still ends the run
there instead of at ``max_iters``.  With the default 1e-6 at G = 4096, the
start from the sine state stops with a tangent gradient of 4.2e-7, 2.5e-7
and 8.1e-7 for N = 8, 16 and 32.

Because only increases are ever accepted, the per-iteration objective is
monotone by construction.  Positive starts find one maximum, by observation
rather than proof: 16 more starts from the moduli of seeded random states
(seed 0) beat the sine start by at most 2.4e-13 at every cutoff N = 0 .. 32,
48 and 64 checked.  Signed starts do not: from signed Gaussian vectors most
stall at lower stationary points, so every start is nonnegative.
"""

import collections
from dataclasses import dataclass, replace

import numpy as np

from .circular import _information, _information_gradient, validate_grid_size
from .errors import ConfigurationError
from .states import StateVector, _require_integer, normalize, random_state, sine_state

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
        Number of ascents: the first from the sine state, the rest from
        seeded random states, a check that they find no better maximum.
    convergence_tol : float
        A start stops converged once the norm of its tangent gradient,
        ``tangent_project(c, objective_gradient(state))``, is at most this;
        positive and finite.
    max_iters : int
        Iteration cap per start.
    seed : int
        Seeds starts 2 .. ``starts``; an integer >= 0.  Each begins from the
        moduli of a ``random_state`` whose seed is drawn from
        ``np.random.SeedSequence(seed)``.
    """

    max_photon: int
    grid_size: int = 4096
    starts: int = 1
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
    of the winning start.  The state is that start's real vector as its
    ascent left it (every imaginary part exactly 0), so
    ``mutual_information_single(state, config.grid_size)`` is ``information``
    bit for bit.  Every start is deterministic, so rerunning with the same
    config reproduces both bit for bit.
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


def _ascend(x0, config):
    """Run one L-BFGS start on the real sphere; returns (c, value, iters, converged).

    ``x0`` is a real start vector; ``c`` is the complex cast of the last
    iterate, the vector ``value`` was evaluated at.
    """
    g = config.grid_size
    x = np.array(x0, dtype=np.float64)
    x /= np.linalg.norm(x)
    # J is evaluated at the complex cast, the array a StateVector of x holds:
    # np.correlate rounds the lags of a real vector differently.
    c = x.astype(np.complex128)
    value, weights = _information(c, g)
    pairs = collections.deque(maxlen=_MEMORY)
    step = _FIRST_STEP
    for iteration in range(1, config.max_iters + 1):
        grad = tangent_project(x, _information_gradient(c, weights).real)
        grad_squared = np.dot(grad, grad)
        if grad_squared <= config.convergence_tol**2:
            break
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
            trial_c = trial.astype(np.complex128)
            trial_value, trial_weights = _information(trial_c, g)
            if trial_value >= value + _SUFFICIENT * t * slope:
                break
            t *= 0.5
        else:
            # No step of any size realizes the first-order gain: stationary.
            break
        if trial_value <= value:
            # The gain is below rounding: no step can certify a smaller gradient.
            break
        x, c, value, weights = trial, trial_c, trial_value, trial_weights
        if steepest:
            step *= 2.0 if t == 1.0 else t
    else:
        return c, value, config.max_iters, False
    return c, value, iteration, True


def _require_config(config):
    if not isinstance(config, OptimizerConfig):
        raise ConfigurationError("expected an OptimizerConfig")


def optimize_state(config):
    """Search for the maximum-information state at the configured cutoff.

    Runs ``config.starts`` ascents, the first from the sine state's moduli
    and the rest from seeded random moduli, and returns the best.

    Returns
    -------
    OptimizationResult
        ``converged`` is False when the winning start hit the iteration cap;
        the best state found is still returned.
    """
    _require_config(config)
    n = config.max_photon
    seeds = np.random.SeedSequence(config.seed).generate_state(config.starts - 1, np.uint64)
    starts = [sine_state(n)] + [random_state(n, int(seed)) for seed in seeds]
    runs = [_ascend(np.abs(start.amplitudes), config) for start in starts]
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


def bound_sweep(config):
    """Optimal information at every cutoff N = 0 .. ``config.max_photon``.

    Returns :func:`optimize_state` of the config at each cutoff, in order.
    Non-convergence at some cutoff is recorded in that result's flag; the
    sweep itself always completes.
    """
    _require_config(config)
    return [optimize_state(replace(config, max_photon=n)) for n in range(config.max_photon + 1)]
