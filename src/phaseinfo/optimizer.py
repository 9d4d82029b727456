"""Maximizing single-measurement information over states at fixed cutoff.

The objective J(c) = log(2 pi) - H(P_c) is smooth on the unit sphere of
amplitude vectors, invariant under the gauge maps c_n -> exp(i(a + n b)) c_n,
and multimodal for larger cutoffs.  The search is projected gradient ascent:

* objective and Wirtinger gradient from ``circular._information`` and
  ``_information_gradient``, whose docstrings give the polyphase layout;
* projection onto the tangent space of the real unit sphere;
* backtracking line search with an Armijo sufficient-increase test, then a
  parabolic refinement of the accepted step so each iteration lands near
  the one-dimensional maximum along its ray instead of leapfrogging it;
* the first line search tries a step of 0.1; each accepted step doubles
  (capped at 1) to seed the next one.

A start stops, flagged converged, at the first of four exits: the tangent
gradient is exactly zero; no step as small as 1e-18 passes the Armijo test;
the refined step gains nothing (gain <= 0); or it gains less than
``convergence_tol``.  Otherwise it stops unconverged at ``max_iters``.

The refinement matters: accepting any increase lets a saturated step
oscillate across the ridge with vanishing gains, which stalls the
gain-based stopping rule while the iterate is still far away in parameter
space.  With near-exact line searches the gain tracks the remaining error.
Still, ``converged`` means the gain stalled, not that the gradient
vanished: at G = 4096 one start from ``random_state(N, seed)`` stops with a
tangent-gradient norm of 7.2e-6, 1.35e-5 and 1.49e-5 for (N, seed) =
(8, 0), (16, 12345) and (32, 7).

Because only increases are ever accepted, the per-iteration objective is
monotone by construction.  Multimodality is handled by restarting from
seeded random states and keeping the best run.
"""

import functools
from dataclasses import dataclass, replace

import numpy as np

from . import _pool
from .circular import _information, _information_gradient, validate_grid_size
from .errors import ConfigurationError
from .states import StateVector, _require_integer, normalize, random_state

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
_FIRST_STEP = 0.1

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
        Number of random restarts.
    convergence_tol : float
        An accepted improvement below this declares the run converged;
        positive and finite.
    max_iters : int
        Iteration cap per start.
    seed : int
        Seeds the restart states deterministically; an integer >= 0.
    """

    max_photon: int
    grid_size: int = 4096
    starts: int = 16
    convergence_tol: float = 1e-10
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
    of the winning start.  The reported state is gauge fixed, so rerunning
    with the same config reproduces it bit for bit, on any number of CPUs.
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
    real and nonnegative.  Idempotent up to rounding.
    """
    c = state.amplitudes
    z1 = complex(np.sum(c[:-1] * np.conj(c[1:])))
    beta = float(np.angle(z1)) if abs(z1) > 1e-12 else 0.0
    c = c * np.exp(1j * beta * np.arange(c.size))
    lead = int(np.argmax(np.abs(c) > 1e-12))
    c = c * np.exp(-1j * np.angle(c[lead]))
    c[lead] = abs(c[lead])
    return normalize(c)


def _ascend(c0, config):
    """Run one projected-gradient start; returns (c, value, iters, converged)."""
    g = config.grid_size
    c = np.array(c0, dtype=np.complex128)
    c /= np.linalg.norm(c)
    value, density = _information(c, g)
    step = _FIRST_STEP
    for iteration in range(1, config.max_iters + 1):
        direction = tangent_project(c, _information_gradient(c, density))
        gsq = float(np.real(np.vdot(direction, direction)))
        if gsq == 0.0:
            break

        def probe(s):
            trial = c + s * direction
            trial /= np.linalg.norm(trial)
            return _information(trial, g) + (trial, s)

        # Directional derivative along the direction is 2 * gsq, so the
        # first-order gain of a step s is 2 * s * gsq.
        s = step
        while s > _MIN_STEP:
            accepted = probe(s)
            if accepted[0] >= value + _SUFFICIENT * 2.0 * s * gsq:
                break
            s *= 0.5
        else:
            # No step of any size realizes the first-order gain: stationary.
            break
        # Refine: fit a parabola through steps 0, s/2, s and probe its
        # vertex too; the best probe wins, the earlier one on a tie.
        half = probe(s / 2.0)
        probes = [accepted, half]
        concavity = 2.0 * (2.0 * half[0] - value - accepted[0])
        if concavity > 0.0:
            vertex = (s / 2.0) * (4.0 * half[0] - 3.0 * value - accepted[0]) / concavity
            if 0.0 < vertex < 4.0 * s:
                probes.append(probe(vertex))
        trial_value, trial_density, trial, s = max(probes, key=lambda p: p[0])
        gain = trial_value - value
        if gain <= 0.0:
            break
        c, value, density = trial, trial_value, trial_density
        step = min(s * 2.0, 1.0)
        if gain < config.convergence_tol:
            break
    else:
        return c, value, config.max_iters, False
    return c, value, iteration, True


def _require_config(config):
    if not isinstance(config, OptimizerConfig):
        raise ConfigurationError("expected an OptimizerConfig")


def _run_start(config, seed):
    """One seeded start of :func:`optimize_state`: (c, value, iters, converged)."""
    c0 = random_state(config.max_photon, int(seed)).amplitudes
    return _ascend(c0, config)


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
    start_seeds = np.random.SeedSequence(config.seed).generate_state(
        config.starts, dtype=np.uint64
    )
    # Through the module, not bound by name: a trace then charges the wait for
    # the ascents to this layer, while perfbench's tracer would wrap a by-name
    # binding into a _pool layer that it does not have, and fail.
    runs = _pool._fan_out(functools.partial(_run_start, config), start_seeds)
    values = [value for _, value, _, _ in runs]
    best = int(np.argmax(values))
    best_c, _, best_iters, best_converged = runs[best]
    return OptimizationResult(
        state=gauge_fix(normalize(best_c)),
        information=float(values[best]),
        per_start=tuple(float(v) for v in values),
        per_start_converged=tuple(bool(run[3]) for run in runs),
        converged=bool(best_converged),
        iterations=int(best_iters),
    )


def bound_sweep(config):
    """Optimal information at every cutoff N = 0 .. ``config.max_photon``.

    Returns one :class:`OptimizationResult` per cutoff, in order.
    Non-convergence at some cutoff is recorded in that result's flag; the
    sweep itself always completes.
    """
    _require_config(config)
    return [optimize_state(replace(config, max_photon=n)) for n in range(config.max_photon + 1)]
