"""Maximizing single-measurement information over states at fixed cutoff.

The objective J(c) = log(2 pi) - H(P_c) is smooth on the unit sphere of
amplitude vectors, invariant under the gauge maps c_n -> exp(i(a + n b)) c_n,
and multimodal for larger cutoffs.  The search is projected gradient ascent:

* objective from the density kernel and p log p sum that
  ``canonical_density`` and ``entropy`` use: at G = 4096 one batch of
  G / L real inverse FFTs of length L = 256 (L = 512 above N = 127), with
  p and log p kept in that (G / L, L) polyphase layout;
* Wirtinger gradient from the accepted probe's log-density: one batched
  real FFT of 1 + log p along the length-L axis of the same layout, a sum
  of its G / L rows against the conjugate twiddles for lags 0 .. N, then an
  (N+1) x (N+1) Toeplitz product with the amplitudes;
* projection onto the tangent space of the real unit sphere;
* backtracking line search with an Armijo sufficient-increase test, then a
  parabolic refinement of the accepted step so each iteration lands near
  the one-dimensional maximum along its ray instead of leapfrogging it;
* the accepted step doubles (capped at 1) to seed the next line search;
* convergence when an accepted step improves the objective by less than the
  configured tolerance, or when no step as small as 1e-18 passes the test.

The refinement matters: accepting any increase lets a saturated step
oscillate across the ridge with vanishing gains, which stalls the
gain-based stopping rule while the iterate is still far away in parameter
space.  With near-exact line searches the gain tracks the remaining error,
so the stopping rule is trustworthy.

Because only increases are ever accepted, the per-iteration objective is
monotone by construction.  Multimodality is handled by restarting from
seeded random states and keeping the best run.
"""

import functools
from dataclasses import dataclass, replace

import numpy as np

from . import states
from .circular import (
    _MASS_FLOOR,
    LOG_TWO_PI,
    _canonical_values,
    _plogp,
    _twiddles,
    validate_grid_size,
)
from .errors import ConfigurationError
from .states import TWO_PI, StateVector, _require_integer, normalize, random_state

__all__ = [
    "OptimizerConfig",
    "OptimizationResult",
    "SweepPoint",
    "objective_gradient",
    "tangent_project",
    "gauge_fix",
    "optimize_state",
    "bound_sweep",
]

_MIN_STEP = 1e-18

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
    step_init : float
        Initial line-search step, positive and finite.
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
    step_init: float = 0.1
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
        _require_integer(self.starts, "starts", 1)
        if not 0.0 < self.step_init < np.inf:
            raise ConfigurationError("step_init must be positive and finite")
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


@dataclass(frozen=True)
class SweepPoint:
    max_photon: int
    information: float
    state: StateVector
    converged: bool


def _objective(c, grid_size):
    """J at a unit vector, with the density and log-density the gradient reuses.

    Both stay in the kernel's (Q, L) polyphase layout; no probe reorders them.
    """
    p = _canonical_values(c, grid_size)
    plogp, logp = _plogp(p)
    return LOG_TWO_PI + plogp * TWO_PI / grid_size, (p, logp)


def _gradient(c, density):
    # d/d(conj c_n) of the gridded objective, (1/G) sum_k w_k f_k e^{-i n phi_k}
    # with w = 1 + log P, equals sum_j W_{(n-j) mod G} c_j for W = DFT(w) / G.
    # log P is 0 at masked nodes, so adding the mask gives w = 0 there.
    # In the (Q, L) layout W_m = (1/Q) sum_q e^{-i m phi_q} DFT_L(w[q])_m / L.
    p, logp = density
    q, sub = p.shape
    w = np.fft.rfft(logp + (p > _MASS_FLOOR), norm="forward")[:, : c.size]
    w = np.einsum("qm,qm->m", w, _twiddles(q * sub, sub)[:, : c.size].conj()) / q
    if c.size > w.size:
        # Lags past G/2 (only with Q = 1) are conjugates of their mirror images.
        w = np.concatenate((w, np.conj(w[sub - np.arange(w.size, c.size)])))
    kernel = np.concatenate((np.conj(w[:0:-1]), w))
    return np.convolve(kernel, c)[c.size - 1 : 2 * c.size - 1]


def objective_gradient(state, grid_size=4096):
    """Wirtinger gradient of the information objective at a state.

    Returned with respect to the conjugate amplitudes and unprojected; the
    directional derivative of J along a real perturbation u of c is
    2 Re <grad, u> after projecting onto the sphere's tangent space.
    """
    g = validate_grid_size(grid_size)
    c = state.amplitudes
    return _gradient(c, _objective(c, g)[1])


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
    z1 = complex(np.sum(c[:-1] * np.conj(c[1:]))) if c.size > 1 else 0.0
    beta = float(np.angle(z1)) if abs(z1) > 1e-12 else 0.0
    c = c * np.exp(1j * beta * np.arange(c.size))
    lead = 0
    mags = np.abs(c)
    if mags[0] <= 1e-12:
        lead = int(np.argmax(mags > 1e-12))
    c = c * np.exp(-1j * np.angle(c[lead]))
    c = c.copy()
    c[lead] = abs(c[lead])
    return normalize(c)


def _ascend(c0, config):
    """Run one projected-gradient start; returns (c, value, iters, converged, history)."""
    g = config.grid_size
    c = np.array(c0, dtype=np.complex128)
    c /= np.linalg.norm(c)
    value, density = _objective(c, g)
    history = [value]
    step = config.step_init
    for iteration in range(1, config.max_iters + 1):
        direction = tangent_project(c, _gradient(c, density))
        gsq = float(np.real(np.vdot(direction, direction)))
        if gsq == 0.0:
            return c, value, iteration, True, history

        def probe(s):
            trial = c + s * direction
            trial /= np.linalg.norm(trial)
            return _objective(trial, g) + (trial,)

        # Directional derivative along the direction is 2 * gsq, so the
        # first-order gain of a step s is 2 * s * gsq.
        s = step
        accepted = False
        while s > _MIN_STEP:
            trial_value, trial_density, trial = probe(s)
            if trial_value >= value + _SUFFICIENT * 2.0 * s * gsq:
                accepted = True
                break
            s *= 0.5
        if not accepted:
            # No step of any size realizes the first-order gain: stationary.
            return c, value, iteration, True, history
        # Refine: fit a parabola through steps 0, s/2, s and jump to its
        # vertex when that beats both probes.
        half_value, half_density, half = probe(s / 2.0)
        concavity = 2.0 * (2.0 * half_value - value - trial_value)
        if concavity > 0.0:
            vertex = (s / 2.0) * (4.0 * half_value - 3.0 * value - trial_value) / concavity
            if 0.0 < vertex < 4.0 * s:
                vertex_value, vertex_density, refined = probe(vertex)
                if vertex_value > trial_value and vertex_value > half_value:
                    trial_value, trial_density, trial = vertex_value, vertex_density, refined
                    s = vertex
        if half_value > trial_value:
            trial_value, trial_density, trial, s = half_value, half_density, half, s / 2.0
        gain = trial_value - value
        if gain <= 0.0:
            return c, value, iteration, True, history
        c, value, density = trial, trial_value, trial_density
        history.append(value)
        step = min(s * 2.0, 1.0)
        if gain < config.convergence_tol:
            return c, value, iteration, True, history
    return c, value, config.max_iters, False, history


def _require_config(config):
    if not isinstance(config, OptimizerConfig):
        raise ConfigurationError("expected an OptimizerConfig")


def _run_start(config, seed):
    """One seeded start of :func:`optimize_state`: (c, value, iters, converged)."""
    c0 = random_state(config.max_photon, int(seed)).amplitudes
    return _ascend(c0, config)[:4]


def optimize_state(config):
    """Search for the maximum-information state at the configured cutoff.

    Runs ``config.starts`` independent ascents from seeded random states and
    returns the best.  On Linux the starts are shared out over every CPU the
    process may use, through workers forked at the first such call and
    reused after it; the result is the same bytes for any CPU count, and
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
    # Through the module, so that a trace charges the ascents to this layer.
    runs = states._fan_out(functools.partial(_run_start, config), start_seeds)
    # The objective is a mutual information; tiny negatives are pure
    # quadrature rounding at the N = 0 fixed point.
    values = [value if value > 0.0 else 0.0 for _, value, _, _ in runs]
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


def bound_sweep(n_max, config):
    """Optimal information at every cutoff N = 0 .. n_max.

    Non-convergence at some cutoff is recorded in that point's flag; the
    sweep itself always completes.
    """
    _require_integer(n_max, "n_max", 0)
    # The last cutoff's config, so that one the grid cannot hold is refused
    # before any search runs.
    _require_config(config)
    replace(config, max_photon=n_max)
    points = []
    for n in range(n_max + 1):
        result = optimize_state(replace(config, max_photon=n))
        points.append(
            SweepPoint(
                max_photon=n,
                information=result.information,
                state=result.state,
                converged=result.converged,
            )
        )
    return points
