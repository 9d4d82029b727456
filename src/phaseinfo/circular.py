"""Probability densities on the circle and their information functionals.

Densities are sampled on the uniform grid phi_k = 2 pi k / G.  All integrals
use the periodic midpoint rule (2 pi / G times the node sum), which is exact
for trigonometric polynomials of degree below G and spectrally accurate for
smooth periodic integrands, so no fancier quadrature is ever needed here.

Conventions used throughout:

* entropy integrand treats 0 * log 0 as 0, and any node mass below 1e-300
  as exactly zero;
* differential entropy is in nats; the uniform density has entropy log(2 pi);
* mutual information of a single measurement is log(2 pi) minus the entropy
  of the canonical measurement density.

The table exp(i phi_k) that the first circular moment sums against depends
only on G; it is built once per grid size and cached read-only.

The canonical density of an N-photon state has only 2N + 1 Fourier
coefficients, so it is evaluated by polyphase decomposition: node
k = q + Q l splits into Q interleaved subgrids of L = G / Q nodes, each one
real inverse FFT of length L of the lags twiddled by exp(i m phi_q).  The
Q transforms run as one batch, and the twiddle table depends only on
(G, L), so it is built once and cached read-only like the unit circle.
"""

import functools
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    DegeneratePosteriorError,
    InvalidDensityError,
)
from .states import TWO_PI, _likelihood_rows, _require_grid_room, phase_amplitude_grid

__all__ = [
    "LOG_TWO_PI",
    "grid_angles",
    "validate_grid_size",
    "CircularDensity",
    "uniform_prior",
    "canonical_density",
    "posterior_update",
    "posterior_from_outcomes",
    "entropy",
    "mutual_information_single",
    "fisher_information",
    "CircularMoments",
    "circular_moments",
    "InformationReport",
    "information_report",
]

LOG_TWO_PI = float(np.log(TWO_PI))

# Node masses below this are treated as exact zeros inside logarithms.
_MASS_FLOOR = 1e-300

# Density values below this switch the Fisher integrand to its limit form.
_FISHER_FLOOR = 1e-14

# Outcomes whose likelihood rows are transformed in one batched FFT; 16 rows
# of a 4096-node grid keep the complex scratch space near 1 MB.
_OUTCOME_CHUNK = 16


def grid_angles(grid_size):
    """The uniform angle grid phi_k = 2 pi k / G, k = 0 .. G-1."""
    return TWO_PI * np.arange(grid_size) / grid_size


@functools.lru_cache(maxsize=4)
def _unit_circle(grid_size):
    """exp(i phi_k) on the grid, read-only; a few grid sizes stay cached."""
    z = np.exp(1j * grid_angles(grid_size))
    z.flags.writeable = False
    return z


def validate_grid_size(grid_size):
    """Check that a grid size is a power of two and at least 64.

    Powers of two keep the FFT evaluation path exact and fast; the floor of
    64 keeps quadrature honest for every state within the supported photon
    cutoffs.  A grid too large for numpy to size its complex128 node table
    is refused too.  Returns the validated size as int.
    """
    g = grid_size
    if not isinstance(g, (int, np.integer)) or isinstance(g, bool):
        raise ConfigurationError("grid size must be an integer, got %r" % (grid_size,))
    g = int(g)
    if g < 64 or (g & (g - 1)) != 0:
        raise ConfigurationError(
            "grid size must be a power of two >= 64, got %d" % g
        )
    if g * 16 > np.iinfo(np.intp).max:
        raise ConfigurationError("cannot allocate a grid of %d nodes" % g)
    return g


@dataclass(frozen=True)
class CircularDensity:
    """Nonnegative density on the uniform circular grid, integrating to 1.

    Parameters
    ----------
    values : ndarray
        Density values at the grid nodes.
    log_values : ndarray, optional
        Log-density at the same nodes (entries may be -inf where the density
        vanishes).  Carried so that long Bayesian update chains can run in
        log space without underflow.

    Raises
    ------
    InvalidDensityError
        If values are negative, non-finite, or the midpoint-rule integral
        differs from 1 by more than 1e-9.  It is also a ``ValueError``.
    """

    values: np.ndarray
    log_values: np.ndarray | None = None

    def __post_init__(self):
        vals = np.array(self.values, dtype=np.float64)
        if vals.ndim != 1 or vals.size == 0:
            raise InvalidDensityError("density values must form a non-empty 1-d array")
        total = vals.sum()
        # Diagnose only on failure; finite values whose sum overflows fail below.
        if not (np.isfinite(total) and vals.min() >= 0.0):
            if not np.all(np.isfinite(vals)):
                raise InvalidDensityError("density values must be finite")
            if np.any(vals < 0.0):
                raise InvalidDensityError("density values must be nonnegative")
        total = float(total) * TWO_PI / vals.size
        if abs(total - 1.0) > 1e-9:
            raise InvalidDensityError(
                "density integrates to %.17g, expected 1 within 1e-9" % total
            )
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        if self.log_values is not None:
            logs = np.array(self.log_values, dtype=np.float64)
            if logs.shape != vals.shape:
                raise InvalidDensityError("log_values shape must match values")
            if not logs.max() < np.inf:  # NaN fails the comparison too
                raise InvalidDensityError("log_values must be free of NaN and +inf")
            logs.flags.writeable = False
            object.__setattr__(self, "log_values", logs)

    @property
    def grid_size(self):
        return self.values.size


def uniform_prior(grid_size):
    """The flat density 1 / (2 pi), with log values attached."""
    g = validate_grid_size(grid_size)
    vals = np.full(g, 1.0 / TWO_PI)
    logs = np.full(g, -LOG_TWO_PI)
    return CircularDensity(vals, logs)


@functools.lru_cache(maxsize=4)
def _twiddles(grid_size, sub_length):
    """exp(i m phi_q) for q < G / L and m <= L / 2, read-only, shape (Q, L/2 + 1)."""
    q = np.arange(grid_size // sub_length)[:, None]
    m = np.arange(sub_length // 2 + 1)
    tw = np.exp(1j * (TWO_PI * (q * m % grid_size) / grid_size))
    tw.flags.writeable = False
    return tw


def _canonical_values(amplitudes, grid_size):
    """|f(phi_k)|^2 / (2 pi) on the grid, in the polyphase layout (Q, L).

    Entry [q, l] is node k = q + Q l.  The subgrid length L is the smallest
    power of two >= 2 (N + 1) and >= 256, capped at G, and Q = G / L.  From
    the lags r_m = sum_n c_{n+m} conj(c_n), m = -N .. N, row q is the real
    inverse FFT of length L of r_m exp(i m phi_q), all Q rows in one batch.
    Lags m >= L/2 occur only when L = G (Q = 1, no twiddle) and alias onto
    the Hermitian half spectrum at G - m as conj(r_m).  May round below zero.
    """
    n = amplitudes.size
    _require_grid_room(grid_size, n)
    sub = min(grid_size, max(256, 1 << (2 * n - 1).bit_length()))
    lags = np.correlate(amplitudes, amplitudes, "full")[n - 1 :] / TWO_PI
    tw = _twiddles(grid_size, sub)
    half = np.zeros(tw.shape, dtype=np.complex128)
    kept = min(n, sub // 2 + 1)
    np.multiply(tw[:, :kept], lags[:kept], out=half[:, :kept])
    if n > sub // 2:
        folded = np.arange(sub // 2, n)
        half[0, sub - folded] += np.conj(lags[folded])
    return np.fft.irfft(half, n=sub, norm="forward")


def canonical_density(state, grid_size):
    """Canonical measurement density of a state on the uniform grid.

    P(phi) = |sum_n c_n exp(i n phi)|^2 / (2 pi), from the batched real
    inverse FFTs of the amplitudes' autocorrelation in ``_canonical_values``,
    reordered from its polyphase layout to node order.  These can round to
    tiny negatives where P vanishes; a maximum with zero makes the values
    safe to rely on.  A grid with fewer nodes than amplitudes raises
    InvalidStateError.
    """
    g = validate_grid_size(grid_size)
    values = _canonical_values(state.amplitudes, g).T.ravel()
    return CircularDensity(np.maximum(values, 0.0))


def _log_posterior(logs, state, outcomes):
    """Posterior from log prior values ``logs`` (updated in place) and outcomes.

    The likelihoods come from the FFT kernel, one batched transform per chunk
    of ``_OUTCOME_CHUNK`` outcomes; their logs are added in outcome order and
    the sum is normalized once, so hundreds of sharp updates cannot
    underflow.  Raises ConfigurationError at the first non-finite outcome,
    before any transform, and DegeneratePosteriorError at the first outcome
    that leaves no mass at any node.
    """
    bad = np.flatnonzero(~np.isfinite(outcomes))
    if bad.size:
        raise ConfigurationError("outcome index %d is not finite: %s" % (bad[0], outcomes[bad[0]]))
    for start in range(0, outcomes.size, _OUTCOME_CHUNK):
        chunk = outcomes[start : start + _OUTCOME_CHUNK]
        with np.errstate(divide="ignore"):
            loglikes = np.log(_likelihood_rows(state.amplitudes, chunk, logs.size))
        for j, loglike in enumerate(loglikes, start):
            logs += loglike
            if not np.isfinite(np.max(logs)):
                raise DegeneratePosteriorError(
                    "posterior mass vanished at every grid node after outcome "
                    "index %d (value %.17g)" % (j, float(outcomes[j]))
                )
    logs -= np.max(logs)
    w = np.exp(logs)
    total = float(w.sum()) * TWO_PI / w.size
    return CircularDensity(w / total, logs - np.log(total))


def posterior_update(prior, state, outcome):
    """One Bayesian update of a phase density by a canonical outcome.

    The likelihood of outcome x given phase theta is the canonical density
    of ``state`` at x - theta, and the update is the log-space accumulation
    of :func:`posterior_from_outcomes` over one outcome.  A prior without
    log values enters through the log of its values.

    Raises
    ------
    ConfigurationError
        If the outcome is NaN or infinite.
    DegeneratePosteriorError
        If the updated density has zero mass at every node.  The message
        names the outcome that caused it.
    """
    with np.errstate(divide="ignore"):
        logs = np.log(prior.values) if prior.log_values is None else prior.log_values.copy()
    return _log_posterior(logs, state, np.array([float(outcome)]))


def posterior_from_outcomes(state, outcomes, grid_size):
    """Posterior after a whole outcome sequence, from a uniform prior.

    The log-likelihoods of the outcomes are summed in outcome order and
    normalized once, so hundreds of sharp updates cannot underflow; an
    empty sequence gives the uniform prior.
    """
    g = validate_grid_size(grid_size)
    outcomes = np.ravel(np.asarray(outcomes, dtype=np.float64))
    return _log_posterior(np.full(g, -LOG_TWO_PI), state, outcomes)


def _plogp(p):
    """Node sum of p log p, and log p, with log p = 0 at nodes of mass <= 1e-300.

    ``p`` may be a node-ordered density or the (Q, L) polyphase layout.
    """
    logp = np.log(p, out=np.zeros(p.shape), where=p > _MASS_FLOOR)
    return float((p * logp).sum()), logp


def entropy(density):
    """Differential entropy in nats, by the periodic midpoint rule.

    Integrand convention: nodes with mass below 1e-300 contribute zero, the
    continuous-limit value of p log p.
    """
    p = density.values
    return -_plogp(p)[0] * TWO_PI / p.size


def mutual_information_single(state, grid_size=4096):
    """Information (nats) one canonical measurement carries about a uniform phase.

    Covariance of the measurement makes this log(2 pi) minus the entropy of
    the state's canonical density; no average over true phases is needed.
    Clamped at zero against rounding, since the uniform prior is the entropy
    maximizer.
    """
    value = LOG_TWO_PI - entropy(canonical_density(state, grid_size))
    return value if value > 0.0 else 0.0


def fisher_information(state, grid_size=4096):
    """Fisher information of the canonical measurement about the phase shift.

    F = integral of P'(phi)^2 / P(phi).  At isolated zeros of P the integrand
    extends continuously to 4 |f'(phi)|^2 / (2 pi) with f the phase amplitude;
    nodes where P falls below 1e-14 use that limit form, which keeps the
    quadrature spectrally accurate through the zeros.
    """
    g = validate_grid_size(grid_size)
    fvals = phase_amplitude_grid(state, g)
    n = np.arange(state.dim)
    fprime = np.fft.ifft(1j * n * state.amplitudes, n=g, norm="forward")
    p = np.abs(fvals) ** 2 / TWO_PI
    pprime = 2.0 * np.real(np.conj(fvals) * fprime) / TWO_PI
    limit_form = 4.0 * np.abs(fprime) ** 2 / TWO_PI
    safe = np.where(p > _FISHER_FLOOR, p, 1.0)
    integrand = np.where(p > _FISHER_FLOOR, pprime**2 / safe, limit_form)
    value = float(integrand.sum()) * TWO_PI / g
    return value if value > 0.0 else 0.0


@dataclass(frozen=True)
class CircularMoments:
    """First trigonometric moment summaries of a circular density."""

    mean_resultant_length: float
    mean_direction: float
    circular_variance: float
    holevo_variance: float


def circular_moments(density):
    """Mean resultant length, mean direction, and the derived variances.

    The Holevo phase variance 1/R^2 - 1 diverges as the density flattens;
    below R = 1e-12 it is reported as +inf, which pairs with the zero
    information of such densities instead of poisoning downstream arithmetic.
    """
    p = density.values
    z1 = complex(np.sum(p * _unit_circle(p.size))) * TWO_PI / p.size
    r = min(abs(z1), 1.0)
    direction = float(np.mod(np.angle(z1), TWO_PI)) if r > 0.0 else 0.0
    if direction >= TWO_PI:
        # mod of a tiny negative angle can round up to exactly 2 pi
        direction = 0.0
    if r < 1e-12:
        holevo = np.inf
    else:
        holevo = max(1.0 / r**2 - 1.0, 0.0)
    return CircularMoments(
        mean_resultant_length=r,
        mean_direction=direction,
        circular_variance=1.0 - r,
        holevo_variance=float(holevo),
    )


@dataclass(frozen=True)
class InformationReport:
    """Information summary of one state's canonical measurement.

    All entries are in nats (or dimensionless for the moment-derived
    fields).  ``holevo_variance`` may be +inf; everything else is finite.
    """

    entropy: float
    mutual_information: float
    fisher_information: float
    mean_resultant_length: float
    circular_variance: float
    holevo_variance: float

    def to_dict(self):
        return asdict(self)


def information_report(state, grid_size=4096):
    """Evaluate every single-measurement functional on one shared density."""
    density = canonical_density(state, grid_size)
    h = entropy(density)
    info = LOG_TWO_PI - h
    moments = circular_moments(density)
    return InformationReport(
        entropy=h,
        mutual_information=info if info > 0.0 else 0.0,
        fisher_information=fisher_information(state, grid_size),
        mean_resultant_length=moments.mean_resultant_length,
        circular_variance=moments.circular_variance,
        holevo_variance=moments.holevo_variance,
    )
