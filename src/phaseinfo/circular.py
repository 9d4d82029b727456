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
(G, L), so it is built once and cached read-only like the unit circle; so is
the conjugate slice of it that the objective's gradient sums against.
"""

import functools
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    DegeneratePosteriorError,
    InvalidDensityError,
)
from .states import (
    TWO_PI,
    _likelihood_rows,
    _require_grid_room,
    _require_integer,
    phase_amplitude_grid,
)

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
# of a 4096-node grid keep the complex scratch space near 1 MB.  One real
# rows buffer of this many rows serves every chunk of a posterior, so the
# chunks fault no fresh pages in.
_OUTCOME_CHUNK = 16


def grid_angles(grid_size):
    """The uniform angle grid phi_k = 2 pi k / G, k = 0 .. G-1."""
    return TWO_PI * np.arange(grid_size) / grid_size


def _wrap_phase(x):
    """x as a float in [0, 2 pi); np.mod rounds a tiny negative x up to 2 pi."""
    x = float(np.mod(x, TWO_PI))
    return 0.0 if x >= TWO_PI else x


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
    g = _require_integer(grid_size, "grid size", 64, sized=True)
    if g & (g - 1):
        raise ConfigurationError("grid size must be a power of two >= 64, got %d" % g)
    return g


@dataclass(frozen=True)
class CircularDensity:
    """Nonnegative density on the uniform circular grid, integrating to 1.

    The public constructor copies and validates its input; posteriors the
    package builds itself are adopted without either (see ``_adopt``).

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
        if not np.all(np.isfinite(vals)):
            raise InvalidDensityError("density values must be finite")
        if vals.min() < 0.0:
            raise InvalidDensityError("density values must be nonnegative")
        # Finite values whose sum overflows fail below, without a warning.
        with np.errstate(over="ignore"):
            total = float(vals.sum()) * TWO_PI / vals.size
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

    @classmethod
    def _adopt(cls, values, log_values):
        """Wrap ``_log_posterior``'s fresh arrays read-only, without copies or checks.

        The checks cannot fail there: with a finite peak, exp(logs - peak) /
        total is finite and nonnegative, has a node at 1 / total and
        integrates to 1 to rounding, and the logs are finite or -inf.
        """
        values.flags.writeable = False
        log_values.flags.writeable = False
        density = object.__new__(cls)
        object.__setattr__(density, "values", values)
        object.__setattr__(density, "log_values", log_values)
        return density

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


def _plogp(p, weights=False):
    """Node sum of p log p, and log p, with log p = 0 at nodes of mass <= 1e-300.

    ``p`` may be a node-ordered density or the (Q, L) polyphase layout.  With no
    node at or below the floor it takes the plain log, else the log masked by
    ``where=``; both paths give the same bits at every unmasked node.  With
    ``weights`` the second array is the objective gradient's weights instead:
    1 + log p, still 0 at the masked nodes, after the sum is taken.
    """
    mask = True if p.min() > _MASS_FLOOR else p > _MASS_FLOOR
    logp = np.log(p) if mask is True else np.log(p, out=np.zeros(p.shape), where=mask)
    plogp = float((p * logp).sum())
    if weights:
        np.add(logp, 1.0, out=logp, where=mask)
    return plogp, logp


def _information(c, grid_size):
    """I_1 = log(2 pi) - H at unit amplitudes c, with the gradient weights.

    The weights 1 + log p (0 where p is masked) stay in the (Q, L) layout of
    ``_canonical_values`` for ``_information_gradient``.  I_1 >= 0 holds
    exactly, so the clamp at zero removes rounding.
    """
    plogp, weights = _plogp(_canonical_values(c, grid_size), weights=True)
    value = LOG_TWO_PI + plogp * TWO_PI / grid_size
    return (value if value > 0.0 else 0.0), weights


@functools.lru_cache(maxsize=8)
def _conjugate_twiddles(grid_size, sub_length, size):
    """conj(``_twiddles``) for m < size, read-only, shape (Q, size)."""
    tw = _twiddles(grid_size, sub_length)[:, :size].conj()
    tw.flags.writeable = False
    return tw


def _information_gradient(c, weights):
    """Wirtinger gradient d I_1 / d conj(c) from ``_information``'s weights.

    One batched real FFT of the weights along the rows of the (Q, L) layout, a
    sum of its Q rows against the conjugate twiddles, then a Toeplitz product.
    """
    # d/d(conj c_n) of the gridded objective, (1/G) sum_k w_k f_k e^{-i n phi_k}
    # with w = 1 + log P (0 at masked nodes), equals sum_j W_{(n-j) mod G} c_j
    # for W = DFT(w) / G.
    # In the (Q, L) layout W_m = (1/Q) sum_q e^{-i m phi_q} DFT_L(w[q])_m / L.
    q, sub = weights.shape
    w = np.fft.rfft(weights, norm="forward")[:, : c.size]
    w = np.einsum("qm,qm->m", w, _conjugate_twiddles(q * sub, sub, w.shape[1])) / q
    if c.size > w.size:
        # Lags past G/2 (only with Q = 1) are conjugates of their mirror images.
        w = np.concatenate((w, np.conj(w[sub - np.arange(w.size, c.size)])))
    kernel = np.concatenate((np.conj(w[:0:-1]), w))
    return np.convolve(kernel, c)[c.size - 1 : 2 * c.size - 1]


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
    """Posterior from log prior values ``logs``, left unchanged, and outcomes.

    The likelihoods come from the FFT kernel, one batched transform per chunk
    of ``_OUTCOME_CHUNK`` outcomes into one rows buffer for the whole call;
    their logs are added in outcome order and the sum is normalized once,
    so hundreds of sharp updates cannot underflow.  The result adopts the
    fresh arrays built here.  Raises ConfigurationError at the first
    non-finite outcome, before any transform, and DegeneratePosteriorError
    at the first outcome that leaves no mass at any node.  That is checked
    once per chunk: a node dies at its first -inf row, or at the chunk's first
    outcome if it was dead before the chunk, and the last node to die names
    the outcome.
    """
    if not np.isfinite(outcomes).all():
        bad = np.flatnonzero(~np.isfinite(outcomes))[0]
        raise ConfigurationError("outcome index %d is not finite: %s" % (bad, outcomes[bad]))
    rows = np.empty((min(outcomes.size, _OUTCOME_CHUNK), logs.size))
    for start in range(0, outcomes.size, _OUTCOME_CHUNK):
        chunk = outcomes[start : start + _OUTCOME_CHUNK]
        loglikes = _likelihood_rows(state.amplitudes, chunk, logs.size, out=rows[: chunk.size])
        with np.errstate(divide="ignore"):
            np.log(loglikes, out=loglikes)
        before, logs = logs, logs + loglikes[0]
        for loglike in loglikes[1:]:
            np.add(logs, loglike, out=logs)
        peak = logs.max()
        if not np.isfinite(peak):
            dead = np.where(np.isneginf(before), 0, np.isneginf(loglikes).argmax(axis=0))
            j = start + int(dead.max())
            raise DegeneratePosteriorError(
                "posterior mass vanished at every grid node after outcome "
                "index %d (value %.17g)" % (j, float(outcomes[j]))
            )
    logs = logs - (peak if outcomes.size else logs.max())
    w = np.exp(logs)
    total = float(w.sum()) * TWO_PI / w.size
    w /= total
    logs -= np.log(total)
    return CircularDensity._adopt(w, logs)


def posterior_update(prior, state, outcome):
    """One Bayesian update of a phase density by a canonical outcome.

    The likelihood of outcome x given phase theta is the canonical density
    of ``state`` at x - theta, and the update is the log-space accumulation
    of :func:`posterior_from_outcomes` over one outcome.  The prior's log
    values are read without a copy; a prior without them enters through the
    log of its values.

    Raises
    ------
    ConfigurationError
        If the outcome is NaN or infinite.
    DegeneratePosteriorError
        If the updated density has zero mass at every node.  The message
        names the outcome that caused it.
    """
    logs = prior.log_values
    if logs is None:
        with np.errstate(divide="ignore"):
            logs = np.log(prior.values)
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
    maximizer.  Summed in the polyphase layout by ``_information``.
    """
    return _information(state.amplitudes, validate_grid_size(grid_size))[0]


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
    integrand = 4.0 * np.abs(fprime) ** 2 / TWO_PI
    np.divide(pprime**2, p, out=integrand, where=p > _FISHER_FLOOR)
    return float(integrand.sum()) * TWO_PI / g


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
    direction = _wrap_phase(np.arctan2(z1.imag, z1.real)) if r > 0.0 else 0.0
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
