"""Canonical phase measurement: outcome likelihood and simulation.

The canonical measurement of a truncated state has outcome density

    P(x | theta) = |sum_n c_n exp(i n (x - theta))|^2 / (2 pi),

a covariant family: only the offset x - theta matters.  Sampling inverts the
piecewise-linear CDF built from the density on a uniform grid; within a grid
cell the density is taken constant, so the interpolated draw is exactly
uniform inside the cell and the estimator built on these draws is unbiased
for the gridded density.
"""

from dataclasses import dataclass

import numpy as np

from .circular import _wrap_phase, validate_grid_size
from .errors import ConfigurationError
from .states import TWO_PI, _likelihood_rows, _require_integer, phase_amplitude

__all__ = [
    "likelihood_density",
    "MeasurementRecord",
    "sample_outcomes",
    "record_to_dict",
    "save_record",
]


def likelihood_density(state, delta):
    """Outcome density at offset delta = x - theta (scalar or array).

    Periodic with period 2 pi; inputs are reduced modulo 2 pi before use so
    huge arguments lose no precision inside the complex exponentials.  NaN
    or +-inf raises ``ConfigurationError``.
    """
    delta = np.asarray(delta, dtype=np.float64)
    if not np.all(np.isfinite(delta)):
        raise ConfigurationError("delta must be finite")
    amp = phase_amplitude(state, np.mod(delta, TWO_PI))
    return np.abs(amp) ** 2 / TWO_PI


@dataclass(frozen=True)
class MeasurementRecord:
    """Outcomes of repeated canonical measurements at one true phase.

    ``true_phase`` must be finite and is stored reduced to [0, 2 pi);
    ``outcomes`` is read-only and every entry lies in [0, 2 pi), so NaN is
    refused; ``seed`` must be an integer >= 0.
    """

    true_phase: float
    outcomes: np.ndarray
    seed: int

    def __post_init__(self):
        if not np.isfinite(self.true_phase):
            raise ConfigurationError("true_phase must be finite, got %r" % (self.true_phase,))
        object.__setattr__(self, "true_phase", _wrap_phase(self.true_phase))
        outs = np.asarray(self.outcomes, dtype=np.float64)
        if outs.ndim != 1 or outs.size == 0:
            raise ConfigurationError("outcomes must form a non-empty 1-d array")
        if not np.all((outs >= 0.0) & (outs < TWO_PI)):
            raise ConfigurationError("outcomes must lie in [0, 2 pi)")
        outs = outs.copy()
        outs.flags.writeable = False
        object.__setattr__(self, "outcomes", outs)
        object.__setattr__(self, "seed", _require_integer(self.seed, "seed", 0))

    @property
    def count(self):
        return self.outcomes.size


def _draw_outcomes(state, true_phase, count, rng, grid_size):
    """Inverse-CDF draws from the gridded outcome density, given an RNG.

    The density table comes from the FFT kernel that the posterior applies
    in fixed-size outcome chunks, here as one row at ``true_phase`` of the
    conjugated amplitudes, which gives |f(phi_k - true_phase)|^2 / (2 pi).
    The RNG supplies exactly ``count`` uniforms.
    """
    g = validate_grid_size(grid_size)
    density = _likelihood_rows(np.conj(state.amplitudes), [true_phase], g)[0]
    cdf = np.concatenate(([0.0], np.cumsum(density) * TWO_PI / g))
    cdf /= cdf[-1]
    u = rng.random(count)
    idx = np.searchsorted(cdf, u, side="right") - 1
    # cdf rises from exactly 0 to exactly 1 and u lies in [0, 1), so
    # cdf[idx] <= u < cdf[idx + 1]: idx is a cell and its mass is positive.
    frac = (u - cdf[idx]) / (cdf[idx + 1] - cdf[idx])
    return np.mod(TWO_PI * idx / g + frac * (TWO_PI / g), TWO_PI)


def sample_outcomes(state, true_phase, count, seed, grid_size=4096):
    """Simulate ``count`` canonical outcomes at a fixed true phase.

    Parameters
    ----------
    state : StateVector
    true_phase : float
        True phase in radians (any finite real; reduced mod 2 pi).
    count : int
        Number of outcomes, an integer of at least 1.
    seed : int
        Seeds a fresh PCG64 generator, an integer >= 0; identical arguments
        give identical records.
    grid_size : int
        Resolution of the inverse-CDF table.

    Returns
    -------
    MeasurementRecord
    """
    count = _require_integer(count, "count", 1, sized=True)
    seed = _require_integer(seed, "seed", 0)
    if not np.isfinite(true_phase):
        raise ConfigurationError("true_phase must be finite, got %r" % (true_phase,))
    rng = np.random.default_rng(seed)
    outs = _draw_outcomes(state, float(true_phase), count, rng, grid_size)
    return MeasurementRecord(true_phase=float(true_phase), outcomes=outs, seed=seed)


def record_to_dict(record):
    """JSON-ready mapping: {"true_phase": ..., "outcomes": [...], "seed": ...}."""
    return {
        "true_phase": float(record.true_phase),
        "outcomes": record.outcomes.tolist(),
        "seed": int(record.seed),
    }


def save_record(record, path):
    from .serialize import dumps_json

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_json(record_to_dict(record)))
