"""Information bounds for M repeated canonical measurements of one state.

Three quantities bracket the expected information of the M-outcome
posterior:

* a Monte Carlo estimate: draw a true phase uniformly, simulate M outcomes,
  measure the entropy drop of the exact gridded posterior, average over
  independent trials;
* the chain bound M * I_1, from subadditivity of information across
  outcomes;
* the large-M asymptote log(2 pi) + (1/2) log(M F / (2 pi e)) with F the
  Fisher information, which the Monte Carlo curve approaches from below.

A caution on ranges: once M * F exceeds 2 pi e, the asymptote (and the true
expected information) passes log(2 pi), because the posterior's differential
entropy turns negative while the prior's stays at log(2 pi).  Differential
information against a continuous prior is bounded by no constant, so reports
deliberately do not clip at log(2 pi).  The bound that does hold is the
Holevo bound H(p^{*M}): the entropy of the total photon number of the M
copies, whose distribution is the M-fold convolution of p_n = |c_n|^2.  It is
the entropy of the phase-averaged M-mode state, and at M = 1 it reduces to
H(p) <= log(N + 1).
"""

import functools
from dataclasses import asdict, dataclass

import numpy as np

from . import _pool
from .circular import (
    LOG_TWO_PI,
    entropy,
    fisher_information,
    mutual_information_single,
    posterior_from_outcomes,
    validate_grid_size,
)
from .errors import (
    ConfigurationError,
    DegeneratePosteriorError,
    UndefinedAsymptoteError,
)
from .measurement import _draw_outcomes
from .states import TWO_PI, _require_integer

__all__ = [
    "chain_upper_bound",
    "asymptotic_information",
    "monte_carlo_information",
    "BoundReport",
    "bound_report",
]

# Quadrature slack allowed when checking the Monte Carlo mean against the
# chain bound: deterministic grid bias of order 1e-11 can exceed 3 sigma
# when the stderr itself is tiny.
_CHAIN_SLACK = 1e-9


def chain_upper_bound(state, modes, grid_size=4096):
    """Subadditivity bound: M measurements carry at most M * I_1 nats."""
    m = _require_integer(modes, "modes", 1)
    return m * mutual_information_single(state, grid_size)


def asymptotic_information(fisher, modes):
    """Large-sample information log(2 pi) + (1/2) log(M F / (2 pi e)).

    Raises
    ------
    UndefinedAsymptoteError
        If ``fisher`` is not strictly positive; a measurement with no Fisher
        information has no Gaussian large-sample limit.
    """
    m = _require_integer(modes, "modes", 1)
    fisher = float(fisher)
    if not fisher > 0.0:
        raise UndefinedAsymptoteError(
            "asymptote needs positive Fisher information, got %r" % (fisher,)
        )
    return LOG_TWO_PI + 0.5 * float(np.log(m * fisher / (TWO_PI * np.e)))


def _trial(state, modes, grid_size, seed, t):
    """Trial t of :func:`monte_carlo_information`: its information gain."""
    # The t-th child that SeedSequence(seed).spawn would give.
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(t,)))
    true_phase = TWO_PI * rng.random()
    outcomes = _draw_outcomes(state, true_phase, modes, rng, grid_size)
    try:
        posterior = posterior_from_outcomes(state, outcomes, grid_size)
    except DegeneratePosteriorError as exc:
        raise DegeneratePosteriorError("trial %d: %s" % (t, exc)) from exc
    # The uniform prior maximizes entropy, so a negative gain is rounding.
    return max(LOG_TWO_PI - entropy(posterior), 0.0)


def _require_run(modes, trials, seed, grid_size):
    """Checked (modes, trials, seed, grid size) of :func:`monte_carlo_information`."""
    m = _require_integer(modes, "modes", 1)
    g = validate_grid_size(grid_size)
    trials = _require_integer(trials, "trials", 2, sized=True)
    seed = _require_integer(seed, "seed", 0)
    if m > g // 16:
        raise ConfigurationError(
            "modes = %d too large for grid %d: posterior width ~ 1/sqrt(M F) "
            "needs M <= grid/16 to stay resolved" % (m, g)
        )
    return m, trials, seed, g


def monte_carlo_information(state, modes, trials, seed=0, grid_size=4096):
    """Monte Carlo estimate of the expected M-outcome information gain.

    Each trial draws a true phase uniformly, simulates ``modes`` canonical
    outcomes, forms the exact posterior on the grid (in log space), and
    records log(2 pi) minus the posterior entropy, clamped at zero against
    rounding.  Trial t consumes the t-th spawned substream of ``seed``, so
    the estimate is deterministic and independent of trial ordering.  The
    trials run on every CPU the process may use; the result is the same
    bytes for any CPU count and any schedule.

    Returns
    -------
    (mean, stderr) : tuple of float
        Sample mean and standard error (ddof = 1) over trials.

    Raises
    ------
    ConfigurationError
        If ``trials`` is not an integer of at least 2, the fewest that give
        a stderr, or ``seed`` is not an integer >= 0.  If ``modes`` exceeds
        grid_size / 16: posteriors then sharpen beyond what the grid
        resolves and the entropy quadrature degrades, so the run is refused
        rather than silently biased.
    DegeneratePosteriorError
        Propagated from any trial, tagged with the trial index.
    """
    m, trials, seed, g = _require_run(modes, trials, seed, grid_size)
    trial = functools.partial(_trial, state, m, g, seed)
    # Through the module, not bound by name: a trace then charges the wait for
    # the trials to this layer, while perfbench's tracer would wrap a by-name
    # binding into a _pool layer that it does not have, and fail.
    values = np.array(_pool._fan_out(trial, range(trials)), dtype=np.float64)
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / np.sqrt(values.size))
    return mean, stderr


@dataclass(frozen=True)
class BoundReport:
    """All bound quantities for one (state, M) pair.

    Construction enforces internal consistency: every number but an absent
    asymptote is finite, the chain bound matches modes times the
    single-measurement information, the Monte Carlo mean does not exceed
    the chain bound beyond 3 sigma plus quadrature slack, and the asymptote
    is present exactly when Fisher information is.  The Monte Carlo mean is
    allowed above log(2 pi): see the module docstring.
    """

    modes: int
    mc_information: float
    mc_stderr: float
    mc_trials: int
    chain_upper_bound: float
    asymptotic_value: float | None
    fisher: float
    single_info: float

    def __post_init__(self):
        _require_integer(self.modes, "modes", 1)
        _require_integer(self.mc_trials, "mc_trials", 2)
        for name in ("mc_stderr", "fisher", "single_info"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ConfigurationError("%s must be finite and nonnegative" % name)
        for name in ("mc_information", "chain_upper_bound", "asymptotic_value"):
            value = getattr(self, name)
            if not (value is None and name == "asymptotic_value" or np.isfinite(value)):
                raise ConfigurationError("%s must be finite" % name)
        expected_chain = self.modes * self.single_info
        if abs(self.chain_upper_bound - expected_chain) > 1e-9:
            raise ConfigurationError(
                "chain bound %.17g inconsistent with modes * single_info = %.17g"
                % (self.chain_upper_bound, expected_chain)
            )
        slack = 3.0 * self.mc_stderr + _CHAIN_SLACK
        if self.mc_information > self.chain_upper_bound + slack:
            raise ConfigurationError(
                "mc_information %.17g exceeds chain bound %.17g beyond 3 sigma"
                % (self.mc_information, self.chain_upper_bound)
            )
        if self.fisher > 1e-12:
            if self.asymptotic_value is None:
                raise ConfigurationError(
                    "asymptotic_value missing despite positive Fisher information"
                )
        elif self.asymptotic_value is not None:
            raise ConfigurationError(
                "asymptotic_value present despite vanishing Fisher information"
            )

    def to_dict(self):
        return asdict(self)


def bound_report(state, modes, trials=500, seed=0, grid_size=4096):
    """Evaluate every bound for one (state, M) pair; deterministic per seed."""
    m = _require_integer(modes, "modes", 1)
    # First, so bad trials, seed or modes are refused before any grid work.
    mc_mean, mc_stderr = monte_carlo_information(
        state, m, trials, seed=seed, grid_size=grid_size
    )
    single = mutual_information_single(state, grid_size)
    fisher = fisher_information(state, grid_size)
    asym = asymptotic_information(fisher, m) if fisher > 1e-12 else None
    return BoundReport(
        modes=m,
        mc_information=mc_mean,
        mc_stderr=mc_stderr,
        mc_trials=int(trials),
        chain_upper_bound=m * single,
        asymptotic_value=asym,
        fisher=fisher,
        single_info=single,
    )
