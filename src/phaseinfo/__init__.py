"""Bayesian information analysis of canonical optical phase measurement.

The package answers one question at several levels of effort: how much
Shannon information about an unknown phase does the canonical measurement of
a photon-number-limited state deliver?

* :mod:`phaseinfo.states` builds and validates truncated number-basis states.
* :mod:`phaseinfo.measurement` evaluates and samples the outcome likelihood.
* :mod:`phaseinfo.circular` holds circle densities, Bayesian updates, and the
  information functionals (entropy, mutual information, Fisher, moments).
* :mod:`phaseinfo.optimizer` maximizes single-measurement information over
  states at a fixed photon cutoff.
* :mod:`phaseinfo.bounds` brackets the information of M repeated
  measurements (Monte Carlo, chain bound, large-M asymptote).
* :mod:`phaseinfo.cli` exposes all of it as `phaseinfo` subcommands.
"""

from .bounds import (
    BoundReport,
    asymptotic_information,
    bound_report,
    chain_upper_bound,
    monte_carlo_information,
)
from .circular import (
    LOG_TWO_PI,
    CircularDensity,
    CircularMoments,
    InformationReport,
    canonical_density,
    circular_moments,
    entropy,
    fisher_information,
    grid_angles,
    information_report,
    mutual_information_single,
    posterior_from_outcomes,
    posterior_update,
    uniform_prior,
    validate_grid_size,
)
from .errors import (
    ConfigurationError,
    DegeneratePosteriorError,
    InvalidDensityError,
    InvalidStateError,
    PhaseinfoError,
    UndefinedAsymptoteError,
)
from .measurement import (
    MeasurementRecord,
    likelihood_density,
    record_to_dict,
    sample_outcomes,
    save_record,
)
from .optimizer import (
    OptimizationResult,
    OptimizerConfig,
    SweepPoint,
    bound_sweep,
    gauge_fix,
    objective_gradient,
    optimize_state,
    tangent_project,
)
from .serialize import dumps_json, format_float
from .states import (
    NORM_TOL,
    TWO_PI,
    StateVector,
    fock_state,
    gauge_transform,
    load_state,
    normalize,
    phase_amplitude,
    phase_amplitude_grid,
    random_state,
    save_state,
    sine_state,
    state_from_dict,
    state_to_dict,
)

__version__ = "0.1.0"

__all__ = [
    "TWO_PI",
    "LOG_TWO_PI",
    "NORM_TOL",
    "PhaseinfoError",
    "InvalidStateError",
    "InvalidDensityError",
    "ConfigurationError",
    "DegeneratePosteriorError",
    "UndefinedAsymptoteError",
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
    "CircularDensity",
    "CircularMoments",
    "InformationReport",
    "grid_angles",
    "validate_grid_size",
    "uniform_prior",
    "canonical_density",
    "posterior_update",
    "posterior_from_outcomes",
    "entropy",
    "mutual_information_single",
    "fisher_information",
    "circular_moments",
    "information_report",
    "MeasurementRecord",
    "likelihood_density",
    "sample_outcomes",
    "record_to_dict",
    "save_record",
    "OptimizerConfig",
    "OptimizationResult",
    "SweepPoint",
    "objective_gradient",
    "tangent_project",
    "gauge_fix",
    "optimize_state",
    "bound_sweep",
    "format_float",
    "dumps_json",
    "BoundReport",
    "chain_upper_bound",
    "asymptotic_information",
    "monte_carlo_information",
    "bound_report",
]
