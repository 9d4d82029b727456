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

from . import bounds, circular, errors, measurement, optimizer, serialize, states
from .bounds import *
from .circular import *
from .errors import *
from .measurement import *
from .optimizer import *
from .serialize import *
from .states import *

__version__ = "0.1.0"

__all__ = (
    states.__all__
    + circular.__all__
    + errors.__all__
    + measurement.__all__
    + optimizer.__all__
    + serialize.__all__
    + bounds.__all__
)
