"""Feasibility auditing for software-defect-prediction models.

Given a binary defect predictor's confusion counts (or per-module records),
this toolkit models the hidden failures among predicted-clean modules as a
binomial count, combines them with a power-law residual hazard, evaluates the
deviation bounds comparing SDP-tested against manually tested software, and
audits every bound against exact tail probabilities, reporting seeded Monte
Carlo estimates beside them.

The package root re-exports the library surface shown in the README; every
other public name is imported from its submodule (``sdpbounds.report``,
``sdpbounds.ingest``, ...).
"""

__version__ = "0.3.0"

from .bounds import hazard_shortfall_bound, reference_chernoff_bound, reliability_excess_bound
from .failures import FailurePopulation, binomial_cdf_below
from .hazards import CombinedHazardModel, WeibullParams
from .montecarlo import audit_bound, estimate_tail_probability

__all__ = [
    "__version__",
    "FailurePopulation",
    "WeibullParams",
    "CombinedHazardModel",
    "binomial_cdf_below",
    "hazard_shortfall_bound",
    "reliability_excess_bound",
    "reference_chernoff_bound",
    "audit_bound",
    "estimate_tail_probability",
]
