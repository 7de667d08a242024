"""Deviation bounds comparing SDP-tested and manually tested software.

Two bound constructions are evaluated, both driven by the same lower-tail
concentration inequality for a Bernoulli sum, Pr[X < (1-delta)*mu] <
exp(-mu*delta**2/2) for 0 < delta <= 1:

* the hazard-comparison bound on Pr[combined hazard < manual hazard], which
  substitutes the *combined* expectation l*p + K_hat*t**m_hat for mu, and
* the reliability-comparison bound on Pr[SDP reliability > manual
  reliability], which substitutes the closed-form expected-reliability proxy.

Both substitutions are evaluated verbatim, with domain-validity flags, for the
auditor to compare against exact tail probabilities; the textbook mean mu = l*p
gives an independent reference.  All three bounds share one exponent rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .failures import FailurePopulation
from .hazards import (
    SIGN_CORRECTED,
    CombinedHazardModel,
    WeibullParams,
    expected_sdp_reliability_bound,
    weibull_average_hazard,
    weibull_hazard,
)

__all__ = [
    "FLAG_DELTA_IN_RANGE",
    "FLAG_DELTA_BOUNDARY",
    "FLAG_THRESHOLD_POSITIVE",
    "FLAG_THRESHOLD_BELOW_MU",
    "FLAG_VACUOUS",
    "BoundReport",
    "chernoff_lower_tail",
    "reliability_event_threshold",
    "hazard_shortfall_bound",
    "reliability_excess_bound",
    "reference_chernoff_bound",
]

# Domain-validity flags carried by every BoundReport.
FLAG_DELTA_IN_RANGE = "delta_in_range"  # 0 < delta <= 1, the inequality's stated range
FLAG_DELTA_BOUNDARY = "delta_boundary"  # delta exactly 0 or exactly 1
FLAG_THRESHOLD_POSITIVE = "threshold_positive"  # event cutoff > 0, event non-trivial
FLAG_THRESHOLD_BELOW_MU = "threshold_below_mu"  # cutoff below the substituted mean
FLAG_VACUOUS = "vacuous"  # bound >= 1 carries no information


@dataclass(frozen=True)
class BoundReport:
    """One bound evaluation: cutoff, delta, substituted mean, value, flags.

    ``bound`` is always exp(log_bound); the log form is the primary value so
    that deeply negative exponents survive serialization even after ``bound``
    underflows to 0.  ``exact_probability`` is set when the event is known to
    be impossible (cutoff <= 0 while X >= 0), in which case the formula value
    is still recorded for comparison.
    """

    event_threshold: float
    delta: float
    mu_used: float
    log_bound: float
    bound: float
    domain_flags: frozenset
    exact_probability: Optional[float] = None
    notes: Tuple[str, ...] = ()

    def has_flag(self, flag: str) -> bool:
        return flag in self.domain_flags


def chernoff_lower_tail(mu: float, delta: float) -> float:
    """Lower-tail bound exp(-mu*delta**2/2) for a Bernoulli sum with mean mu.

    The inequality is stated for 0 < delta <= 1; out-of-range delta is the
    caller's responsibility to flag (see the report constructors).
    """
    if not (mu > 0.0):
        raise ValueError(f"mu must be > 0, got {mu}")
    return math.exp(-mu * delta * delta / 2.0)


def reliability_event_threshold(manual: WeibullParams, residual: WeibullParams, t: float) -> float:
    """Cutoff c in Pr[X < c] for the reliability comparison.

    Dividing the cumulative-hazard comparison by t gives
    K*t**m/(m+1) - K_hat*t**m_hat/(m_hat+1).
    """
    return weibull_average_hazard(manual, t) - weibull_average_hazard(residual, t)


def _domain_flags(threshold: float, mu: float, log_bound: float) -> List[str]:
    """Validity flags from the cutoff/mean geometry, in sorted order.

    delta = 1 - threshold/mu, so 0 < delta <= 1 is exactly 0 <= threshold < mu
    and the boundaries delta in {0, 1} are threshold in {mu, 0}.  The flags are
    computed on the threshold side because the division can round delta to
    exactly 1.0 when |threshold| is many orders below mu, which would
    misclassify impossible events as in-range.
    """
    flags = []
    if threshold == 0.0 or threshold == mu:
        flags.append(FLAG_DELTA_BOUNDARY)
    if 0.0 <= threshold < mu:
        flags.append(FLAG_DELTA_IN_RANGE)
    if threshold < mu:
        flags.append(FLAG_THRESHOLD_BELOW_MU)
    if threshold > 0.0:
        flags.append(FLAG_THRESHOLD_POSITIVE)
    if log_bound >= 0.0:
        flags.append(FLAG_VACUOUS)
    return flags


def _fields(threshold: float, mu: float, log_bound: Optional[float] = None,
            delta: Optional[float] = None, notes: Tuple[str, ...] = ()) -> Dict[str, object]:
    """The BoundReport fields of the bound on Pr[X < threshold] with mean mu, flags and notes as lists.

    delta defaults to 1 - threshold/mu, and log_bound to the textbook exponent -mu*delta**2/2, which is
    -(mu - threshold)**2/(2*mu), the rule of all three bounds (0 where threshold >= mu: with the bulk of
    the distribution inside the event only the trivial bound holds).
    """
    if delta is None:
        delta = 1.0 - threshold / mu
    if log_bound is None:
        log_bound = 0.0 if threshold >= mu else _cutoff_exponent(threshold, mu)
    return {
        "event_threshold": threshold,
        "delta": delta,
        "mu_used": mu,
        "log_bound": log_bound,
        "bound": math.exp(log_bound),
        "domain_flags": _domain_flags(threshold, mu, log_bound),
        "exact_probability": 0.0 if threshold <= 0.0 else None,
        "notes": list(notes),
    }


def _bound_report(fields: Dict[str, object]) -> BoundReport:
    return BoundReport(**{**fields, "domain_flags": frozenset(fields["domain_flags"]), "notes": tuple(fields["notes"])})


def _gap_exponent(gap: float, mu: float) -> float:
    """-gap**2 / (2*mu) for mu > 0, the exponent of all three bounds: never positive, never raising.

    Where gap**2 is not a normal, finite double or 2*mu is infinite, a quotient comes first, keeping full precision."""
    square, two_mu = gap * gap, 2.0 * mu
    if two_mu == math.inf:
        return -(gap / mu) * (gap / 2.0)
    return -square / two_mu if 2.0 ** -1022 <= square < math.inf else -(gap / two_mu) * gap


def _cutoff_exponent(threshold: float, mu: float) -> float:
    """_gap_exponent of mu - threshold for mu > 0; where that gap overflows, halves of both, times 4, keep its bits."""
    gap = mu - threshold
    return _gap_exponent(gap, mu) if gap < math.inf else 4.0 * _gap_exponent(0.5 * mu - 0.5 * threshold, mu)


def _hazard_fields(lp: float, manual_hazard: float, residual_hazard: float, t: float) -> Dict[str, object]:
    """hazard_shortfall_bound's fields from l*p and the two hazards at t."""
    mu = residual_hazard + lp
    if 2.0 * mu == math.inf:
        raise ValueError(f"hazard bound 2 * (K_hat * t**m_hat + l*p) overflows at time t={t}")
    numerator = lp - manual_hazard + 2.0 * residual_hazard
    return _fields(manual_hazard - residual_hazard, mu, _gap_exponent(numerator, mu))


def hazard_shortfall_bound(
    pop: FailurePopulation,
    manual: WeibullParams,
    residual: WeibullParams,
    t: float,
) -> BoundReport:
    """Bound on Pr[X + K_hat*t**m_hat < K*t**m], the SDP-tested system showing
    fewer instantaneous hazards than the manually tested one at time t.

    With A = K_hat*t**m_hat, B = K*t**m and mu = A + l*p the closed form is
    exp(-(l*p - B + 2*A)**2 / (2*mu)), by the exponent rule of all three bounds.
    A 2*mu beyond double range, which would read inf/inf, is a domain error.
    """
    return _bound_report(_hazard_fields(pop.l * pop.p, weibull_hazard(manual, t), weibull_hazard(residual, t), t))


def _reliability_fields(threshold: float, mu: float, mode: str) -> Dict[str, object]:
    """reliability_excess_bound's fields from the reliability cutoff and the mode's proxy mu."""
    notes = (
        f"expectation proxy mode: {mode}",
        "count-scale cutoff compared against a reliability-scale mean",
    )
    if mu > 0.0:
        return _fields(threshold, mu, _cutoff_exponent(threshold, mu), notes=notes)
    # exp underflow: proxy rounded to 0; the limit of the formula applies.
    delta = -math.inf if threshold > 0.0 else (math.inf if threshold < 0.0 else 1.0)
    log_bound = -0.0 if threshold == 0.0 else -math.inf
    return _fields(threshold, mu, log_bound, delta, notes + ("expectation proxy underflowed double precision",))


def reliability_excess_bound(
    pop: FailurePopulation,
    manual: WeibullParams,
    residual: WeibullParams,
    t: float,
    mode: str = SIGN_CORRECTED,
) -> BoundReport:
    """Bound on Pr[SDP reliability > manual reliability] at time t.

    The event rewrites to Pr[X < c] with c = K*t**m/(m+1) -
    K_hat*t**m_hat/(m_hat+1); the substituted mean is the closed-form
    expected-reliability proxy in the requested mode, and the simplified value
    is exp(-(mu - c)**2 / (2*mu)), by the exponent rule of all three bounds.

    Note the scale mismatch recorded on the report: c is a defect-count cutoff
    while the proxy mu lives on the reliability scale.  The construction is
    evaluated verbatim and left to the auditor.
    """
    threshold = reliability_event_threshold(manual, residual, t)
    mu = expected_sdp_reliability_bound(CombinedHazardModel(residual, pop), t, mode)
    return _bound_report(_reliability_fields(threshold, mu, mode))


def reference_chernoff_bound(pop: FailurePopulation, threshold: float) -> BoundReport:
    """Textbook lower-tail bound with mu = l*p, provided as an audit baseline.

    Unlike the two comparison bounds above, this application is valid
    whenever 0 < threshold < l*p, so the exact tail probability must never
    exceed it inside that domain; its exponent takes their rule.
    """
    return _bound_report(_fields(threshold, pop.l * pop.p))
