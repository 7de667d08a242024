"""Weibull hazard rates, the combined residual-plus-defects hazard, and
reliability closed forms with a quadrature cross-check.

Two hazard models live here: the plain power-law hazard K * t**m used for a
conventionally tested system, and the combined model x + K_hat * t**m_hat in
which x hidden defects (from misclassified modules) each contribute a unit
hazard on top of the residual power-law part.  Reliabilities are always
evaluated through a single exponent assembled in log space so that large
cumulative hazards underflow cleanly instead of producing garbage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .failures import FailurePopulation

__all__ = [
    "WeibullParams",
    "CombinedHazardModel",
    "QuadratureError",
    "AS_STATED",
    "SIGN_CORRECTED",
    "MODES",
    "weibull_hazard",
    "weibull_average_hazard",
    "weibull_cumulative_hazard",
    "weibull_reliability",
    "sdp_reliability",
    "log_expected_sdp_reliability_exact",
    "expected_sdp_reliability_exact",
    "log_expected_sdp_reliability_bound",
    "expected_sdp_reliability_bound",
    "reliability_by_integration",
]

# Variants of the expected-reliability proxy used by the reliability-comparison
# bound.  The exact expectation factorizes with a *negative* residual exponent;
# "as-stated" keeps the positive residual exponent of the historical formula
# (looser by exp(2 * cumulative residual hazard)), "sign-corrected" flips it to
# agree with the reliability closed form.  Both are upper bounds on the exact
# expectation.  MODES is the order every report lists them in.
AS_STATED = "as-stated"
SIGN_CORRECTED = "sign-corrected"
MODES = (SIGN_CORRECTED, AS_STATED)


@dataclass(frozen=True)
class WeibullParams:
    """Power-law hazard z(t) = scale_k * t**shape_m with scale_k > 0, shape_m > -1."""

    scale_k: float
    shape_m: float

    def __post_init__(self) -> None:
        if not (0.0 < self.scale_k < math.inf):
            raise ValueError(f"scale_k must be finite and > 0, got {self.scale_k}")
        if not (-1.0 < self.shape_m < math.inf):
            raise ValueError(f"shape_m must be finite and > -1, got {self.shape_m}")


@dataclass(frozen=True)
class CombinedHazardModel:
    """Residual power-law hazard plus one unit hazard per hidden defect."""

    residual: WeibullParams
    population: FailurePopulation


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance.

    Carries the best available estimate and the achieved error bound.
    """

    def __init__(self, message: str, estimate: float, error_bound: float) -> None:
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


def _require_positive_time(t: float) -> None:
    if not (0.0 < t < math.inf):
        raise ValueError(f"time t must be finite and > 0 for hazard evaluation, got {t}")


def _require_nonnegative_time(t: float) -> None:
    if not (0.0 <= t < math.inf):
        raise ValueError(f"time t must be finite and >= 0, got {t}")


def _scaled_power(params: WeibullParams, t: float, exponent: float, divisor: float = 1.0) -> float:
    """scale_k * t**exponent / divisor, with an overflow reported as a domain error.

    The power raises OverflowError; the product, and the quotient by a
    divisor near 0 (shape_m + 1 for shape_m just above -1), overflow silently
    to inf.
    """
    try:
        value = params.scale_k * t**exponent / divisor
    except OverflowError:
        value = math.inf
    if value == math.inf:
        quotient = "" if divisor == 1.0 else f" / {divisor}"
        raise ValueError(f"scale_k * t**{exponent}{quotient} overflows at time t={t} (shape_m={params.shape_m})")
    return value


def weibull_hazard(params: WeibullParams, t: float) -> float:
    """Instantaneous hazard rate scale_k * t**shape_m at time t > 0."""
    _require_positive_time(t)
    return _scaled_power(params, t, params.shape_m)


def weibull_average_hazard(params: WeibullParams, t: float) -> float:
    """Average hazard over [0, t], the cumulative hazard over t: scale_k * t**shape_m / (shape_m+1)."""
    _require_positive_time(t)
    return _scaled_power(params, t, params.shape_m, params.shape_m + 1.0)


def weibull_cumulative_hazard(params: WeibullParams, t: float) -> float:
    """Integral of the hazard over [0, t]: scale_k * t**(shape_m+1) / (shape_m+1)."""
    _require_nonnegative_time(t)
    return _scaled_power(params, t, params.shape_m + 1.0, params.shape_m + 1.0)


def weibull_reliability(params: WeibullParams, t: float) -> float:
    """Probability of failure-free operation on [0, t]; exactly 1 at t = 0."""
    return math.exp(-weibull_cumulative_hazard(params, t))


def sdp_reliability(model: CombinedHazardModel, x, t: float):
    """Reliability with x realized hidden defects: exp(-(x*t + residual integral)).

    x may be a scalar or an array of realized defect counts.
    """
    _require_nonnegative_time(t)
    x_arr = np.asarray(x, dtype=float)
    if np.any((x_arr < 0) | (x_arr > model.population.l)):
        raise ValueError(f"x must lie in [0, {model.population.l}]")
    out = np.exp(-(x_arr * t + weibull_cumulative_hazard(model.residual, t)))
    if np.ndim(x) == 0:
        return float(out)
    return out


def log_expected_sdp_reliability_exact(model: CombinedHazardModel, t: float) -> float:
    """Log of the exact expected reliability under the binomial defect count.

    Independence factorizes the expectation into a per-module product; each
    factor is 1 + p*(e**-t - 1), evaluated through log1p/expm1 so nothing is
    lost when t is tiny.
    """
    pop = model.population
    residual_integral = weibull_cumulative_hazard(model.residual, t)
    return -residual_integral + pop.l * math.log1p(pop.p * math.expm1(-t))


def expected_sdp_reliability_exact(model: CombinedHazardModel, t: float) -> float:
    """Exact expectation of sdp_reliability over the defect-count distribution."""
    return math.exp(log_expected_sdp_reliability_exact(model, t))


def log_expected_sdp_reliability_bound(model: CombinedHazardModel, t: float, mode: str = SIGN_CORRECTED) -> float:
    """Log of the closed-form upper bound on the expected reliability.

    Applies 1 + x < e**x to each product factor, giving l*p*(e**-t - 1) in the
    exponent; the residual integral enters negatively (sign-corrected) or
    positively (as-stated).
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    pop = model.population
    residual_integral = weibull_cumulative_hazard(model.residual, t)
    bernoulli_part = pop.l * pop.p * math.expm1(-t)
    if mode == SIGN_CORRECTED:
        return bernoulli_part - residual_integral
    return bernoulli_part + residual_integral


def expected_sdp_reliability_bound(model: CombinedHazardModel, t: float, mode: str = SIGN_CORRECTED) -> float:
    """Closed-form upper bound on the expected reliability (see log variant).

    The as-stated exponent grows with t; a bound beyond double range is
    reported as a domain error.
    """
    try:
        return math.exp(log_expected_sdp_reliability_bound(model, t, mode))
    except OverflowError:
        raise ValueError(f"expected-reliability proxy ({mode}) overflows at time t={t}") from None


def reliability_by_integration(
    hazard: Callable[[float], float],
    t: float,
    tolerance: float = 1e-10,
) -> float:
    """Reliability exp(-integral of hazard over (0, t]) by adaptive quadrature.

    This is the oracle route against which the closed forms are checked.  The
    integrand may have an integrable singularity at 0 (power-law hazards with
    negative shape); the Gauss-Kronrod rule never samples the endpoints, and
    the extrapolating subdivision handles the singular growth.

    Raises QuadratureError (carrying the best estimate and the achieved error
    bound) when the requested absolute tolerance on the integral is not met.
    """
    _require_nonnegative_time(t)
    if not (tolerance > 0.0):
        raise ValueError(f"tolerance must be > 0, got {tolerance}")
    if t == 0.0:
        return 1.0
    from scipy import integrate  # deferred: only this oracle needs quadrature

    result = integrate.quad(hazard, 0.0, t, epsabs=tolerance, epsrel=0.0, limit=200, full_output=1)
    integral, abs_err = result[0], result[1]
    if len(result) > 3 or abs_err > tolerance:
        raise QuadratureError(
            f"quadrature reached error bound {abs_err:.3e} > tolerance {tolerance:.3e}",
            estimate=integral,
            error_bound=abs_err,
        )
    return math.exp(-integral)
