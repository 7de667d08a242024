"""Hazard and reliability closed forms against the quadrature oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest

from sdpbounds.bounds import hazard_shortfall_bound
from sdpbounds.failures import FailurePopulation
from sdpbounds.hazards import (
    AS_STATED,
    SIGN_CORRECTED,
    CombinedHazardModel,
    QuadratureError,
    WeibullParams,
    expected_sdp_reliability_bound,
    expected_sdp_reliability_exact,
    log_expected_sdp_reliability_bound,
    log_expected_sdp_reliability_exact,
    reliability_by_integration,
    sdp_reliability,
    weibull_cumulative_hazard,
    weibull_hazard,
    weibull_reliability,
)

K_GRID = (0.1, 1.0, 2.0, 10.0)
M_GRID = (-0.5, 0.0, 0.5, 1.0, 2.0)
T_GRID = (0.01, 0.1, 1.0, 5.0, 10.0)


def test_params_validation() -> None:
    with pytest.raises(ValueError):
        WeibullParams(scale_k=0.0, shape_m=0.5)
    with pytest.raises(ValueError):
        WeibullParams(scale_k=1.0, shape_m=-1.0)
    WeibullParams(scale_k=1e-6, shape_m=-0.999)


def test_hazard_examples() -> None:
    assert weibull_hazard(WeibullParams(1.0, 0.0), 7.0) == 1.0
    assert weibull_hazard(WeibullParams(2.0, 0.5), 4.0) == pytest.approx(4.0, rel=1e-15)
    assert weibull_hazard(WeibullParams(3.0, 1.0), 2.0) == pytest.approx(6.0, rel=1e-15)
    with pytest.raises(ValueError):
        weibull_hazard(WeibullParams(1.0, 0.0), 0.0)
    with pytest.raises(ValueError):
        weibull_hazard(WeibullParams(1.0, 0.0), -1.0)


def _model(l: int = 10, p: float = 0.3, k_hat: float = 1.0, m_hat: float = 0.0) -> CombinedHazardModel:
    return CombinedHazardModel(WeibullParams(k_hat, m_hat), FailurePopulation(l, p))


def expected_combined_hazard(model: CombinedHazardModel, t: float) -> float:
    """Mean combined hazard l*p + K_hat*t**m_hat: the hazard bound's substituted mean."""
    manual = WeibullParams(1.0, 0.0)  # the mean does not depend on the manual hazard
    return hazard_shortfall_bound(model.population, manual, model.residual, t).mu_used


def test_expected_combined_hazard() -> None:
    model = CombinedHazardModel(WeibullParams(1.0, 0.5), FailurePopulation(100, 0.1))
    assert expected_combined_hazard(model, 4.0) == pytest.approx(12.0, rel=1e-15)
    model2 = CombinedHazardModel(WeibullParams(1.0, 0.0), FailurePopulation(1, 0.5))
    assert expected_combined_hazard(model2, 1.0) == 1.5


def test_expected_combined_hazard_monte_carlo() -> None:
    model = CombinedHazardModel(WeibullParams(1.0, 0.5), FailurePopulation(100, 0.1))
    rng = np.random.default_rng(424242)
    n = 10**6
    draws = rng.binomial(100, 0.1, size=n)
    sample_mean = float(np.mean(draws + weibull_hazard(model.residual, 4.0)))
    sd = math.sqrt(100 * 0.1 * 0.9)
    assert abs(sample_mean - expected_combined_hazard(model, 4.0)) <= 3.0 * sd / math.sqrt(n)


def test_reliability_examples() -> None:
    assert weibull_reliability(WeibullParams(1.0, 0.0), 1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert weibull_reliability(WeibullParams(3.7, 1.5), 0.0) == 1.0
    assert weibull_reliability(WeibullParams(2.0, 1.0), 3.0) == pytest.approx(math.exp(-9.0), rel=1e-14)


def test_integration_examples() -> None:
    assert reliability_by_integration(lambda x: 1.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)
    got = reliability_by_integration(lambda x: 2.0 * x**0.5, 4.0)
    assert got == pytest.approx(math.exp(-32.0 / 3.0), rel=1e-10)
    # x frozen in the combined-hazard integrand.
    got = reliability_by_integration(lambda x: 3.0 + 1.0 * x, 2.0)
    assert got == pytest.approx(math.exp(-8.0), rel=1e-10)
    assert reliability_by_integration(lambda x: 1.0, 0.0) == 1.0


def test_integration_failure_carries_estimate() -> None:
    # A pathological oscillator the subdivision budget cannot resolve.
    def nasty(x: float) -> float:
        return math.sin(1.0 / (x + 1e-12)) / math.sqrt(x + 1e-12)

    with pytest.raises(QuadratureError) as info:
        reliability_by_integration(nasty, 1.0, tolerance=1e-13)
    assert math.isfinite(info.value.estimate)
    assert info.value.error_bound > 0.0


def test_weibull_closed_form_vs_quadrature_grid() -> None:
    for k in K_GRID:
        for m in M_GRID:
            params = WeibullParams(k, m)
            for t in T_GRID:
                closed = weibull_reliability(params, t)
                quad = reliability_by_integration(lambda x: weibull_hazard(params, x), t)
                if closed == 0.0:
                    assert quad == 0.0, (k, m, t)
                else:
                    assert abs(closed - quad) / closed <= 1e-8, (k, m, t)


def test_sdp_closed_form_vs_quadrature_grid() -> None:
    pop = FailurePopulation(10, 0.3)
    for k in K_GRID:
        for m in M_GRID:
            model = CombinedHazardModel(WeibullParams(k, m), pop)
            for t in T_GRID:
                for x in (0, 1, 5):
                    closed = sdp_reliability(model, x, t)
                    quad = reliability_by_integration(
                        lambda s: x + weibull_hazard(model.residual, s), t
                    )
                    if closed == 0.0:
                        assert quad == 0.0, (k, m, t, x)
                    else:
                        assert abs(closed - quad) / closed <= 1e-8, (k, m, t, x)


def test_sdp_reliability_examples() -> None:
    model = _model(k_hat=1.0, m_hat=1.0)
    assert sdp_reliability(model, 0, 2.0) == weibull_reliability(model.residual, 2.0)
    assert sdp_reliability(model, 3, 2.0) == pytest.approx(math.exp(-8.0), rel=1e-14)
    assert sdp_reliability(model, 7, 0.0) == 1.0
    with pytest.raises(ValueError):
        sdp_reliability(model, 11, 1.0)


def test_reliability_monotone_in_t_and_x() -> None:
    model = _model(l=10, p=0.3, k_hat=2.0, m_hat=0.5)
    ts = [0.0, 0.1, 0.5, 1.0, 2.0, 5.0]
    for x in (0, 1, 5):
        values = [sdp_reliability(model, x, t) for t in ts]
        for lo, hi in zip(values[1:], values):
            assert lo <= hi
    manual = [weibull_reliability(WeibullParams(2.0, 0.5), t) for t in ts]
    for lo, hi in zip(manual[1:], manual):
        assert lo <= hi
    # Strictly decreasing in x for t > 0.
    per_x = [sdp_reliability(model, x, 1.0) for x in range(11)]
    for hi, lo in zip(per_x, per_x[1:]):
        assert lo < hi


def test_expected_reliability_exact_value() -> None:
    # High-precision oracle (mpmath, 50 digits): 0.17131382975544242585...
    model = CombinedHazardModel(WeibullParams(1.0, 1.0), FailurePopulation(20, 0.2))
    assert expected_sdp_reliability_exact(model, 0.5) == pytest.approx(0.171313829755442, rel=1e-13)
    assert expected_sdp_reliability_exact(model, 0.0) == 1.0


def test_expected_reliability_single_trial_expansion() -> None:
    model = CombinedHazardModel(WeibullParams(1.3, 0.7), FailurePopulation(1, 0.42))
    t = 0.9
    residual_part = weibull_reliability(model.residual, t)
    want = 0.42 * math.exp(-t) * residual_part + 0.58 * residual_part
    assert expected_sdp_reliability_exact(model, t) == pytest.approx(want, rel=1e-14)


def test_expected_reliability_bound_values() -> None:
    model = CombinedHazardModel(WeibullParams(1.0, 1.0), FailurePopulation(20, 0.2))
    # mpmath oracles: 0.18288872683694582377 (sign-corrected).
    sc = expected_sdp_reliability_bound(model, 0.5, SIGN_CORRECTED)
    assert sc == pytest.approx(0.182888726836946, rel=1e-13)
    assert sc > expected_sdp_reliability_exact(model, 0.5)
    as_stated = expected_sdp_reliability_bound(model, 0.5, AS_STATED)
    assert as_stated == pytest.approx(sc * math.exp(0.25), rel=1e-13)
    assert expected_sdp_reliability_bound(model, 0.0, SIGN_CORRECTED) == 1.0
    with pytest.raises(ValueError):
        expected_sdp_reliability_bound(model, 0.5, "bogus")


def test_expected_reliability_between_extremes() -> None:
    for l, p in [(5, 0.1), (20, 0.5), (100, 0.9)]:
        pop = FailurePopulation(l, p)
        for k, m in [(0.5, 0.0), (2.0, 1.0)]:
            model = CombinedHazardModel(WeibullParams(k, m), pop)
            for t in (0.1, 1.0, 4.0):
                log_exact = log_expected_sdp_reliability_exact(model, t)
                log_low = -sdp_cumulative(model, l, t)
                log_high = -sdp_cumulative(model, 0, t)
                assert log_low < log_exact < log_high, (l, p, k, m, t)


def sdp_cumulative(model: CombinedHazardModel, x: int, t: float) -> float:
    return x * t + weibull_cumulative_hazard(model.residual, t)


def test_ordering_exact_below_bounds_everywhere() -> None:
    # Compared in log space so deep-underflow grid corners stay strict.
    for l in (1, 10, 100):
        for p in (0.01, 0.5, 0.99):
            pop = FailurePopulation(l, p)
            for k in K_GRID:
                for m in M_GRID:
                    model = CombinedHazardModel(WeibullParams(k, m), pop)
                    for t in T_GRID:
                        log_exact = log_expected_sdp_reliability_exact(model, t)
                        log_sc = log_expected_sdp_reliability_bound(model, t, SIGN_CORRECTED)
                        log_as = log_expected_sdp_reliability_bound(model, t, AS_STATED)
                        assert log_exact < log_sc < log_as, (l, p, k, m, t)


def test_expected_reliability_monte_carlo() -> None:
    model = CombinedHazardModel(WeibullParams(1.0, 1.0), FailurePopulation(20, 0.2))
    rng = np.random.default_rng(777)
    n = 10**6
    draws = rng.binomial(20, 0.2, size=n)
    values = sdp_reliability(model, draws, 0.5)
    se = float(np.std(values, ddof=1)) / math.sqrt(n)
    assert abs(float(np.mean(values)) - expected_sdp_reliability_exact(model, 0.5)) <= 3.0 * se
