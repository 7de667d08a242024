"""Deviation-bound reports: closed forms, flags, and algebraic consistency."""

from __future__ import annotations

import math

import pytest

from sdpbounds.bounds import (
    FLAG_DELTA_BOUNDARY,
    FLAG_DELTA_IN_RANGE,
    FLAG_THRESHOLD_BELOW_MU,
    FLAG_THRESHOLD_POSITIVE,
    FLAG_VACUOUS,
    chernoff_lower_tail,
    hazard_shortfall_bound,
    reference_chernoff_bound,
    reliability_event_threshold,
    reliability_excess_bound,
)
from sdpbounds.failures import FailurePopulation, binomial_cdf_below
from sdpbounds.hazards import AS_STATED, SIGN_CORRECTED, WeibullParams

CANONICAL_POP = FailurePopulation(100, 0.1)
CANONICAL_MANUAL = WeibullParams(2.0, 0.5)
CANONICAL_RESIDUAL = WeibullParams(1.0, 0.5)

# Shared audit grid kept inside double range so flags, not underflow, tell the story.
GRID_L = (10, 100, 1000)
GRID_P = (0.01, 0.1, 0.5)
GRID_MANUAL = (WeibullParams(0.5, 0.0), WeibullParams(2.0, 0.5), WeibullParams(19.99, 0.0))
GRID_RESIDUAL = (WeibullParams(0.5, 0.0), WeibullParams(1.0, 0.5), WeibullParams(10.0, 0.0))
GRID_T = (0.25, 1.0, 4.0)


def grid_points():
    for l in GRID_L:
        for p in GRID_P:
            pop = FailurePopulation(l, p)
            for manual in GRID_MANUAL:
                for residual in GRID_RESIDUAL:
                    for t in GRID_T:
                        yield pop, manual, residual, t


def test_chernoff_lower_tail_examples() -> None:
    assert chernoff_lower_tail(10.0, 0.8) == pytest.approx(math.exp(-3.2), rel=1e-14)
    assert chernoff_lower_tail(5.0, 0.0) == 1.0
    assert chernoff_lower_tail(2.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)
    with pytest.raises(ValueError):
        chernoff_lower_tail(0.0, 0.5)
    with pytest.raises(ValueError):
        chernoff_lower_tail(-1.0, 0.5)


def test_hazard_event_threshold_examples() -> None:
    def threshold(manual: WeibullParams, residual: WeibullParams, t: float) -> float:
        return hazard_shortfall_bound(CANONICAL_POP, manual, residual, t).event_threshold

    assert threshold(CANONICAL_MANUAL, CANONICAL_RESIDUAL, 4.0) == pytest.approx(2.0, rel=1e-15)
    same = WeibullParams(1.3, 0.7)
    assert threshold(same, same, 2.5) == 0.0
    assert threshold(WeibullParams(1.0, 0.0), WeibullParams(5.0, 0.0), 1.0) < 0.0
    with pytest.raises(ValueError):
        threshold(same, same, 0.0)


def test_reliability_event_threshold_examples() -> None:
    got = reliability_event_threshold(WeibullParams(2.0, 1.0), WeibullParams(1.0, 1.0), 2.0)
    assert got == pytest.approx(1.0, rel=1e-15)
    same = WeibullParams(0.8, -0.2)
    assert reliability_event_threshold(same, same, 3.0) == 0.0


def test_hazard_bound_canonical_point() -> None:
    report = hazard_shortfall_bound(CANONICAL_POP, CANONICAL_MANUAL, CANONICAL_RESIDUAL, 4.0)
    assert report.mu_used == pytest.approx(12.0, rel=1e-15)
    assert report.delta == pytest.approx(5.0 / 6.0, rel=1e-14)
    assert report.log_bound == pytest.approx(-100.0 / 24.0, rel=1e-14)
    assert report.bound == pytest.approx(1.5503853599009319e-2, rel=1e-13)
    assert report.has_flag(FLAG_DELTA_IN_RANGE)
    assert report.has_flag(FLAG_THRESHOLD_POSITIVE)
    assert report.has_flag(FLAG_THRESHOLD_BELOW_MU)
    assert not report.has_flag(FLAG_VACUOUS)
    assert report.exact_probability is None


def test_hazard_bound_zero_threshold() -> None:
    same = WeibullParams(1.5, 0.5)
    report = hazard_shortfall_bound(CANONICAL_POP, same, same, 2.0)
    assert report.event_threshold == 0.0
    assert report.exact_probability == 0.0
    assert not report.has_flag(FLAG_THRESHOLD_POSITIVE)
    assert math.isfinite(report.bound)
    # delta == 1 is the in-range boundary.
    assert report.delta == 1.0
    assert report.has_flag(FLAG_DELTA_IN_RANGE)
    assert report.has_flag(FLAG_DELTA_BOUNDARY)


def test_hazard_bound_delta_zero_boundary() -> None:
    # B - A == mu engineered: A = 1, lp = 1, B = 2 -> threshold 1 == mu... needs lp + A = B - A.
    pop = FailurePopulation(10, 0.1)  # lp = 1
    residual = WeibullParams(1.0, 0.0)  # A = 1
    manual = WeibullParams(3.0, 0.0)  # B = 3, threshold = 2 = mu
    report = hazard_shortfall_bound(pop, manual, residual, 1.0)
    assert report.delta == 0.0
    assert report.bound == 1.0
    assert not report.has_flag(FLAG_DELTA_IN_RANGE)
    assert report.has_flag(FLAG_DELTA_BOUNDARY)
    assert report.has_flag(FLAG_VACUOUS)


def test_hazard_bound_simplified_matches_unsimplified() -> None:
    for pop, manual, residual, t in grid_points():
        report = hazard_shortfall_bound(pop, manual, residual, t)
        unsimplified = chernoff_lower_tail(report.mu_used, report.delta)
        assert report.bound == pytest.approx(unsimplified, rel=1e-12), (pop, manual, residual, t)


def test_hazard_bound_report_consistency() -> None:
    for pop, manual, residual, t in grid_points():
        report = hazard_shortfall_bound(pop, manual, residual, t)
        assert report.bound == math.exp(report.log_bound)
        if report.has_flag(FLAG_DELTA_IN_RANGE):
            reconstructed = (1.0 - report.delta) * report.mu_used
            # Consistency up to rounding of delta, which is relative to mu.
            assert reconstructed == pytest.approx(
                report.event_threshold, abs=1e-12 * max(1.0, report.mu_used)
            )
        assert math.isfinite(report.bound)
        if report.has_flag(FLAG_DELTA_IN_RANGE):
            assert report.bound <= 1.0
            if not report.has_flag(FLAG_DELTA_BOUNDARY):
                assert 0.0 < report.bound


def test_hazard_bound_monotone_in_l() -> None:
    values = []
    for l in (10, 100, 1000):
        pop = FailurePopulation(l, 0.1)
        values.append(hazard_shortfall_bound(pop, CANONICAL_MANUAL, CANONICAL_RESIDUAL, 4.0).bound)
    assert values[0] > values[1] > values[2]


def test_reliability_bound_canonical_structure() -> None:
    pop = FailurePopulation(20, 0.2)
    manual = WeibullParams(2.0, 1.0)
    residual = WeibullParams(1.0, 1.0)
    for mode in (SIGN_CORRECTED, AS_STATED):
        report = reliability_excess_bound(pop, manual, residual, 2.0, mode)
        assert report.event_threshold == pytest.approx(1.0, rel=1e-15)
        unsimplified = chernoff_lower_tail(report.mu_used, report.delta)
        assert report.bound == pytest.approx(unsimplified, rel=1e-12)
        assert any("mode" in note for note in report.notes)


def test_reliability_bound_zero_threshold() -> None:
    same = WeibullParams(1.0, 1.0)
    report = reliability_excess_bound(FailurePopulation(10, 0.5), same, same, 2.0)
    assert report.event_threshold == 0.0
    assert report.exact_probability == 0.0


def test_reliability_bound_simplified_matches_unsimplified() -> None:
    for pop, manual, residual, t in grid_points():
        for mode in (SIGN_CORRECTED, AS_STATED):
            report = reliability_excess_bound(pop, manual, residual, t, mode)
            unsimplified = chernoff_lower_tail(report.mu_used, report.delta)
            if report.bound == 0.0 and unsimplified == 0.0:
                continue
            assert report.bound == pytest.approx(unsimplified, rel=1e-12), (pop, manual, residual, t, mode)


def test_reliability_bound_finite_on_grid() -> None:
    for pop, manual, residual, t in grid_points():
        for mode in (SIGN_CORRECTED, AS_STATED):
            report = reliability_excess_bound(pop, manual, residual, t, mode)
            assert not math.isnan(report.bound)
            assert not math.isnan(report.delta)
            assert report.bound == math.exp(report.log_bound)
            if report.has_flag(FLAG_DELTA_IN_RANGE):
                reconstructed = (1.0 - report.delta) * report.mu_used
                assert reconstructed == pytest.approx(
                    report.event_threshold, abs=1e-12 * max(1.0, report.mu_used)
                )


def test_reference_bound_examples() -> None:
    report = reference_chernoff_bound(CANONICAL_POP, 2.0)
    assert report.delta == pytest.approx(0.8, rel=1e-15)
    assert report.bound == pytest.approx(0.04076220397836622, rel=1e-13)
    assert report.has_flag(FLAG_DELTA_IN_RANGE)

    zero = reference_chernoff_bound(CANONICAL_POP, 0.0)
    assert zero.exact_probability == 0.0
    assert not zero.has_flag(FLAG_THRESHOLD_POSITIVE)

    at_mean = reference_chernoff_bound(CANONICAL_POP, 10.0)
    assert at_mean.bound == 1.0
    assert at_mean.has_flag(FLAG_VACUOUS)
    assert not at_mean.has_flag(FLAG_DELTA_IN_RANGE)


def test_reference_bound_dominates_exact_cdf() -> None:
    # Textbook validity: exact tail never exceeds the reference bound in-domain.
    for l in GRID_L:
        for p in GRID_P:
            pop = FailurePopulation(l, p)
            mu = l * p
            for frac in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
                threshold = frac * mu
                report = reference_chernoff_bound(pop, threshold)
                if not report.has_flag(FLAG_DELTA_IN_RANGE):
                    continue
                exact = binomial_cdf_below(pop, threshold)
                assert exact <= report.bound, (l, p, threshold, exact, report.bound)


def test_hazard_bound_tighter_than_reference_can_be_violated() -> None:
    # The comparison bound substitutes an inflated mean, making it tighter than
    # the reference; near-mean cutoffs with a large residual hazard expose
    # parameter points where the exact probability exceeds it.
    pop = FailurePopulation(100, 0.1)
    manual = WeibullParams(19.99, 0.0)
    residual = WeibullParams(10.0, 0.0)
    report = hazard_shortfall_bound(pop, manual, residual, 1.0)
    exact = binomial_cdf_below(pop, report.event_threshold)
    assert exact > report.bound
