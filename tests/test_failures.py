"""Failure-count distribution: exact oracles and sampling checks."""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.stats

from sdpbounds.bounds import reference_chernoff_bound
from sdpbounds.failures import FailurePopulation, binomial_cdf_below


def pmf_fraction(l: int, p: Fraction, k: int) -> Fraction:
    """Independent exact-rational PMF oracle."""
    return Fraction(math.comb(l, k)) * p**k * (1 - p) ** (l - k)


def test_population_validation() -> None:
    with pytest.raises(ValueError):
        FailurePopulation(l=0, p=0.5)
    with pytest.raises(ValueError):
        FailurePopulation(l=10, p=0.0)
    with pytest.raises(ValueError):
        FailurePopulation(l=10, p=1.0)
    with pytest.raises(ValueError):
        FailurePopulation(l=2.5, p=0.5)  # type: ignore[arg-type]


def test_expected_failures() -> None:
    def expected_failures(pop: FailurePopulation) -> float:
        return reference_chernoff_bound(pop, 0.0).mu_used

    assert expected_failures(FailurePopulation(10, 0.3)) == pytest.approx(3.0, abs=0)
    assert expected_failures(FailurePopulation(1, 0.5)) == 0.5
    assert expected_failures(FailurePopulation(100, 0.1)) == pytest.approx(10.0, rel=1e-15)


def test_cdf_spec_examples() -> None:
    # (1 + 10 + 45)/1024 exactly.
    assert binomial_cdf_below(FailurePopulation(10, 0.5), 3.0) == pytest.approx(56 / 1024, rel=1e-13)
    assert binomial_cdf_below(FailurePopulation(10, 0.5), 0.0) == 0.0
    assert binomial_cdf_below(FailurePopulation(7, 0.3), -2.0) == 0.0
    # Exact rational: Pr[X < 2] at l=100, p=1/10.
    exact = pmf_fraction(100, Fraction(1, 10), 0) + pmf_fraction(100, Fraction(1, 10), 1)
    assert float(exact) == pytest.approx(3.21688053194115e-4, rel=1e-11)
    assert binomial_cdf_below(FailurePopulation(100, 0.1), 2.0) == pytest.approx(float(exact), rel=1e-12)


def test_cdf_strict_inequality_semantics() -> None:
    pop = FailurePopulation(10, 0.5)
    # Integer threshold excludes the threshold value itself.
    assert binomial_cdf_below(pop, 3.0) == pytest.approx(56 / 1024, rel=1e-13)
    assert binomial_cdf_below(pop, 3.0000001) == pytest.approx((56 + 120) / 1024, rel=1e-13)
    assert binomial_cdf_below(pop, 2.5) == binomial_cdf_below(pop, 3.0)


def test_cdf_monotone_and_saturates() -> None:
    pop = FailurePopulation(25, 0.37)
    thresholds = [-1.0, 0.0, 0.5, 1.0, 3.7, 9.0, 24.0, 25.0, 25.5, 30.0]
    values = [binomial_cdf_below(pop, t) for t in thresholds]
    for lo, hi in zip(values, values[1:]):
        assert lo <= hi
    assert values[0] == 0.0 and values[1] == 0.0
    assert binomial_cdf_below(pop, 26.0) == 1.0
    # threshold just above l saturates at exactly 1.
    assert binomial_cdf_below(pop, 25.0) < 1.0


def test_cdf_cross_check_scipy() -> None:
    # scipy's incomplete-beta CDF is an algorithmically independent route.
    for l, p in [(10, 0.5), (100, 0.1), (1000, 0.73)]:
        pop = FailurePopulation(l, p)
        for thr in (1.0, 2.0, l * p, l * p + 3.5):
            k_below = math.ceil(thr) - 1
            want = scipy.stats.binom.cdf(k_below, l, p)
            assert binomial_cdf_below(pop, thr) == pytest.approx(want, rel=1e-10)


def _mp_cdfs_below(l: int, p: float, thresholds):
    """Pr[X < c] for each cutoff c, read off one 40-digit mpmath running sum
    of the PMF recurrence."""
    mpmath.mp.dps = 40
    p_mp = mpmath.mpf(p)
    ratio = p_mp / (1 - p_mp)
    term = (1 - p_mp) ** l
    total = term
    sums = {}
    ends = sorted({math.ceil(c) - 1 for c in thresholds})
    for j in range(ends[-1]):
        if j in ends:
            sums[j] = total
        term = term * (l - j) / (j + 1) * ratio
        total += term
    sums[ends[-1]] = total
    return [sums[math.ceil(c) - 1] for c in thresholds]


def test_cdf_accuracy_large_l() -> None:
    # Complementing at p (not evaluating at 1 - p) keeps full precision at l = 1e9.
    cases = [(10**9, 1e-6, 990.0, 1e-13), (10**9, 1e-5, 9800.0, 1e-13), (10**8, 1e-4, 9900.0, 1e-13)]
    # With fewer than 40 terms below the cutoff, the incomplete beta's error
    # grows with l, to about 2e-11 near l = 1e9.
    # The second case is the worst one a random scan found.
    cases += [
        (10**9, 1e-8, 6.0, 5e-11),
        (738_300_431, 1.7918564571921285e-08, 6.0, 5e-11),
        (10**9, 3e-8, 16.0, 5e-11),
        (10**8, 1e-6, 2.0, 5e-11),
    ]
    for l, p, threshold, tol in cases:
        exact = _mp_cdfs_below(l, p, [threshold])[0]
        got = binomial_cdf_below(FailurePopulation(l, p), threshold)
        assert abs(got - float(exact)) / float(exact) <= tol, (l, p, threshold)


def test_cdf_matches_pmf_sum() -> None:
    # The 40-digit PMF recurrence is an independent route; scipy.stats shares the oracle's ibeta.
    cases = []
    for l, p in [(10, 0.3), (1000, 0.3), (1000, 0.01), (10**6, 0.01), (10**6, 0.3)]:
        mean, sd = l * p, math.sqrt(l * p * (1 - p))
        cases.append((l, p, [thr for thr in (mean, mean + 0.5, mean - 3 * sd, mean - 6 * sd) if thr > 0]))
    cases.append((10**9, 1e-6, [900.0, 950.5]))
    for l, p, thresholds in cases:
        pop = FailurePopulation(l, p)
        for thr, want in zip(thresholds, _mp_cdfs_below(l, p, thresholds)):
            assert binomial_cdf_below(pop, thr) == pytest.approx(float(want), rel=1e-12), (l, p, thr)


def test_sampling_mean_clt() -> None:
    pop = FailurePopulation(10, 0.5)
    rng = np.random.default_rng(20240817)
    n = 10**6
    draws = rng.binomial(pop.l, pop.p, size=n)
    # Same generator contract as the Monte Carlo blocks' draws.
    sd = math.sqrt(pop.l * pop.p * (1 - pop.p))
    assert abs(draws.mean() - 5.0) <= 3.0 * sd / math.sqrt(n)


def test_sampling_matches_cdf_ks() -> None:
    n = 10**6
    for l, p, seed in [(10, 0.5, 11), (100, 0.1, 12)]:
        pop = FailurePopulation(l, p)
        rng = np.random.default_rng(seed)
        draws = rng.binomial(l, p, size=n)
        ks = 0.0
        for k in range(l + 1):
            empirical = np.count_nonzero(draws <= k) / n
            exact = binomial_cdf_below(pop, k + 1.0)
            ks = max(ks, abs(empirical - exact))
        assert ks <= 0.002, (l, p, ks)
