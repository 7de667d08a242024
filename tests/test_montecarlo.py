"""Monte Carlo estimators: determinism, oracle consistency, audit logic."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

import sdpbounds.montecarlo as mc
import sdpbounds.report
from sdpbounds.bounds import (
    hazard_shortfall_bound,
    reference_chernoff_bound,
    reliability_event_threshold,
)
from sdpbounds.cli import main
from sdpbounds.failures import FailurePopulation, binomial_cdf_below
from sdpbounds.hazards import (
    CombinedHazardModel,
    WeibullParams,
    expected_sdp_reliability_exact,
    reliability_by_integration,
    sdp_reliability,
    weibull_cumulative_hazard,
    weibull_reliability,
)
from sdpbounds.ingest import parse_confusion
from sdpbounds.montecarlo import (
    MonteCarloEstimate,
    audit_bound,
    estimate_expected_reliability,
    estimate_reliability_exceedance,
    estimate_tail_probability,
    tail_event_indicators,
    wilson_interval,
)
from sdpbounds.report import (
    DEFAULT_AUDIT_AXES,
    PARAM_NAMES,
    SweepGrid,
    analyze,
    derive_population_seed,
    sweep,
)


def analyze_point(l, p, k, m, k_hat, m_hat, t, **options):
    """The one point of an analyze report at time t."""
    return analyze(l, p, k, m, k_hat, m_hat, [t], **options)["points"][0]


def test_wilson_interval_contains_p_hat() -> None:
    for hits, n in [(0, 1000), (1, 1000), (500, 1000), (999, 1000), (1000, 1000)]:
        lo, hi = wilson_interval(hits, n)
        assert 0.0 <= lo <= hits / n <= hi <= 1.0


def test_sampling_args_validation() -> None:
    pop = FailurePopulation(10, 0.5)
    with pytest.raises(ValueError):
        estimate_tail_probability(pop, 3.0, n=999, seed=1)
    with pytest.raises(ValueError):
        estimate_tail_probability(pop, 3.0, n=1000, seed=-1)
    # Every estimator rejects workers < 1 as report does, a cutoff that draws nothing included.
    model = CombinedHazardModel(WeibullParams(1.0, 0.5), pop)
    runs = [
        lambda w: estimate_tail_probability(pop, 3.0, 1000, 1, workers=w),
        lambda w: estimate_tail_probability(pop, -1.0, 1000, 1, workers=w),
        lambda w: estimate_expected_reliability(model, 1.0, 1000, 1, workers=w),
        lambda w: estimate_reliability_exceedance(model, WeibullParams(2.0, 0.5), 1.0, 1000, 1, workers=w),
    ]
    for run in runs:
        assert run(1).n_samples == 1000
        for workers in (0, -3):
            with pytest.raises(ValueError, match=f"^workers must be >= 1, got {workers}$"):
                run(workers)


def test_library_input_checks_name_what_they_reject() -> None:
    # No CLI input reaches these checks; a library caller can.
    flat = WeibullParams(1.0, 0.0)
    runs = [
        (lambda: weibull_cumulative_hazard(flat, -1.0), "time t must be finite and >= 0, got -1.0"),
        (lambda: sdp_reliability(CombinedHazardModel(flat, FailurePopulation(10, 0.1)), 1, math.nan),
         "time t must be finite and >= 0, got nan"),
        (lambda: reliability_by_integration(lambda t: 1.0, 1.0, tolerance=0.0), "tolerance must be > 0, got 0.0"),
        (lambda: SweepGrid((10,), (0.1,), (1.0,), (0.0,), (1.0,), (0.0,), (1.0,), modes=("bogus",)),
         "unknown mode 'bogus'"),
        (lambda: analyze(10, 0.1, 1.0, 0.0, 1.0, 0.0, [1.0], modes=("bogus",)), "unknown mode 'bogus'"),
        (lambda: wilson_interval(0, 0), "n must be positive"),
        (lambda: MonteCarloEstimate(0.5, 0.1, 0.6, 0.7, 1000, 0), "interval [0.6, 0.7] does not contain estimate 0.5"),
        (lambda: MonteCarloEstimate(0.5, -1.0, 0.4, 0.6, 1000, 0), "std_error must be >= 0, got -1.0"),
        (lambda: parse_confusion("[1]"), "confusion input must be a JSON object"),
    ]
    for run, message in runs:
        with pytest.raises(ValueError) as info:
            run()
        assert str(info.value) == message


def test_tail_zero_threshold_short_circuit() -> None:
    pop = FailurePopulation(10, 0.5)
    est = estimate_tail_probability(pop, 0.0, n=10_000, seed=7)
    assert est.estimate == 0.0
    assert est.std_error == 0.0
    assert (est.ci_low, est.ci_high) == (0.0, 0.0)
    assert est.event_threshold == 0.0


def test_tail_estimate_covers_exact_cdf() -> None:
    pop = FailurePopulation(10, 0.5)
    est = estimate_tail_probability(pop, 3.0, n=10**6, seed=1234)
    exact = binomial_cdf_below(pop, 3.0)
    assert est.ci_low <= exact <= est.ci_high
    assert est.estimate == pytest.approx(exact, abs=5e-4)


def test_tail_estimate_deep_tail() -> None:
    pop = FailurePopulation(100, 0.1)
    est = estimate_tail_probability(pop, 2.0, n=10**7, seed=99, workers=4)
    exact = binomial_cdf_below(pop, 2.0)
    assert est.ci_low <= exact <= est.ci_high


def test_determinism_across_workers_and_runs() -> None:
    pop = FailurePopulation(100, 0.1)
    model = CombinedHazardModel(WeibullParams(1.0, 0.5), pop)
    for fn in (
        lambda w: estimate_tail_probability(pop, 8.0, n=200_000, seed=42, workers=w),
        lambda w: estimate_expected_reliability(model, 1.5, n=200_000, seed=42, workers=w),
    ):
        results = [fn(w) for w in (1, 2, 4, 7)] + [fn(1)]
        first = results[0]
        for other in results[1:]:
            assert other == first


def test_wilson_coverage_across_seeds() -> None:
    # 95% nominal interval; demand >= 93/100 coverage (binomial slack).
    for l, p, threshold in [(10, 0.5, 3.0), (100, 0.1, 5.0)]:
        pop = FailurePopulation(l, p)
        exact = binomial_cdf_below(pop, threshold)
        covered = 0
        for seed in range(100):
            est = estimate_tail_probability(pop, threshold, n=10_000, seed=seed)
            if est.ci_low <= exact <= est.ci_high:
                covered += 1
        assert covered >= 93, (l, p, covered)


def test_expected_reliability_estimate() -> None:
    model = CombinedHazardModel(WeibullParams(1.0, 1.0), FailurePopulation(20, 0.2))
    est = estimate_expected_reliability(model, 0.5, n=10**6, seed=2024)
    exact = expected_sdp_reliability_exact(model, 0.5)
    assert abs(est.estimate - exact) <= 3.0 * est.std_error
    assert est.ci_low <= est.estimate <= est.ci_high

    at_zero = estimate_expected_reliability(model, 0.0, n=1000, seed=3)
    assert at_zero.estimate == 1.0
    assert at_zero.std_error == 0.0


def test_expected_reliability_forced_draws(monkeypatch) -> None:
    # All-zero defect counts reduce the mean to the residual-only reliability.
    model = CombinedHazardModel(WeibullParams(1.3, 0.4), FailurePopulation(12, 0.37))
    monkeypatch.setattr(mc, "_draw_block", lambda pop, seed, i, size: np.zeros(size, dtype=np.int64))
    est = estimate_expected_reliability(model, 2.0, n=5000, seed=5)
    assert est.estimate == pytest.approx(weibull_reliability(model.residual, 2.0), rel=1e-15)
    assert est.std_error == 0.0


def test_exceedance_equals_tail_at_rewrite_threshold() -> None:
    manual = WeibullParams(2.0, 1.0)
    residual = WeibullParams(1.0, 1.0)
    pop = FailurePopulation(10, 0.5)
    model = CombinedHazardModel(residual, pop)
    threshold = reliability_event_threshold(manual, residual, 2.0)
    assert threshold == pytest.approx(1.0, rel=1e-15)
    for seed in (0, 1, 17, 991):
        a = estimate_reliability_exceedance(model, manual, 2.0, n=50_000, seed=seed)
        b = estimate_tail_probability(pop, threshold, n=50_000, seed=seed)
        assert a == b  # same draws, same indicators, bit-identical estimate
    exact = binomial_cdf_below(pop, threshold)
    assert exact == pytest.approx(0.5**10, rel=1e-12)
    big = estimate_reliability_exceedance(model, manual, 2.0, n=10**6, seed=8)
    assert big.ci_low <= exact <= big.ci_high


def test_exceedance_trend_with_shrinking_threshold() -> None:
    # Negative shapes push the cutoff down with t, so the exceedance
    # probability trends non-increasing; checked on the exact CDF curve.
    manual = WeibullParams(2.0, -0.5)
    residual = WeibullParams(1.0, -0.5)
    pop = FailurePopulation(10, 0.5)
    model = CombinedHazardModel(residual, pop)
    exact_curve = []
    for t in (0.5, 1.0, 2.0, 4.0, 8.0):
        threshold = reliability_event_threshold(manual, residual, t)
        exact_curve.append(binomial_cdf_below(pop, threshold))
        est = estimate_reliability_exceedance(model, manual, t, n=100_000, seed=6)
        assert est.ci_low <= exact_curve[-1] <= est.ci_high
    for hi, lo in zip(exact_curve, exact_curve[1:]):
        assert lo <= hi


def test_exceedance_identical_hazards_is_zero() -> None:
    same = WeibullParams(1.7, 0.3)
    model = CombinedHazardModel(same, FailurePopulation(10, 0.5))
    est = estimate_reliability_exceedance(model, same, 3.0, n=10_000, seed=1)
    assert est.estimate == 0.0
    assert est.event_threshold == 0.0


def test_indicators_match_reliability_comparison() -> None:
    # The count-scale indicator agrees with comparing the two reliabilities.
    manual = WeibullParams(2.0, 0.5)
    residual = WeibullParams(1.0, 0.5)
    pop = FailurePopulation(10, 0.5)
    model = CombinedHazardModel(residual, pop)
    t = 4.0
    threshold = reliability_event_threshold(manual, residual, t)
    indicators = tail_event_indicators(pop, threshold, n=65_536 + 17, seed=31)
    draws = np.concatenate(
        [mc._draw_block(pop, 31, i, s) for i, s in enumerate(mc._block_sizes(65_536 + 17))]
    )
    manual_rel = weibull_reliability(manual, t)
    alt = sdp_reliability(model, draws, t) > manual_rel
    assert np.array_equal(indicators, alt)
    assert indicators.mean() == estimate_tail_probability(pop, threshold, n=65_536 + 17, seed=31).estimate


def test_expected_reliability_sums_blocks_exactly() -> None:
    # Four blocks merged into one histogram; the sums over its distinct values,
    # weighted by their multiplicities, are exactly rounded.
    model = CombinedHazardModel(WeibullParams(1.0, 0.5), FailurePopulation(100, 0.1))
    n = 100_000
    seed = derive_population_seed(1, 100, 0.1)
    draws = np.concatenate(
        [mc._draw_block(model.population, seed, i, size) for i, size in enumerate(mc._block_sizes(n))]
    )
    values, counts = np.unique(draws, return_counts=True)
    for t in (1.0, 4.0):
        weighted = [(int(c), float(r)) for c, r in zip(counts, sdp_reliability(model, values, t))]
        mean = math.fsum(c * r for c, r in weighted) / n
        total_sq = math.fsum(c * (r * r) for c, r in weighted)
        variance = max(0.0, (total_sq - n * mean * mean) / (n - 1))
        std_error = math.sqrt(variance / n)
        # Two-sided empirical Bernstein interval for r in [0, b], delta = 0.05.
        b, log_term = weibull_reliability(model.residual, t), math.log(4.0 / 0.05)
        half = math.sqrt(2.0 * variance * log_term / n) + 7.0 * b * log_term / (3.0 * (n - 1))
        interval = (max(0.0, mean - half), min(b, mean + half))
        for workers in (1, 3):
            est = estimate_expected_reliability(model, t, n, seed, workers)
            assert (est.estimate, est.std_error) == (mean, std_error), (t, workers)
            assert (est.ci_low, est.ci_high) == interval, (t, workers)


def test_analyze_point_reports_the_public_estimators() -> None:
    # Tails and mean read one stream; each equals its own estimator at the population seed.
    l, p, k, m, k_hat, m_hat, t = 100, 0.1, 2.0, 0.5, 1.0, 0.5, 4.0
    n = 2 * mc.BLOCK_SIZE + 17
    pop = FailurePopulation(l, p)
    model = CombinedHazardModel(WeibullParams(k_hat, m_hat), pop)
    tail_seed = derive_population_seed(9, l, p)
    for workers in (1, 3):
        point = analyze_point(l, p, k, m, k_hat, m_hat, t, samples=n, seed=9, workers=workers)
        cutoffs = (point["hazard_bound"]["event_threshold"],
                   point["reliability_bound"]["sign-corrected"]["bound"]["event_threshold"])
        assert all(c > 0.0 for c in cutoffs)
        tails = [estimate_tail_probability(pop, c, n, tail_seed, workers) for c in cutoffs]
        assert point["hazard_tail_mc"] == dataclasses.asdict(tails[0])
        for record in point["reliability_bound"].values():
            assert record["exceedance_mc"] == dataclasses.asdict(tails[1])
        mean = estimate_expected_reliability(model, t, n, tail_seed, workers)
        assert point["expected_reliability_mc"] == dataclasses.asdict(mean)


def test_reliability_mean_interval_covers_exact_on_default_grid() -> None:
    # The normal interval missed the exact mean at a third of these points.
    grid = SweepGrid(*(tuple(DEFAULT_AUDIT_AXES[name]) for name in PARAM_NAMES), samples=10_000, seed=0)
    points = sweep(grid)["points"]
    covered = sum(
        pt["expected_reliability_mc"]["ci_low"] <= pt["expected_reliability_exact"]
        <= pt["expected_reliability_mc"]["ci_high"]
        for pt in points
    )
    assert covered >= 0.95 * len(points), covered


def test_reliability_std_error_does_not_underflow_on_default_grid() -> None:
    # Unscaled, r*r underflows at 36 of these points per seed whose mean is
    # positive; a point whose every r underflows reads 0.0 correctly.
    for seed in (0, 3):
        grid = SweepGrid(*(tuple(DEFAULT_AUDIT_AXES[name]) for name in PARAM_NAMES), samples=10_000, seed=seed)
        zero_se = [
            pt["expected_reliability_mc"]
            for pt in sweep(grid)["points"]
            if pt["expected_reliability_mc"]["std_error"] == 0.0
        ]
        assert all(est["estimate"] == 0.0 for est in zero_se), seed


def test_audit_holds_case() -> None:
    pop = FailurePopulation(100, 0.1)
    report = hazard_shortfall_bound(pop, WeibullParams(2.0, 0.5), WeibullParams(1.0, 0.5), 4.0)
    exact = binomial_cdf_below(pop, report.event_threshold)
    verdict = audit_bound(report, exact)
    assert verdict.verdict == "holds"
    assert verdict.margin == pytest.approx(report.bound - exact, rel=1e-12)
    assert verdict.margin > 1e-2


def test_audit_violated_on_constructed_inversion() -> None:
    report = reference_chernoff_bound(FailurePopulation(100, 0.1), 5.0)
    verdict = audit_bound(report, report.bound * 1.5)
    assert verdict.verdict == "violated"
    # Never "holds" when the exact probability strictly exceeds the bound.
    barely = audit_bound(report, math.nextafter(report.bound, 1.0))
    assert barely.verdict == "violated"
    equal = audit_bound(report, report.bound)
    assert equal.verdict == "holds"


def test_audit_exact_zero_event() -> None:
    same = WeibullParams(1.0, 0.5)
    report = hazard_shortfall_bound(FailurePopulation(10, 0.5), same, same, 2.0)
    verdict = audit_bound(report, 0.0)
    assert verdict.verdict == "exact-zero-event"
    with pytest.raises(ValueError):
        audit_bound(report, 0.25)


def test_shared_tail_pass_equals_single_cutoff_calls() -> None:
    # Cutoffs <= 0, a repeat and an unsorted order, over several blocks.
    pop = FailurePopulation(100, 0.1)
    thresholds = (12.0, -1.0, 8.0, 0.0, 8.0, 3.5)
    n = mc.BLOCK_SIZE * 2 + 17
    singles = tuple(estimate_tail_probability(pop, c, n, seed=77) for c in thresholds)
    for c, single in zip(thresholds, singles):
        if c > 0.0:
            assert single.estimate == np.count_nonzero(tail_event_indicators(pop, c, n, seed=77)) / n
    for workers in (1, 4):
        draws = mc._draw(pop, n, 77, workers)
        assert tuple(draws.tail(c) for c in thresholds) == singles


def _count_draw_seeds(monkeypatch) -> list:
    seeds = []
    draw = mc._draw_block

    def counting_draw(pop, seed, i, size):
        seeds.append(seed)
        return draw(pop, seed, i, size)

    monkeypatch.setattr(mc, "_draw_block", counting_draw)
    return seeds


def test_one_draw_pass_per_seed(monkeypatch) -> None:
    calls = _count_draw_seeds(monkeypatch)
    point = analyze_point(100, 0.1, 2.0, 0.5, 1.0, 0.5, 4.0, samples=10_000, seed=3)
    assert point["hazard_bound"]["event_threshold"] > 0.0
    assert point["reliability_exact_tail"] > 0.0
    assert len(calls) == 1  # one draw for both cutoffs and the reliability mean
    assert calls == [derive_population_seed(3, 100, 0.1)]

    calls.clear()
    estimates = [estimate_tail_probability(FailurePopulation(10, 0.5), c, 10_000, seed=1) for c in (0.0, -2.0)]
    assert [e.estimate for e in estimates] == [0.0, 0.0]
    assert calls == []


def _count_mean_calls(monkeypatch) -> list:
    calls = []
    reliability = mc.sdp_reliability

    def counting_reliability(model, x, t):
        calls.append((model, t))
        return reliability(model, x, t)

    monkeypatch.setattr(mc, "sdp_reliability", counting_reliability)
    return calls


def test_one_reliability_mean_per_population_residual_and_t(monkeypatch) -> None:
    # The default grid's 972 points have 162 distinct (l, p, K_hat, m_hat, t):
    # the mean is computed once for each and read by the 6 (K, m) points.
    calls = _count_mean_calls(monkeypatch)
    grid = SweepGrid(*(tuple(DEFAULT_AUDIT_AXES[name]) for name in PARAM_NAMES), samples=10_000, seed=4)
    assert len(sweep(grid)["points"]) == 972
    assert len(calls) == len(set(calls)) == 162

    calls.clear()
    analyze(100, 0.1, 2.0, 0.5, 1.0, 0.5, [0.25, 1.0, 4.0], samples=10_000, seed=3)
    assert [t for _, t in calls] == [0.25, 1.0, 4.0]


def test_kept_reliability_means_match_single_point_analysis() -> None:
    # Every (l, p, K_hat, m_hat, t) recurs across 2 K and 2 m values, and the
    # shapes -0.0 and 0.0 are equal keys; each swept point, bit for bit, is
    # the point analyze_point computes alone, from draws of its own.
    grid = SweepGrid(
        l_values=(10, 100), p_values=(0.1, 0.5), k_values=(0.5, 2.0), m_values=(0.0, 0.5),
        k_hat_values=(1.0,), m_hat_values=(-0.0, 0.0, 0.5), t_values=(0.25, 4.0), samples=1000, seed=9,
    )
    for workers in (1, 3):
        points = sweep(grid, workers=workers)["points"]
        assert len(points) == 96
        for point in points:
            single = analyze_point(*(point[name] for name in PARAM_NAMES), samples=1000, seed=9)
            assert json.dumps(point) == json.dumps(single)
        # Points 0, 2 and 6 share a kept mean (m_hat -0.0 and 0.0, then the next m), each in a dict of its own.
        means = [points[i]["expected_reliability_mc"] for i in (0, 2, 6)]
        assert means[0] == means[1] == means[2]
        assert len({id(mean) for mean in means}) == 3


def test_one_draw_per_population(monkeypatch) -> None:
    # The default grid's 972 points read 9 streams, one per (l, p) population.
    seeds = _count_draw_seeds(monkeypatch)
    grid = SweepGrid(*(tuple(DEFAULT_AUDIT_AXES[name]) for name in PARAM_NAMES), samples=10_000, seed=4)
    assert len(sweep(grid, workers=2)["points"]) == 972
    assert seeds == [
        derive_population_seed(4, l, p) for l in DEFAULT_AUDIT_AXES["l"] for p in DEFAULT_AUDIT_AXES["p"]
    ]

    seeds.clear()
    report = analyze(100, 0.1, 2.0, 0.5, 1.0, 0.5, [0.25, 1.0, 4.0], samples=10_000, seed=3)
    assert seeds == [derive_population_seed(3, 100, 0.1)]
    assert [pt["hazard_tail_mc"]["seed"] for pt in report["points"]] == seeds * 3


def test_tail_estimates_keep_their_stream() -> None:
    # Hit counts pinned from 0.2.0, which counted each block: the histogram keeps a seed's tail stream.
    pop = FailurePopulation(100, 0.1)
    n = mc.BLOCK_SIZE * 2 + 17
    for workers in (1, 4):
        estimates = [estimate_tail_probability(pop, c, n, 77, workers) for c in (12.0, -1.0, 8.0, math.nan, 3.5)]
        assert [round(e.estimate * n) for e in estimates] == [46213, 0, 13398, 0, 546]
        assert estimates[0] == MonteCarloEstimate(
            0.7049715497383796, 0.0017812359775802996, 0.7014684622062612, 0.7084506156809824, n, 77, 12.0
        )
        assert estimates[3].ci_high > 0.0  # a NaN cutoff is drawn and never hit


def _assert_one_line_error(argv, capsys, needle: str) -> None:
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert needle in err


_POINT_ARGS = ["--l", "10", "--p", "0.1", "--K-hat", "1", "--m-hat", "0", "--samples", "0"]


def test_cli_rejects_non_finite_parameters(capsys) -> None:
    for flags, needle in [
        (["--K", "inf", "--m", "0", "--t", "1"], "scale_k"),
        (["--K", "1", "--m", "inf", "--t", "1"], "shape_m"),
        (["--K", "1", "--m", "0", "--t", "inf"], "time t"),
    ]:
        _assert_one_line_error(["analyze", *_POINT_ARGS, *flags], capsys, needle)


def test_cli_power_overflow_is_domain_error(capsys) -> None:
    for flags, needle in [
        (["--K", "1", "--m", "2", "--t", "1e200"], "t=1e+200"),
        # The as-stated expectation proxy exceeds double range (default --mode both).
        (["--K", "1", "--m", "0", "--t", "800"], "(as-stated) overflows at time t=800.0"),
        (["--K", "1", "--m", "0", "--t", "1e10"], "(as-stated) overflows at time t=10000000000.0"),
        # A finite power times a large scale overflows to inf.
        (["--K", "1e300", "--m", "1", "--t", "1e10", "--mode", "sign-corrected"], "scale_k * t**1.0 overflows"),
        # A finite product over m + 1 for m just above -1 overflows to inf.
        (["--K", "1e300", "--m", "-0.9999999999999999", "--t", "1"], "overflows at time t=1.0"),
    ]:
        _assert_one_line_error(["analyze", *_POINT_ARGS, *flags], capsys, needle)
    near_minus_one = WeibullParams(1e300, -0.9999999999999999)
    with pytest.raises(ValueError, match="overflows at time t=1.0"):
        weibull_cumulative_hazard(near_minus_one, 1.0)
    with pytest.raises(ValueError, match="overflows at time t=1.0"):
        reliability_event_threshold(near_minus_one, WeibullParams(1.0, 0.0), 1.0)


def test_seeds_at_or_above_2_64_are_rejected(capsys) -> None:
    grid_args = ["--l", "10", "--p", "0.1", "--K", "1", "--m", "0", "--K-hat", "1", "--m-hat", "0", "--t", "1"]
    for command in ("analyze", "sweep"):
        _assert_one_line_error([command, *grid_args, "--seed", str(2**64 + 5)], capsys, "< 2**64")
    with pytest.raises(ValueError, match="2\\*\\*64"):
        SweepGrid((10,), (0.1,), (1.0,), (0.0,), (1.0,), (0.0,), (1.0,), seed=2**64)
    with pytest.raises(ValueError, match="2\\*\\*64"):
        derive_population_seed(2**64 + 5, 10, 0.1)
    largest = derive_population_seed(2**64 - 1, 10, 0.1)
    assert largest != derive_population_seed(5, 10, 0.1)
    pop = FailurePopulation(10, 0.1)
    with pytest.raises(ValueError, match="2\\*\\*64"):
        estimate_tail_probability(pop, 1.0, 1000, seed=2**64)
    with pytest.raises(ValueError, match="2\\*\\*64"):
        estimate_expected_reliability(CombinedHazardModel(WeibullParams(1.0, 0.0), pop), 1.0, 1000, seed=2**64)


def test_l_at_or_above_2_63_with_sampling_is_rejected(capsys) -> None:
    shape_args = ["--p", "0.1", "--K", "2", "--m", "0.5", "--K-hat", "1", "--m-hat", "0.5", "--t", "1"]
    huge = str(10**20)
    for command in ("analyze", "sweep"):
        _assert_one_line_error([command, "--l", huge, *shape_args, "--samples", "1000"], capsys, "< 2**63")
    assert main(["analyze", "--l", huge, *shape_args, "--samples", "0"]) == 0
    capsys.readouterr()
    huge_pop = FailurePopulation(10**20, 0.1)
    model = CombinedHazardModel(WeibullParams(1.0, 0.5), huge_pop)
    runs = [
        lambda: derive_population_seed(5, 2**63, 0.1),
        lambda: estimate_tail_probability(huge_pop, 3.0, 1000, 1),
        lambda: estimate_tail_probability(huge_pop, 0.0, 1000, 1),
        lambda: estimate_expected_reliability(model, 1.0, 1000, 1),
        lambda: estimate_reliability_exceedance(model, WeibullParams(2.0, 0.5), 1.0, 1000, 1),
        lambda: tail_event_indicators(FailurePopulation(2**63, 0.1), 3.0, 1000, 1),
    ]
    for run in runs:
        with pytest.raises(ValueError, match="2\\*\\*63"):
            run()


def test_analyze_checks_every_input_before_it_draws(monkeypatch) -> None:
    # Each fault is found before the population's 10**6 draws, with the message of the check that owns it.
    drawn = []
    draw_block = mc._draw_block
    monkeypatch.setattr(mc, "_draw_block", lambda *args: drawn.append(args) or draw_block(*args))
    point = dict(l=100, p=0.1, k=2.0, m=0.5, k_hat=1.0, m_hat=0.5, t_values=[1.0, 4.0])
    faults = [
        (dict(k=-2.0), "scale_k must be finite and > 0, got -2.0"),
        (dict(m=-1.0), "shape_m must be finite and > -1, got -1.0"),
        (dict(k_hat=math.inf), "scale_k must be finite and > 0, got inf"),
        (dict(m_hat=math.nan), "shape_m must be finite and > -1, got nan"),
        (dict(t_values=[1.0, -1.0]), "time t must be finite and > 0 for hazard evaluation, got -1.0"),
        (dict(modes=("bogus",)), "unknown mode 'bogus'"),
    ]
    for change, message in faults:
        with pytest.raises(ValueError) as info:
            analyze(**{**point, **change}, samples=10**6, seed=1)
        assert str(info.value) == message and not drawn, change
    analyze(**point, samples=1000, seed=1)
    assert len(drawn) == 1  # the counter does see a valid input's draws


def test_population_seeds_are_pinned() -> None:
    # Every Monte Carlo value of every report is drawn at these seeds: a change to their derivation shows here.
    assert derive_population_seed(12345, 100, 0.1) == 2059918203918664797
    assert derive_population_seed(0, 10, 0.01) == 5811070887516993662
    assert derive_population_seed(2**64 - 1, 1000, 0.5) == 13482921620695766570


def test_each_sampling_fault_has_one_message_at_every_entry_point(capsys) -> None:
    assert sdpbounds.report.derive_population_seed is mc.derive_population_seed
    axes = ((10,), (0.1,), (1.0,), (0.0,), (1.0,), (0.0,), (1.0,))
    point = (10, 0.1, 1.0, 0.0, 1.0, 0.0, [1.0])
    pop, huge_pop = FailurePopulation(10, 0.1), FailurePopulation(2**63, 0.1)
    model, huge_model = (CombinedHazardModel(WeibullParams(1.0, 0.0), q) for q in (pop, huge_pop))
    cli_args = ["--p", "0.1", "--K", "1", "--m", "0", "--K-hat", "1", "--m-hat", "0", "--t", "1"]
    faults = {
        "samples must be 0 (disabled) or >= 1000, got 999": [
            lambda: SweepGrid(*axes, samples=999),
            lambda: analyze(*point, samples=999),
        ],
        f"seed must be >= 0 and < 2**64, got {2**64}": [
            lambda: SweepGrid(*axes, seed=2**64),
            lambda: analyze(*point, seed=2**64),
            lambda: derive_population_seed(2**64, 10, 0.1),
            lambda: estimate_tail_probability(pop, 1.0, 1000, seed=2**64),
            lambda: estimate_expected_reliability(model, 1.0, 1000, seed=2**64),
        ],
        "workers must be >= 1, got 0": [
            lambda: analyze(*point, workers=0),
            lambda: sweep(SweepGrid(*axes), workers=0),
            lambda: estimate_tail_probability(pop, 1.0, 1000, 1, workers=0),
            lambda: estimate_expected_reliability(model, 1.0, 1000, 1, workers=0),
        ],
        f"l must be < 2**63 when sampling, got {2**63}": [
            lambda: analyze(2**63, *point[1:], samples=1000),
            lambda: derive_population_seed(1, 2**63, 0.1),
            lambda: estimate_tail_probability(huge_pop, 1.0, 1000, 1),
            lambda: estimate_expected_reliability(huge_model, 1.0, 1000, 1),
        ],
    }
    for message, runs in faults.items():
        for run in runs:
            with pytest.raises(ValueError) as info:
                run()
            assert str(info.value) == message
    # A sweep puts the population in front of the same message, and the CLI prints it as its one error line.
    with pytest.raises(ValueError) as info:
        sweep(SweepGrid((2**63,), *axes[1:], samples=1000))
    l_message = f"l={2**63}, p=0.1: l must be < 2**63 when sampling, got {2**63}"
    assert str(info.value) == l_message
    for flags, message in [(["--l", "10", "--seed", str(2**64)], f"seed must be >= 0 and < 2**64, got {2**64}"),
                           (["--l", "10", "--workers", "0"], "workers must be >= 1, got 0")]:
        for command in ("analyze", "sweep"):
            assert main([command, *cli_args, *flags]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"
    assert main(["sweep", *cli_args, "--l", str(2**63), "--samples", "1000"]) == 1
    assert capsys.readouterr().err == f"error: {l_message}\n"
