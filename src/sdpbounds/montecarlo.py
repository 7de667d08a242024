"""Seeded Monte Carlo estimation of tail events and expectations, plus the
auditor that compares bound reports against exact event probabilities.  The
estimates are reported beside the exact values; they decide no verdict.

Determinism contract: the sample index space is split into fixed-size blocks;
block i draws from an independent substream derived from (seed, i), and the
blocks' defect counts are merged with integer counts into one histogram, the
distinct values drawn and their multiplicities.  Results are therefore
bit-identical for any worker count and across runs.  The sampling contract
(samples, seed, workers, l < 2**63) is stated here once, one message per
fault, for these estimators and report's analyze and sweep alike.

The defect count depends on the population (l, p) alone, so a report draws
one stream per population, once, at derive_population_seed of the base seed,
l and p, as its histogram, the kernel of every estimate here: it builds the
fields of a tail (X < c) or a mean (of the SDP reliability, which depends on
the residual hazard and t but not on the manual hazard) through
MonteCarloEstimate and its checks, afresh on every call.  The public
estimators wrap those fields.  The hazard and reliability tails and the
reliability mean of all the population's points come from the same draws, so
their checks are not independent.  The tail intervals are Wilson score
intervals; the mean's is an empirical Bernstein bound, which stays valid
for a bounded variable whose mean sits in a tail the draws rarely reach.
"""

from __future__ import annotations

import hashlib
import math
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .bounds import BoundReport, reliability_event_threshold
from .failures import FailurePopulation
from .hazards import CombinedHazardModel, WeibullParams, sdp_reliability, weibull_reliability

__all__ = [
    "BLOCK_SIZE",
    "MonteCarloEstimate",
    "AuditVerdict",
    "VERDICT_HOLDS",
    "VERDICT_VIOLATED",
    "VERDICT_EXACT_ZERO",
    "wilson_interval",
    "derive_population_seed",
    "estimate_tail_probability",
    "estimate_expected_reliability",
    "estimate_reliability_exceedance",
    "tail_event_indicators",
    "audit_bound",
]

BLOCK_SIZE = 1 << 15

_Z95 = 1.959963984540054

# ln(4 / delta) for the two-sided 95% empirical Bernstein interval.
_LOG_4_OVER_DELTA = math.log(4.0 / 0.05)

VERDICT_HOLDS = "holds"
VERDICT_VIOLATED = "violated"
VERDICT_EXACT_ZERO = "exact-zero-event"


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Point estimate with a 95% interval and full reproducibility metadata.

    ``event_threshold`` is set by the tail estimators: the cutoff c of the
    event X < c that the estimate counts, reported beside the bound's own.
    """

    estimate: float
    std_error: float
    ci_low: float
    ci_high: float
    n_samples: int
    seed: int
    event_threshold: Optional[float] = None

    def __post_init__(self) -> None:
        if not (self.ci_low <= self.estimate <= self.ci_high):
            raise ValueError(
                f"interval [{self.ci_low}, {self.ci_high}] does not contain estimate {self.estimate}"
            )
        if self.std_error < 0.0:
            raise ValueError(f"std_error must be >= 0, got {self.std_error}")


@dataclass(frozen=True)
class AuditVerdict:
    """Outcome of checking one bound value against the exact event probability."""

    verdict: str
    bound_value: float
    empirical_value: float
    margin: float


def wilson_interval(successes: int, n: int) -> Tuple[float, float]:
    """95% Wilson score interval for a binomial proportion; robust near 0 and 1."""
    if n <= 0:
        raise ValueError("n must be positive")
    p_hat = successes / n
    denom = 1.0 + _Z95 * _Z95 / n
    center = (p_hat + _Z95 * _Z95 / (2.0 * n)) / denom
    half = (_Z95 / denom) * math.sqrt(p_hat * (1.0 - p_hat) / n + _Z95 * _Z95 / (4.0 * n * n))
    # At the boundary counts the analytic endpoint is exact; rounding in
    # center - half can otherwise push the interval off the observed rate.
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == n else min(1.0, center + half)
    return low, high


def _require_sampling(samples: int, seed: int, workers: int = 1, l: int = 0) -> None:
    """The sampling contract: samples 0 (off) or >= 1000, a seed in [0, 2**64), workers >= 1, l < 2**63."""
    if samples and samples < 1000:
        raise ValueError(f"samples must be 0 (disabled) or >= 1000, got {samples}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be >= 0 and < 2**64, got {seed}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if l >= 2**63:  # numpy draws l as a C long
        raise ValueError(f"l must be < 2**63 when sampling, got {l}")


def _validate_sampling_args(pop: FailurePopulation, n: int, seed: int, workers: int) -> None:
    if n < 1000:
        raise ValueError(f"n must be >= 1000, got {n}")
    _require_sampling(n, seed, workers, pop.l)


def derive_population_seed(base_seed: int, l: int, p: float) -> int:
    """Content-addressed seed of the (l, p) population's draws: position-independent and stable.

    ``base_seed`` must lie in [0, 2**64) and ``l`` below 2**63; distinct base
    seeds give distinct payloads, so no two of them share a substream by
    construction.
    """
    _require_sampling(0, base_seed, l=l)
    digest = hashlib.sha256(struct.pack("<Qqd", base_seed, l, p)).digest()
    return int.from_bytes(digest[:8], "little")


def _block_sizes(n: int) -> List[int]:
    full, rest = divmod(n, BLOCK_SIZE)
    sizes = [BLOCK_SIZE] * full
    if rest:
        sizes.append(rest)
    return sizes


def _draw_block(pop: FailurePopulation, seed: int, block_index: int, size: int) -> np.ndarray:
    """Defect-count draws for one block; substream fixed by (seed, block_index)."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(block_index,)))
    return rng.binomial(pop.l, pop.p, size=size)


def _map_blocks(n: int, workers: int, block_fn: Callable[[int, int], object]) -> List[object]:
    """Apply block_fn(block_index, size) to every block, results in index order."""
    sizes = _block_sizes(n)
    if workers <= 1 or len(sizes) <= 1:
        return [block_fn(i, s) for i, s in enumerate(sizes)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(block_fn, i, s) for i, s in enumerate(sizes)]
        return [f.result() for f in futures]


@dataclass(frozen=True, eq=False)
class _Draws:
    """A seed's n draws as a histogram, the kernel of the Monte Carlo estimates.

    ``values`` holds the distinct defect counts, ascending, and ``counts`` their multiplicities.  Each call
    builds an estimate's fields through MonteCarloEstimate, whose checks run then.
    """

    values: np.ndarray
    counts: np.ndarray
    n: int
    seed: int

    def tail(self, threshold: float) -> Dict[str, object]:
        """The fields of the hit rate of X < threshold with its Wilson interval, with the cutoff as given.

        A cutoff <= 0 is the impossible event, counted without the draws; a NaN cutoff is never hit.
        """
        n, seed = self.n, self.seed
        if threshold <= 0.0:
            return vars(MonteCarloEstimate(0.0, 0.0, 0.0, 0.0, n, seed, event_threshold=threshold))
        count = int(np.sum(self.counts[self.values < threshold]))
        p_hat = count / n
        ci_low, ci_high = wilson_interval(count, n)
        std_error = math.sqrt(p_hat * (1.0 - p_hat) / n)
        return vars(MonteCarloEstimate(p_hat, std_error, ci_low, ci_high, n, seed, event_threshold=threshold))

    def mean(self, model: CombinedHazardModel, t: float) -> Dict[str, object]:
        """The fields of the mean SDP reliability r of the model at t over the draws, with a two-sided
        empirical Bernstein interval for r in [0, bound], bound = weibull_reliability(residual, t).

        Maurer & Pontil (2009), Thm 4, with delta = 0.05 split across the two
        sides and scaled from [0, 1] to [0, bound].  Unlike mean +- z*se it holds
        when the draws miss the lower defect-count tail that carries the mean.

        The sums weigh r at each distinct value by the multiplicities, exactly
        rounded, in units of 2**E, the power of two that puts the largest r in
        [0.5, 1), so r*r and the variance cannot underflow; a power-of-two
        scaling is exact, so every result equals the unscaled computation
        wherever that one does not underflow.
        """
        n = self.n
        r = sdp_reliability(model, self.values, t)
        bound = weibull_reliability(model.residual, t)
        top = math.frexp(float(np.max(r)))[1]
        r = np.ldexp(r, -top)
        total = math.fsum(self.counts * r)
        total_sq = math.fsum(self.counts * (r * r))
        scaled_mean = total / n
        variance = max(0.0, (total_sq - n * scaled_mean * scaled_mean) / (n - 1))
        mean = math.ldexp(scaled_mean, top)
        std_error = math.ldexp(math.sqrt(variance / n), top)
        half = (math.ldexp(math.sqrt(2.0 * variance * _LOG_4_OVER_DELTA / n), top)
                + 7.0 * bound * _LOG_4_OVER_DELTA / (3.0 * (n - 1)))
        # Rounding can leave the mean of equal draws an ulp outside [0, bound].
        ci_low = min(max(0.0, mean - half), mean)
        ci_high = max(min(bound, mean + half), mean)
        return vars(MonteCarloEstimate(mean, std_error, ci_low, ci_high, n, self.seed))


def _draw(pop: FailurePopulation, n: int, seed: int, workers: int) -> _Draws:
    """The seed's stream, block by block, merged into one histogram."""
    _validate_sampling_args(pop, n, seed, workers)
    blocks = _map_blocks(
        n, workers, lambda i, size: np.unique(_draw_block(pop, seed, i, size), return_counts=True))
    values, where = np.unique(np.concatenate([b[0] for b in blocks]), return_inverse=True)
    counts = np.zeros(len(values), dtype=np.int64)
    np.add.at(counts, where, np.concatenate([b[1] for b in blocks]))
    return _Draws(values, counts, n, seed)


def _population_draws(pop: FailurePopulation, samples: int, seed: int, workers: int) -> Optional[_Draws]:
    """The draws of the population's stream at its seed derived from ``seed``, or None with sampling off."""
    if not samples:
        return None
    return _draw(pop, samples, derive_population_seed(seed, pop.l, pop.p), workers)


def estimate_tail_probability(
    pop: FailurePopulation,
    threshold: float,
    n: int,
    seed: int,
    workers: int = 1,
) -> MonteCarloEstimate:
    """Fraction of n seeded defect-count draws with X < threshold, Wilson CI.

    A cutoff <= 0 describes an impossible event (X >= 0) and gets a
    degenerate zero estimate without a draw; a NaN cutoff is drawn.  Like
    every estimator here it rejects ``workers`` < 1.
    """
    if threshold <= 0.0:
        _validate_sampling_args(pop, n, seed, workers)
        return MonteCarloEstimate(**_Draws((), (), n, seed).tail(threshold))
    return MonteCarloEstimate(**_draw(pop, n, seed, workers).tail(threshold))


def estimate_expected_reliability(
    model: CombinedHazardModel,
    t: float,
    n: int,
    seed: int,
    workers: int = 1,
) -> MonteCarloEstimate:
    """Mean SDP reliability over n seeded defect-count draws.

    The interval is the empirical Bernstein bound for r in
    [0, weibull_reliability(residual, t)]; ``std_error`` is the sample
    standard error.  At a population's seed this is the estimate that
    report.analyze reports, from the same draws as the tail counts.
    """
    return MonteCarloEstimate(**_draw(model.population, n, seed, workers).mean(model, t))


def estimate_reliability_exceedance(
    model: CombinedHazardModel,
    manual: WeibullParams,
    t: float,
    n: int,
    seed: int,
    workers: int = 1,
) -> MonteCarloEstimate:
    """Fraction of draws whose SDP reliability exceeds the manual reliability.

    Exceedance of the reliability random variable is equivalent, through the
    strict monotonicity of exp, to the defect count falling below the
    reliability-comparison cutoff; the indicator is evaluated on that count
    scale so this estimator shares draws *and* indicators with
    estimate_tail_probability at the same seed.
    """
    threshold = reliability_event_threshold(manual, model.residual, t)
    return estimate_tail_probability(model.population, threshold, n, seed, workers)


def tail_event_indicators(
    pop: FailurePopulation,
    threshold: float,
    n: int,
    seed: int,
) -> np.ndarray:
    """Materialized per-draw indicators (X < threshold) for the block scheme.

    Test hook: reproduces exactly the indicators the tail estimators count.
    """
    _validate_sampling_args(pop, n, seed, 1)
    return np.concatenate(_map_blocks(n, 1, lambda i, size: _draw_block(pop, seed, i, size) < threshold))


def _audit_fields(threshold: float, bound: float, exact: float) -> Dict[str, object]:
    """audit_bound's AuditVerdict fields for a bound on Pr[X < threshold]."""
    value = float(exact)
    if threshold <= 0.0:
        if value != 0.0:
            raise ValueError(f"event mismatch: cutoff {threshold} makes the event "
                             f"impossible but the exact probability is {value}")
        return {"verdict": VERDICT_EXACT_ZERO, "bound_value": bound, "empirical_value": 0.0, "margin": bound}
    verdict = VERDICT_VIOLATED if value > bound else VERDICT_HOLDS
    return {"verdict": verdict, "bound_value": bound, "empirical_value": value, "margin": bound - value}


def audit_bound(report: BoundReport, exact: float) -> AuditVerdict:
    """Compare a bound report with the exact probability of its event.

    Impossible events (cutoff <= 0 while X >= 0) short-circuit to the
    exact-zero-event verdict; a nonzero probability for such an event means
    the inputs describe different events and raises.
    """
    return AuditVerdict(**_audit_fields(report.event_threshold, report.bound, exact))
