"""Binomial model of hidden failures among predicted-clean modules.

Each of the ``l`` predicted-clean modules is a Bernoulli trial that is
actually defective with probability ``p`` (the false omission rate), so the
latent failure count ``X`` is binomial(l, p).  This module provides its
exact lower tail Pr[X < threshold], one regularized incomplete beta function
that costs the same at every l; seeded sampling lives in ``montecarlo``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from scipy import special

__all__ = [
    "FailurePopulation",
    "binomial_cdf_below",
]


@dataclass(frozen=True)
class FailurePopulation:
    """Predicted-clean module count ``l`` and per-module failure probability ``p``.

    ``p`` must lie strictly inside (0, 1): the deviation bounds downstream are
    stated for non-degenerate Bernoulli trials, and the ingest layer flags
    degenerate confusion matrices before one of these can be built.
    """

    l: int
    p: float

    def __post_init__(self) -> None:
        if not isinstance(self.l, int) or isinstance(self.l, bool):
            raise ValueError(f"l must be an integer, got {self.l!r}")
        if self.l < 1:
            raise ValueError(f"l must be >= 1, got {self.l}")
        if self.l > sys.float_info.max:
            raise ValueError(f"l must be <= {sys.float_info.max!r}, got a {len(str(self.l))}-digit integer")
        if not (0.0 < self.p < 1.0):
            raise ValueError(f"p must satisfy 0 < p < 1, got {self.p}")


def binomial_cdf_below(pop: FailurePopulation, threshold: float) -> float:
    """Exact Pr[X < threshold] under the strict-inequality event convention.

    The deviation-bound events downstream are strict, so an integer threshold
    excludes the threshold value itself: Pr[X < 3] sums k in {0, 1, 2}.
    Returns 0.0 for threshold <= 0 (X is non-negative) or NaN (no count lies
    below it) and 1.0 for threshold > l.  Otherwise, with k the largest integer
    below the threshold, Pr[X <= k] = 1 - I_p(k + 1, l - k), the complemented
    regularized incomplete beta (DiDonato & Morris, ACM TOMS Alg. 708).
    Evaluating the complement at p, rather than I_{1-p}(l - k, k + 1), avoids
    rounding 1 - p, which costs relative accuracy when p is tiny and l is large.
    """
    if not threshold > 0.0:
        return 0.0
    if threshold > pop.l:
        return 1.0
    # Largest k with k < threshold; strict inequality drops an integral threshold.
    k = math.ceil(threshold) - 1
    return float(special.betaincc(k + 1, pop.l - k, pop.p))
