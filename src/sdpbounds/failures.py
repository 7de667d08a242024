"""Binomial model of hidden failures among predicted-clean modules.

Each of the ``l`` predicted-clean modules is a Bernoulli trial that is
actually defective with probability ``p`` (the false omission rate), so the
latent failure count ``X`` is binomial(l, p).  This module provides the exact
distribution and its expectation; seeded sampling lives in ``montecarlo``.
The PMF is evaluated in log space (Loader's saddle-point form); the tail
Pr[X < threshold] is a regularized incomplete beta function, so the exact
oracle costs the same at every l.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy import special

__all__ = [
    "FailurePopulation",
    "expected_failures",
    "binomial_log_pmf",
    "binomial_pmf",
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
        if not (0.0 < self.p < 1.0):
            raise ValueError(f"p must satisfy 0 < p < 1, got {self.p}")


def expected_failures(pop: FailurePopulation) -> float:
    """Expected number of hidden failures, ``l * p``."""
    return pop.l * pop.p


# ---------------------------------------------------------------------------
# Log-space PMF.
#
# The naive route exp(lgamma(l+1) - lgamma(k+1) - lgamma(l-k+1) + ...) loses
# ~1e-9 relative accuracy at l ~ 1e6 because the three large lgamma values
# cancel.  The cancellation-free form below (Stirling-error correction plus a
# stable binomial-deviance term) keeps the relative error near machine
# precision for l up to 1e6 wherever the PMF is representable at all.
# ---------------------------------------------------------------------------

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _stirlerr(n: np.ndarray) -> np.ndarray:
    """log(n!) minus its Stirling approximation, elementwise for n >= 1."""
    n = np.asarray(n, dtype=float)
    out = np.empty_like(n)
    small = n < 16.0
    if np.any(small):
        ns = n[small]
        out[small] = (
            np.vectorize(math.lgamma)(ns + 1.0)
            - (_HALF_LOG_2PI + 0.5 * np.log(ns))
            - ns * (np.log(ns) - 1.0)
        )
    big = ~small
    if np.any(big):
        nn = n[big] * n[big]
        out[big] = (
            1.0 / 12.0
            - (1.0 / 360.0 - (1.0 / 1260.0 - (1.0 / 1680.0 - 1.0 / (1188.0 * nn)) / nn) / nn) / nn
        ) / n[big]
    return out


def _bd0(x: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """Binomial deviance x*log(x/mean) + mean - x, stable for x near mean."""
    x = np.asarray(x, dtype=float)
    mean = np.broadcast_to(np.asarray(mean, dtype=float), x.shape).copy()
    out = np.empty_like(x)

    near = np.abs(x - mean) < 0.1 * (x + mean)
    far = ~near
    if np.any(far):
        xf, mf = x[far], mean[far]
        out[far] = xf * np.log(xf / mf) + mf - xf
    if np.any(near):
        xn, mn = x[near], mean[near]
        v = (xn - mn) / (xn + mn)
        s = (xn - mn) * v
        ej = 2.0 * xn * v
        v2 = v * v
        j = 1
        while True:
            ej = ej * v2
            term = ej / (2 * j + 1)
            s_new = s + term
            if np.array_equal(s_new, s):
                break
            s = s_new
            j += 1
        out[near] = s
    return out


def _log_pmf_array(k: np.ndarray, l: int, p: float) -> np.ndarray:
    k = np.asarray(k, dtype=float)
    out = np.empty_like(k)

    at_zero = k == 0.0
    at_l = k == float(l)
    interior = ~(at_zero | at_l)

    out[at_zero] = l * math.log1p(-p)
    out[at_l] = l * math.log(p)
    if np.any(interior):
        ki = k[interior]
        li = float(l)
        out[interior] = (
            _stirlerr(np.array([li]))[0]
            - _stirlerr(ki)
            - _stirlerr(li - ki)
            - _bd0(ki, li * p)
            - _bd0(li - ki, li * (1.0 - p))
            + 0.5 * (np.log(li) - np.log(2.0 * math.pi) - np.log(ki) - np.log(li - ki))
        )
    return out


def binomial_log_pmf(pop: FailurePopulation, k: Union[int, np.ndarray]):
    """Natural log of Pr[X = k] for k in {0, ..., l}.

    Accepts a scalar or an integer array of k values; out-of-range k raises.
    """
    k_arr = np.atleast_1d(np.asarray(k))
    if np.any((k_arr < 0) | (k_arr > pop.l)):
        raise ValueError(f"k must lie in [0, {pop.l}]")
    if not np.all(k_arr == np.floor(k_arr)):
        raise ValueError("k must be integral")
    out = _log_pmf_array(k_arr, pop.l, pop.p)
    if np.isscalar(k) or np.ndim(k) == 0:
        return float(out[0])
    return out


def binomial_pmf(pop: FailurePopulation, k: Union[int, np.ndarray]):
    """Pr[X = k] = C(l, k) p^k (1-p)^(l-k), computed in log space."""
    log_val = binomial_log_pmf(pop, k)
    if isinstance(log_val, float):
        return math.exp(log_val)
    return np.exp(log_val)


def binomial_cdf_below(pop: FailurePopulation, threshold: float) -> float:
    """Exact Pr[X < threshold] under the strict-inequality event convention.

    The deviation-bound events downstream are strict, so an integer threshold
    excludes the threshold value itself: Pr[X < 3] sums k in {0, 1, 2}.
    Returns 0.0 for threshold <= 0 (X is non-negative) and 1.0 for
    threshold > l.  Otherwise, with k the largest integer below the threshold,
    Pr[X <= k] = 1 - I_p(k + 1, l - k), the complemented regularized
    incomplete beta (DiDonato & Morris, ACM TOMS Alg. 708).  Evaluating the
    complement at p, rather than I_{1-p}(l - k, k + 1), avoids rounding 1 - p,
    which costs relative accuracy when p is tiny and l is large.
    """
    if threshold <= 0.0:
        return 0.0
    if threshold > pop.l:
        return 1.0
    # Largest k with k < threshold; strict inequality drops an integral threshold.
    k = math.ceil(threshold) - 1
    return float(special.betaincc(k + 1, pop.l - k, pop.p))
