"""Analysis pipeline and reporting: per-point bound evaluation with audits,
parameter sweeps over the full axis set, and the report's JSON and sweep-CSV
forms.

Reports are plain dicts with a fixed key order so the JSON serialization is
byte-stable; numeric fields round-trip bit-exactly through the shortest-
round-trip float representation.  Sampling follows montecarlo's contract and
draws: each population (l, p) has one stream, at the seed
montecarlo.derive_population_seed gives for the base seed, l and p (not a
position), shared by every point and t of it through _population's caches.
analyze is the one-population sweep, so an analyze of any sweep point alone
gives that point's record, and the same error line.
"""

from __future__ import annotations

import functools
import io
import itertools
import json
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import __version__
from .bounds import _fields, _hazard_fields, _reliability_fields, reliability_event_threshold
from .failures import FailurePopulation, binomial_cdf_below
from .hazards import (
    AS_STATED,
    MODES,
    SIGN_CORRECTED,
    CombinedHazardModel,
    WeibullParams,
    _require_positive_time,
    expected_sdp_reliability_bound,
    expected_sdp_reliability_exact,
    weibull_hazard,
    weibull_reliability,
)
from .montecarlo import _audit_fields, _draw, _require_sampling, derive_population_seed

__all__ = [
    "SweepGrid",
    "derive_population_seed",
    "analyze",
    "sweep",
    "audit_summary",
    "monotonicity_in_l",
    "write_report",
    "read_report",
    "sweep_csv_text",
]

PARAM_NAMES = ("l", "p", "K", "m", "K_hat", "m_hat", "t")

# Default sweep used for bound-validity auditing.  Covers the canonical example
# point, near-mean cutoffs that expose comparison-bound violations, and both
# hazard shapes, while keeping every expectation proxy inside double range.
DEFAULT_AUDIT_AXES = {
    "l": (10, 100, 1000),
    "p": (0.01, 0.1, 0.5),
    "K": (0.5, 2.0, 19.99),
    "m": (0.0, 0.5),
    "K_hat": (0.5, 1.0, 10.0),
    "m_hat": (0.0, 0.5),
    "t": (0.25, 1.0, 4.0),
}


@dataclass(frozen=True)
class SweepGrid:
    """Sweep axes and sampling configuration; its checks build the populations and hazard pairs swept."""

    l_values: Tuple[int, ...]
    p_values: Tuple[float, ...]
    k_values: Tuple[float, ...]
    m_values: Tuple[float, ...]
    k_hat_values: Tuple[float, ...]
    m_hat_values: Tuple[float, ...]
    t_values: Tuple[float, ...]
    samples: int = 0
    seed: int = 0
    modes: Tuple[str, ...] = MODES
    _populations: Tuple[FailurePopulation, ...] = field(init=False, repr=False, compare=False)
    _pairs: Tuple[Tuple[WeibullParams, WeibullParams], ...] = field(init=False, repr=False, compare=False)

    @property
    def axes(self) -> Tuple[Tuple, ...]:
        """The seven axis value tuples, in PARAM_NAMES order."""
        return (self.l_values, self.p_values, self.k_values, self.m_values,
                self.k_hat_values, self.m_hat_values, self.t_values)

    def __post_init__(self) -> None:
        for name, values in zip(PARAM_NAMES, self.axes):
            if not values:
                raise ValueError(f"grid axis {name} is empty")
        # The domain types own the value checks, and what they build is what a report evaluates.
        populations = [FailurePopulation(l, p) for l, p in itertools.product(self.l_values, self.p_values)]
        manuals = [WeibullParams(k, m) for k, m in itertools.product(self.k_values, self.m_values)]
        residuals = [WeibullParams(k, m) for k, m in itertools.product(self.k_hat_values, self.m_hat_values)]
        for t in self.t_values:
            _require_positive_time(t)
        for pop in populations:  # every sampling fault, l < 2**63 too, before any draw
            _require_sampling(self.samples, self.seed, l=pop.l if self.samples else 0)
        if self.samples * len(populations) > 2**32:  # 2 to 7 minutes of draws at one worker (README)
            raise ValueError(f"samples x populations = {self.samples * len(populations)} draws, more than 2**32")
        for mode in self.modes:
            if mode not in MODES:
                raise ValueError(f"unknown mode {mode!r}")
        object.__setattr__(self, "_populations", tuple(populations))
        object.__setattr__(self, "_pairs", tuple(itertools.product(manuals, residuals)))


def _population(pop: FailurePopulation, grid: SweepGrid, workers: int) -> Tuple[Callable, Callable]:
    """The population's draws (None with sampling off; grid and sweep checked its contract) and the caches its points
    share, which keep no raise: tail(cutoff) gives (exact, MC tail or None), mean(residual, t) the MC mean or None."""
    draws = _draw(pop, grid.samples, derive_population_seed(grid.seed, pop.l, pop.p), workers) if grid.samples else None
    tail = functools.cache(lambda cutoff: (binomial_cdf_below(pop, cutoff), draws and draws.tail(cutoff)))
    mean = functools.cache(lambda residual, t: draws and draws.mean(CombinedHazardModel(residual, pop), t))
    return tail, mean


def _point(pop: FailurePopulation, manual: WeibullParams, residual: WeibullParams, t: float,
           modes: Sequence[str], tail: Callable, mean: Callable) -> Dict[str, object]:
    """One point's hazards, reliabilities, bounds and audits, from its population's caches (_population).

    Each quantity is computed once, in the order that decides which of several
    domain errors a point raises first (sweep puts the point in front): the
    hazards and bounds come before any tail, and the Monte Carlo mean last.
    Each bound record reads its tail, audit and a copy of its Monte Carlo tail
    by its own cutoff and bound, and the point a copy of its mean by residual
    and t (a shape of -0.0 is 0.0).  A cutoff here is a difference of finite
    doubles >= +0.0, so no key stands for -0.0 or NaN.  The records hold the
    fields of the public objects.
    """

    def audited(record: Dict[str, object]) -> Tuple[float, Dict[str, object], Optional[Dict[str, object]]]:
        threshold = record["event_threshold"]
        exact, mc = tail(threshold)
        return exact, _audit_fields(threshold, record["bound"], exact), mc and dict(vars(mc))

    model = CombinedHazardModel(residual, pop)
    coord = (pop.l, pop.p, manual.scale_k, manual.shape_m, residual.scale_k, residual.shape_m, t)
    lp = pop.l * pop.p

    # The expectations are the means the bounds substitute.
    manual_hazard = weibull_hazard(manual, t)
    hazard = _hazard_fields(lp, manual_hazard, weibull_hazard(residual, t), t)
    manual_reliability = weibull_reliability(manual, t)
    reliability_exact = expected_sdp_reliability_exact(model, t)
    threshold = reliability_event_threshold(manual, residual, t) if modes else None
    reliability = {mode: _reliability_fields(threshold, expected_sdp_reliability_bound(model, t, mode), mode)
                   for mode in modes}
    reference = _fields(hazard["event_threshold"], lp)  # reference_chernoff_bound's fields
    for record in (hazard, *reliability.values(), reference):
        for name in ("delta", "log_bound"):  # beyond double range: JSON has no such number
            if not math.isfinite(record[name]):
                record[name] = None

    point: Dict[str, object] = {
        **dict(zip(PARAM_NAMES, coord)),
        "expected_failures": lp,
        "manual_hazard": manual_hazard,
        "expected_hazard": hazard["mu_used"],
        "manual_reliability": manual_reliability,
        "expected_reliability_exact": reliability_exact,
        "expected_reliability_bound": {mode: record["mu_used"] for mode, record in reliability.items()},
    }

    point["hazard_bound"] = hazard
    point["hazard_exact_tail"], point["hazard_audit"], point["hazard_tail_mc"] = audited(hazard)

    point["reliability_bound"], point["reliability_exact_tail"] = {}, None
    for mode, record in reliability.items():
        point["reliability_exact_tail"], audit, mc = audited(record)
        point["reliability_bound"][mode] = {"bound": record, "audit": audit, "exceedance_mc": mc}

    point["reference_bound"] = reference
    point["reference_audit"] = audited(reference)[1]

    mc = mean(residual, t)
    point["expected_reliability_mc"] = mc and dict(vars(mc))
    return point


def analyze(
    l: int,
    p: float,
    k: float,
    m: float,
    k_hat: float,
    m_hat: float,
    t_values: Sequence[float],
    samples: int = 0,
    seed: int = 0,
    workers: int = 1,
    modes: Sequence[str] = MODES,
    provenance: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """The one-population sweep over times that share its draws, under analyze's own header and inputs."""
    grid = SweepGrid((l,), (p,), (k,), (m,), (k_hat,), (m_hat,), tuple(t_values), samples, seed, tuple(modes))
    swept = sweep(grid, workers)
    inputs = {"for_provenance": provenance or {"source": "literal"},
              "params": dict(zip(PARAM_NAMES, (l, p, k, m, k_hat, m_hat, list(t_values))))}
    return _report("analyze", samples, seed, modes, inputs, swept["points"], swept["summary"])


def sweep(grid: SweepGrid, workers: int = 1) -> Dict[str, object]:
    """Cartesian-product evaluation with verdict tallies and monotonicity check.

    l and p are the outer axes, so each population's points are contiguous
    in grid order: its draws and caches (_population) are made once and shared
    by them, and up to ``workers`` threads draw their blocks.  The grid has
    checked every input but ``workers``, sampling included, before any draw.
    Points are evaluated in grid order, and every per-point record is
    reproducible by an analyze of that point alone.  A point's domain error is
    raised with its coordinates in front.
    """
    _require_sampling(grid.samples, grid.seed, workers)
    points: List[Dict[str, object]] = []
    for pop in grid._populations:
        caches = _population(pop, grid, workers)
        for (manual, residual), t in itertools.product(grid._pairs, grid.t_values):
            try:
                points.append(_point(pop, manual, residual, t, grid.modes, *caches))
            except ValueError as exc:
                coord = (pop.l, pop.p, manual.scale_k, manual.shape_m, residual.scale_k, residual.shape_m, t)
                where = ", ".join(f"{name}={value!r}" for name, value in zip(PARAM_NAMES, coord))
                raise ValueError(f"{where}: {exc}") from exc

    summary: Dict[str, object] = {"audits": audit_summary(points)}
    if len(grid.l_values) > 1:
        summary["monotonicity_in_l"] = monotonicity_in_l(points)
    inputs = {"grid": {name: list(values) for name, values in zip(PARAM_NAMES, grid.axes)}}
    return _report("sweep", grid.samples, grid.seed, grid.modes, inputs, points, summary)


def _report(kind: str, samples: int, seed: int, modes: Sequence[str], inputs: Dict[str, object],
            points: List[Dict[str, object]], summary: Dict[str, object]) -> Dict[str, object]:
    """A report's top level, in the key order of every report: header, inputs, points, summary."""
    return {"toolkit_version": __version__, "kind": kind, "seed": seed, "samples": samples,
            "modes": list(modes), **inputs, "points": points, "summary": summary}


def audit_summary(points: Sequence[Dict[str, object]]) -> Dict[str, Dict[str, int]]:
    """Verdict tallies per bound family (and per mode for the reliability one)."""
    counters: Dict[str, Counter[str]] = defaultdict(Counter)
    for point in points:
        counters["hazard"][point["hazard_audit"]["verdict"]] += 1
        for mode, record in point["reliability_bound"].items():
            counters[f"reliability[{mode}]"][record["audit"]["verdict"]] += 1
        counters["reference"][point["reference_audit"]["verdict"]] += 1
    return {family: dict(sorted(v.items())) for family, v in sorted(counters.items())}


def monotonicity_in_l(points: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Check the hazard-comparison bound decreases strictly in l.

    Applies within every group of points sharing all other axes, restricted to
    groups where l*p + 2*K_hat*t**m_hat - K*t**m > 0 throughout (the regime in
    which the decrease is provable).  The check compares log_bound, the
    primary value (null read as -inf), so bounds that underflow to 0 still
    compare; a violation lists the bounds.
    """
    groups: Dict[Tuple, List[Tuple[int, float, float, bool]]] = {}
    for pt in points:
        key = tuple(pt[name] for name in PARAM_NAMES[1:])
        lp = pt["l"] * pt["p"]
        residual_hazard = pt["K_hat"] * pt["t"] ** pt["m_hat"]
        applicable = lp + 2.0 * residual_hazard - pt["manual_hazard"] > 0.0
        hazard = pt["hazard_bound"]
        log_bound = -math.inf if hazard["log_bound"] is None else hazard["log_bound"]
        groups.setdefault(key, []).append((pt["l"], log_bound, hazard["bound"], applicable))

    checked = 0
    violations: List[Dict[str, object]] = []
    for key, rows in groups.items():
        rows = sorted(set(rows))  # a repeated axis value repeats a row, not a step in l
        if len(rows) < 2 or not all(r[3] for r in rows):
            continue
        checked += 1
        if not all(hi > lo for (_, hi, *_), (_, lo, *_) in zip(rows, rows[1:])):
            violations.append(
                {
                    "axes": dict(zip(PARAM_NAMES[1:], key)),
                    "bounds_by_l": [[r[0], r[2]] for r in rows],
                }
            )
    return {"groups_checked": checked, "monotone": checked - len(violations), "violations": violations}


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------


def _report_json(report: Dict[str, object]) -> str:
    """Standard JSON text of a report: compact for a sweep, indented for people to read."""
    layout = {"separators": (",", ":")} if report["kind"] == "sweep" else {"indent": 1}
    return json.dumps(report, allow_nan=False, **layout) + "\n"  # json.dump never runs the C encoder


def write_report(report: Dict[str, object], path: str) -> None:
    """The sweep CSV of the report's points to a .csv path, its JSON to any other."""
    # The text is built first: a non-finite value raises before the file is opened.
    text = sweep_csv_text(report["points"]) if str(path).endswith(".csv") else _report_json(report)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def read_report(path: str) -> Dict[str, object]:
    """The JSON report in a UTF-8 file; one byte-order mark at its start is skipped."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        return json.load(fh)


def _flat_row(pt: Dict[str, object]) -> dict:
    """A report point as a sweep CSV row, column -> value in column order; a mode it lacks gives None."""
    erb = pt["expected_reliability_bound"]
    rel = pt["reliability_bound"]
    sc = rel.get(SIGN_CORRECTED)
    as_ = rel.get(AS_STATED)
    rel_any = sc or as_
    hazard = pt["hazard_bound"]
    return {
        **{name: pt[name] for name in (*PARAM_NAMES, "expected_hazard", "manual_hazard", "manual_reliability",
                                       "expected_reliability_exact")},
        "erb_sign_corrected": erb.get(SIGN_CORRECTED),
        "erb_as_stated": erb.get(AS_STATED),
        "hazard_threshold": hazard["event_threshold"],
        "hazard_delta": hazard["delta"],
        "hazard_mu": hazard["mu_used"],
        "hazard_bound": hazard["bound"],
        "hazard_log_bound": hazard["log_bound"],
        "hazard_flags": "|".join(hazard["domain_flags"]),
        "hazard_exact_tail": pt["hazard_exact_tail"],
        "hazard_verdict": pt["hazard_audit"]["verdict"],
        "rel_threshold": rel_any["bound"]["event_threshold"] if rel_any else None,
        "rel_sc_bound": sc["bound"]["bound"] if sc else None,
        "rel_sc_verdict": sc["audit"]["verdict"] if sc else None,
        "rel_as_bound": as_["bound"]["bound"] if as_ else None,
        "rel_as_verdict": as_["audit"]["verdict"] if as_ else None,
        "reliability_exact_tail": pt["reliability_exact_tail"],
        "ref_bound": pt["reference_bound"]["bound"],
        "ref_verdict": pt["reference_audit"]["verdict"],
    }


def sweep_csv_text(points: Sequence[Dict[str, object]]) -> str:
    """Flat CSV for sweep points; floats use shortest-round-trip text, and no points give "".

    A cell is a number, a fixed word or empty (None), so none is quoted; a non-zero float is formatted once."""
    texts: Dict[float, str] = {}  # a zero is formatted in place (0.0 == -0.0), and only a float is looked up (2 == 2.0)
    buffer = io.StringIO()
    buffer.writelines(",".join(_flat_row(pt)) + "\n" for pt in points[:1])  # the header: a row's keys
    for pt in points:  # row by row, so no more than one row's cells are held
        buffer.write(",".join([texts.get(v) or texts.setdefault(v, repr(v)) if type(v) is float and v
                               else "" if v is None else str(v) for v in _flat_row(pt).values()]) + "\n")
    return buffer.getvalue()
