"""Analysis pipeline and reporting: per-point bound evaluation with audits,
parameter sweeps over the full axis set, and plot-ready series extraction.

Reports are plain dicts with a fixed key order so the JSON serialization is
byte-stable; numeric fields round-trip bit-exactly through the shortest-
round-trip float representation.  Per-point Monte Carlo seeds are derived
from the base seed and the point's parameter values (not its position), so
any sweep point is independently recomputable by a single-point analysis.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import __version__
from .bounds import (
    BoundReport,
    hazard_shortfall_bound,
    reference_chernoff_bound,
    reliability_excess_bound,
)
from .failures import FailurePopulation, binomial_cdf_below, expected_failures
from .hazards import (
    AS_STATED,
    MODES,
    SIGN_CORRECTED,
    CombinedHazardModel,
    WeibullParams,
    _require_positive_time,
    expected_combined_hazard,
    expected_sdp_reliability_bound,
    expected_sdp_reliability_exact,
    weibull_hazard,
    weibull_reliability,
)
from .montecarlo import AuditVerdict, MonteCarloEstimate, _estimate_stream, audit_bound

__all__ = [
    "PLOT_SELECTORS",
    "SweepGrid",
    "derive_point_seed",
    "analyze_point",
    "analyze",
    "sweep",
    "audit_summary",
    "monotonicity_in_l",
    "write_report",
    "read_report",
    "sweep_csv_text",
    "plot_series",
    "plot_series_text",
]

PLOT_SELECTORS = ("hazard", "reliability", "bound_t1", "bound_t2", "exact_tail")

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
    """Axis value lists for a Cartesian sweep plus sampling configuration."""

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

    @property
    def axes(self) -> Tuple[Tuple, ...]:
        """The seven axis value tuples, in PARAM_NAMES order."""
        return (self.l_values, self.p_values, self.k_values, self.m_values,
                self.k_hat_values, self.m_hat_values, self.t_values)

    def __post_init__(self) -> None:
        for name, values in zip(PARAM_NAMES, self.axes):
            if not values:
                raise ValueError(f"grid axis {name} is empty")
        # The domain types own the value checks; every axis value meets them.
        for l, p in itertools.product(self.l_values, self.p_values):
            FailurePopulation(l, p)
        for k, m in itertools.product([*self.k_values, *self.k_hat_values],
                                      [*self.m_values, *self.m_hat_values]):
            WeibullParams(k, m)
        for t in self.t_values:
            _require_positive_time(t)
        if self.samples and self.samples < 1000:
            raise ValueError(f"samples must be 0 (disabled) or >= 1000, got {self.samples}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.seed >= 2**64:
            raise ValueError(f"seed must be < 2**64, got {self.seed}")
        for mode in self.modes:
            if mode not in MODES:
                raise ValueError(f"unknown mode {mode!r}")

    def points(self) -> Iterable[Tuple[int, float, float, float, float, float, float]]:
        return itertools.product(*self.axes)


def derive_point_seed(base_seed: int, l: int, p: float, k: float, m: float,
                      k_hat: float, m_hat: float, t: float, purpose: str) -> int:
    """Content-addressed substream seed: position-independent and stable.

    ``base_seed`` must lie in [0, 2**64) and ``l`` below 2**63; distinct base
    seeds give distinct payloads, so no two of them share a substream by
    construction.
    """
    if not 0 <= base_seed < 2**64:
        raise ValueError(f"seed must be >= 0 and < 2**64, got {base_seed}")
    if l >= 2**63:
        raise ValueError(f"l must be < 2**63 when sampling, got {l}")
    payload = struct.pack("<Q", base_seed)
    payload += struct.pack("<q6d", l, p, k, m, k_hat, m_hat, t)
    payload += purpose.encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "little")


def _report_dict(report: BoundReport) -> Dict[str, object]:
    return {
        "event_threshold": report.event_threshold,
        "delta": report.delta,
        "mu_used": report.mu_used,
        "log_bound": report.log_bound,
        "bound": report.bound,
        "domain_flags": sorted(report.domain_flags),
        "exact_probability": report.exact_probability,
        "notes": list(report.notes),
    }


def _estimate_dict(est: Optional[MonteCarloEstimate]) -> Optional[Dict[str, object]]:
    if est is None:
        return None
    return {
        "estimate": est.estimate,
        "std_error": est.std_error,
        "ci_low": est.ci_low,
        "ci_high": est.ci_high,
        "n_samples": est.n_samples,
        "seed": est.seed,
        "event_threshold": est.event_threshold,
    }


def _audit_dict(verdict: AuditVerdict) -> Dict[str, object]:
    return {
        "verdict": verdict.verdict,
        "bound_value": verdict.bound_value,
        "empirical_value": verdict.empirical_value,
        "margin": verdict.margin,
        # The exact tail decides every verdict; the keys stay for the report layout.
        "empirical_is_exact": True,
        "estimate": None,
    }


def analyze_point(
    l: int,
    p: float,
    k: float,
    m: float,
    k_hat: float,
    m_hat: float,
    t: float,
    samples: int = 0,
    seed: int = 0,
    workers: int = 1,
    modes: Sequence[str] = MODES,
) -> Dict[str, object]:
    """Evaluate hazards, reliabilities, all bounds, and audits at one point."""
    pop = FailurePopulation(l, p)
    manual = WeibullParams(k, m)
    residual = WeibullParams(k_hat, m_hat)
    model = CombinedHazardModel(residual, pop)

    point: Dict[str, object] = {
        "l": l,
        "p": p,
        "K": k,
        "m": m,
        "K_hat": k_hat,
        "m_hat": m_hat,
        "t": t,
    }
    point["expected_failures"] = expected_failures(pop)
    point["manual_hazard"] = weibull_hazard(manual, t)
    point["expected_hazard"] = expected_combined_hazard(model, t)
    point["manual_reliability"] = weibull_reliability(manual, t)
    point["expected_reliability_exact"] = expected_sdp_reliability_exact(model, t)
    point["expected_reliability_bound"] = {
        mode: expected_sdp_reliability_bound(model, t, mode) for mode in modes
    }

    hazard_report = hazard_shortfall_bound(pop, manual, residual, t)
    reliability_reports = {
        mode: reliability_excess_bound(pop, manual, residual, t, mode) for mode in modes
    }
    reference_report = reference_chernoff_bound(pop, hazard_report.event_threshold)

    # A point has at most two tail events, paired with the audits by position:
    # the reference audit shares the hazard cutoff and every mode shares the
    # reliability cutoff.  Each distinct cutoff value gets one exact tail and,
    # with sampling on, one count in the point's single draw pass, which also
    # gives the reliability mean.  The estimates stay positional, so each
    # carries its own cutoff even where 0.0 == -0.0.
    cutoffs = [hazard_report.event_threshold]
    if modes:
        cutoffs.append(reliability_reports[modes[0]].event_threshold)
    oracle = {c: binomial_cdf_below(pop, c) for c in dict.fromkeys(cutoffs)}
    exact_tails = [oracle[c] for c in cutoffs]
    if samples:
        tail_seed = derive_point_seed(seed, l, p, k, m, k_hat, m_hat, t, "tail")
        tail_mc, mean_mc = _estimate_stream(pop, cutoffs, samples, tail_seed, workers, model, t)
    else:
        tail_mc, mean_mc = (None,) * len(cutoffs), None

    point["hazard_bound"] = _report_dict(hazard_report)
    point["hazard_exact_tail"] = exact_tails[0]
    point["hazard_audit"] = _audit_dict(audit_bound(hazard_report, exact_tails[0]))
    point["hazard_tail_mc"] = _estimate_dict(tail_mc[0])

    point["reliability_bound"] = {
        mode: {
            "bound": _report_dict(rel_report),
            "audit": _audit_dict(audit_bound(rel_report, exact_tails[1])),
            "exceedance_mc": _estimate_dict(tail_mc[1]),
        }
        for mode, rel_report in reliability_reports.items()
    }
    point["reliability_exact_tail"] = exact_tails[1] if modes else None

    point["reference_bound"] = _report_dict(reference_report)
    point["reference_audit"] = _audit_dict(audit_bound(reference_report, exact_tails[0]))

    point["expected_reliability_mc"] = _estimate_dict(mean_mc)
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
    """Full-pipeline run report over a list of time points."""
    if not t_values:
        raise ValueError("at least one time point is required")
    points = [
        analyze_point(l, p, k, m, k_hat, m_hat, t, samples, seed, workers, modes)
        for t in t_values
    ]
    return {
        "toolkit_version": __version__,
        "kind": "analyze",
        "seed": seed,
        "samples": samples,
        "modes": list(modes),
        "for_provenance": provenance or {"source": "literal"},
        "params": {
            "l": l,
            "p": p,
            "K": k,
            "m": m,
            "K_hat": k_hat,
            "m_hat": m_hat,
            "t": list(t_values),
        },
        "points": points,
        "summary": {"audits": audit_summary(points)},
    }


def sweep(grid: SweepGrid, workers: int = 1) -> Dict[str, object]:
    """Cartesian-product evaluation with verdict tallies and monotonicity check.

    Points may be evaluated concurrently; assembly is in deterministic grid
    order and every per-point record is reproducible by analyze_point alone.
    A point's domain error is raised with all seven coordinates in front.
    """
    coords = list(grid.points())

    def evaluate(coord: Tuple) -> Dict[str, object]:
        try:
            return analyze_point(*coord, grid.samples, grid.seed, 1, grid.modes)
        except ValueError as exc:
            where = ", ".join(f"{name}={value!r}" for name, value in zip(PARAM_NAMES, coord))
            raise ValueError(f"{where}: {exc}") from exc

    if workers > 1 and len(coords) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            points = list(pool.map(evaluate, coords))
    else:
        points = [evaluate(c) for c in coords]

    summary: Dict[str, object] = {"audits": audit_summary(points)}
    if len(grid.l_values) > 1:
        summary["monotonicity_in_l"] = monotonicity_in_l(points)
    return {
        "toolkit_version": __version__,
        "kind": "sweep",
        "seed": grid.seed,
        "samples": grid.samples,
        "modes": list(grid.modes),
        "grid": {name: list(values) for name, values in zip(PARAM_NAMES, grid.axes)},
        "points": points,
        "summary": summary,
    }


def audit_summary(points: Sequence[Dict[str, object]]) -> Dict[str, Dict[str, int]]:
    """Verdict tallies per bound family (and per mode for the reliability one)."""
    counters: Dict[str, Dict[str, int]] = {}

    def bump(family: str, verdict: str) -> None:
        counters.setdefault(family, {})
        counters[family][verdict] = counters[family].get(verdict, 0) + 1

    for point in points:
        bump("hazard", point["hazard_audit"]["verdict"])
        for mode, record in point["reliability_bound"].items():
            bump(f"reliability[{mode}]", record["audit"]["verdict"])
        bump("reference", point["reference_audit"]["verdict"])
    return {family: dict(sorted(v.items())) for family, v in sorted(counters.items())}


def monotonicity_in_l(points: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Check the hazard-comparison bound decreases strictly in l.

    Applies within every group of points sharing all other axes, restricted to
    groups where l*p + 2*K_hat*t**m_hat - K*t**m > 0 throughout (the regime in
    which the decrease is provable).
    """
    groups: Dict[Tuple, List[Tuple[int, float, bool]]] = {}
    for pt in points:
        key = (pt["p"], pt["K"], pt["m"], pt["K_hat"], pt["m_hat"], pt["t"])
        lp = pt["l"] * pt["p"]
        residual_hazard = pt["K_hat"] * pt["t"] ** pt["m_hat"]
        manual_hazard = pt["K"] * pt["t"] ** pt["m"]
        applicable = lp + 2.0 * residual_hazard - manual_hazard > 0.0
        groups.setdefault(key, []).append((pt["l"], pt["hazard_bound"]["bound"], applicable))

    checked = 0
    monotone = 0
    violations: List[Dict[str, object]] = []
    for key, rows in groups.items():
        rows.sort(key=lambda r: r[0])
        if len(rows) < 2 or not all(r[2] for r in rows):
            continue
        checked += 1
        decreasing = all(hi > lo for (_, hi, _), (_, lo, _) in zip(rows, rows[1:]))
        if decreasing:
            monotone += 1
        else:
            violations.append(
                {
                    "axes": dict(zip(("p", "K", "m", "K_hat", "m_hat", "t"), key)),
                    "bounds_by_l": [[r[0], r[1]] for r in rows],
                }
            )
    return {"groups_checked": checked, "monotone": monotone, "violations": violations}


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------


def write_report(report: Dict[str, object], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")


def read_report(path: str) -> Dict[str, object]:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


_CSV_COLUMNS = [
    "l", "p", "K", "m", "K_hat", "m_hat", "t",
    "expected_hazard", "manual_hazard", "manual_reliability",
    "expected_reliability_exact",
    "erb_sign_corrected", "erb_as_stated",
    "hazard_threshold", "hazard_delta", "hazard_mu", "hazard_bound",
    "hazard_log_bound", "hazard_flags", "hazard_exact_tail", "hazard_verdict",
    "rel_threshold", "rel_sc_bound", "rel_sc_verdict", "rel_as_bound",
    "rel_as_verdict", "reliability_exact_tail",
    "ref_bound", "ref_verdict",
]


def _fmt(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def sweep_csv_text(points: Sequence[Dict[str, object]]) -> str:
    """Flat CSV for sweep points; floats use shortest-round-trip text."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for pt in points:
        erb = pt["expected_reliability_bound"]
        rel = pt["reliability_bound"]
        sc = rel.get(SIGN_CORRECTED)
        as_ = rel.get(AS_STATED)
        rel_any = sc or as_
        writer.writerow(
            [
                _fmt(pt[name]) for name in PARAM_NAMES
            ]
            + [
                _fmt(pt["expected_hazard"]),
                _fmt(pt["manual_hazard"]),
                _fmt(pt["manual_reliability"]),
                _fmt(pt["expected_reliability_exact"]),
                _fmt(erb.get(SIGN_CORRECTED)),
                _fmt(erb.get(AS_STATED)),
                _fmt(pt["hazard_bound"]["event_threshold"]),
                _fmt(pt["hazard_bound"]["delta"]),
                _fmt(pt["hazard_bound"]["mu_used"]),
                _fmt(pt["hazard_bound"]["bound"]),
                _fmt(pt["hazard_bound"]["log_bound"]),
                "|".join(pt["hazard_bound"]["domain_flags"]),
                _fmt(pt["hazard_exact_tail"]),
                pt["hazard_audit"]["verdict"],
                _fmt(rel_any["bound"]["event_threshold"] if rel_any else None),
                _fmt(sc["bound"]["bound"] if sc else None),
                sc["audit"]["verdict"] if sc else "",
                _fmt(as_["bound"]["bound"] if as_ else None),
                as_["audit"]["verdict"] if as_ else "",
                _fmt(pt["reliability_exact_tail"]),
                _fmt(pt["reference_bound"]["bound"]),
                pt["reference_audit"]["verdict"],
            ]
        )
    return buffer.getvalue()


# ---------------------------------------------------------------------------
# Plot-ready series.
# ---------------------------------------------------------------------------


def _sweep_axis(points: Sequence[Dict[str, object]]) -> str:
    """The single varying parameter if exactly one varies, else t."""
    varying = [name for name in PARAM_NAMES if len({pt[name] for pt in points}) > 1]
    if len(varying) == 1:
        return varying[0]
    return "t"


def plot_series(
    points: Sequence[Dict[str, object]],
    selector: str,
) -> List[Tuple[str, List[Tuple[float, float]]]]:
    """(curve name, [(x, y), ...]) series for one plottable quantity.

    When parameters other than the x axis also vary across the points, each
    distinct combination becomes its own curve, labelled with the varying
    values, so generic plotting tools never see interleaved series.
    """
    if selector not in PLOT_SELECTORS:
        raise ValueError(f"unknown selector {selector!r}; expected one of {PLOT_SELECTORS}")
    axis = _sweep_axis(points) if points else "t"
    off_axis = [
        name
        for name in PARAM_NAMES
        if name != axis and len({pt[name] for pt in points}) > 1
    ]

    groups: List[Tuple[Tuple, List[Dict[str, object]]]] = []
    index: Dict[Tuple, List[Dict[str, object]]] = {}
    for pt in points:
        key = tuple(pt[name] for name in off_axis)
        if key not in index:
            index[key] = []
            groups.append((key, index[key]))
        index[key].append(pt)

    def label(base: str, key: Tuple) -> str:
        if not off_axis:
            return base
        suffix = ",".join(f"{name}={value:g}" for name, value in zip(off_axis, key))
        return f"{base} [{suffix}]"

    def xy(group: Sequence[Dict[str, object]], value_fn) -> List[Tuple[float, float]]:
        out = []
        for pt in group:
            y = value_fn(pt)
            if y is None:
                continue
            out.append((float(pt[axis]), float(y)))
        return out

    if selector == "hazard":
        quantities = [
            ("expected_hazard", lambda pt: pt["expected_hazard"]),
            ("manual_hazard", lambda pt: pt["manual_hazard"]),
        ]
    elif selector == "reliability":
        quantities = [
            ("manual_reliability", lambda pt: pt["manual_reliability"]),
            ("expected_reliability_exact", lambda pt: pt["expected_reliability_exact"]),
        ]
    elif selector == "bound_t1":
        quantities = [("hazard_bound", lambda pt: pt["hazard_bound"]["bound"])]
    elif selector == "bound_t2":
        modes_present = sorted({mode for pt in points for mode in pt["reliability_bound"]})
        quantities = [
            (
                f"reliability_bound[{mode}]",
                lambda pt, mode=mode: pt["reliability_bound"][mode]["bound"]["bound"],
            )
            for mode in modes_present
        ] or [("reliability_bound", lambda pt: None)]
    else:  # exact_tail
        quantities = [("hazard_exact_tail", lambda pt: pt["hazard_exact_tail"])]

    if not points:
        return [(name, []) for name, _ in quantities]
    return [
        (label(name, key), xy(group, value_fn))
        for name, value_fn in quantities
        for key, group in groups
    ]


def plot_series_text(points: Sequence[Dict[str, object]], selector: str) -> str:
    """Two-column (x, y) text blocks, one block per curve."""
    axis = _sweep_axis(points) if points else "t"
    blocks = []
    for name, pairs in plot_series(points, selector):
        lines = [f"# curve: {name}", f"# x: {axis}"]
        lines += [f"{repr(x)} {repr(y)}" for x, y in pairs]
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"
