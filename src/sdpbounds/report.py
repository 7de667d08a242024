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
from collections import Counter, defaultdict
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
from .failures import FailurePopulation, binomial_cdf_below
from .hazards import (
    AS_STATED,
    MODES,
    SIGN_CORRECTED,
    CombinedHazardModel,
    WeibullParams,
    _require_positive_time,
    expected_sdp_reliability_exact,
    weibull_hazard,
    weibull_reliability,
)
from .ingest import ParseError
from .montecarlo import AuditVerdict, MonteCarloEstimate, _estimate_stream, _require_seed, audit_bound

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
        _require_sampling(self.samples, self.seed)
        for mode in self.modes:
            if mode not in MODES:
                raise ValueError(f"unknown mode {mode!r}")

    def points(self) -> Iterable[Tuple[int, float, float, float, float, float, float]]:
        return itertools.product(*self.axes)


def _require_sampling(samples: int, seed: int, workers: int = 1) -> None:
    """The sampling contract of a run: samples 0 or >= 1000, a 64-bit seed, workers >= 1."""
    if samples and samples < 1000:
        raise ValueError(f"samples must be 0 (disabled) or >= 1000, got {samples}")
    _require_seed(seed)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")


def derive_point_seed(base_seed: int, l: int, p: float, k: float, m: float,
                      k_hat: float, m_hat: float, t: float, purpose: str) -> int:
    """Content-addressed substream seed: position-independent and stable.

    ``base_seed`` must lie in [0, 2**64) and ``l`` below 2**63; distinct base
    seeds give distinct payloads, so no two of them share a substream by
    construction.
    """
    _require_seed(base_seed)
    if l >= 2**63:
        raise ValueError(f"l must be < 2**63 when sampling, got {l}")
    payload = struct.pack("<Q", base_seed)
    payload += struct.pack("<q6d", l, p, k, m, k_hat, m_hat, t)
    payload += purpose.encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "little")


def _report_dict(report: BoundReport) -> Dict[str, object]:
    return {**vars(report), "domain_flags": sorted(report.domain_flags), "notes": list(report.notes)}


def _estimate_dict(est: Optional[MonteCarloEstimate]) -> Optional[Dict[str, object]]:
    return None if est is None else dict(vars(est))


def _audit_dict(verdict: AuditVerdict) -> Dict[str, object]:
    # The exact tail decides every verdict; the last two keys stay for the report layout.
    return {**vars(verdict), "empirical_is_exact": True, "estimate": None}


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

    # The expectations are the means the bound reports substitute.
    manual_hazard = weibull_hazard(manual, t)
    hazard_report = hazard_shortfall_bound(pop, manual, residual, t)
    manual_reliability = weibull_reliability(manual, t)
    reliability_exact = expected_sdp_reliability_exact(model, t)
    reliability_reports = {
        mode: reliability_excess_bound(pop, manual, residual, t, mode) for mode in modes
    }
    reference_report = reference_chernoff_bound(pop, hazard_report.event_threshold)

    point: Dict[str, object] = {
        **dict(zip(PARAM_NAMES, (l, p, k, m, k_hat, m_hat, t))),
        "expected_failures": reference_report.mu_used,
        "manual_hazard": manual_hazard,
        "expected_hazard": hazard_report.mu_used,
        "manual_reliability": manual_reliability,
        "expected_reliability_exact": reliability_exact,
        "expected_reliability_bound": {mode: r.mu_used for mode, r in reliability_reports.items()},
    }

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
        "params": dict(zip(PARAM_NAMES, (l, p, k, m, k_hat, m_hat, list(t_values)))),
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
    which the decrease is provable).
    """
    groups: Dict[Tuple, List[Tuple[int, float, bool]]] = {}
    for pt in points:
        key = tuple(pt[name] for name in PARAM_NAMES[1:])
        lp = pt["l"] * pt["p"]
        residual_hazard = pt["K_hat"] * pt["t"] ** pt["m_hat"]
        applicable = lp + 2.0 * residual_hazard - pt["manual_hazard"] > 0.0
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
                    "axes": dict(zip(PARAM_NAMES[1:], key)),
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


# Plot selector -> (curve name, flat-row column) per curve.  bound_t2 draws the
# modes the points hold, or one empty curve when they hold none.
_PLOT_CURVES = {
    "hazard": [("expected_hazard", "expected_hazard"), ("manual_hazard", "manual_hazard")],
    "reliability": [("manual_reliability", "manual_reliability"),
                    ("expected_reliability_exact", "expected_reliability_exact")],
    "bound_t1": [("hazard_bound", "hazard_bound")],
    "bound_t2": [(f"reliability_bound[{AS_STATED}]", "rel_as_bound"),
                 (f"reliability_bound[{SIGN_CORRECTED}]", "rel_sc_bound")],
    "exact_tail": [("hazard_exact_tail", "hazard_exact_tail")],
}
PLOT_SELECTORS = tuple(_PLOT_CURVES)

# The cells a plot reads, parsed back from a sweep CSV; the hazard tail and the
# cells of a mode (empty when the sweep did not run it) may be empty.
_PLOTTED = [(i, name) for i, name in enumerate(_CSV_COLUMNS)
            if name in {*PARAM_NAMES, *(col for curves in _PLOT_CURVES.values() for _, col in curves)}]
_OPTIONAL_CELLS = ("hazard_exact_tail", "rel_sc_bound", "rel_as_bound")


def _fmt(value: object) -> str:
    return "" if value is None else str(value)  # str of a float is its shortest round trip


def _flat_row(pt: Dict[str, object]) -> list:
    """A report point's values in _CSV_COLUMNS order; a mode it lacks gives None."""
    erb = pt["expected_reliability_bound"]
    rel = pt["reliability_bound"]
    sc = rel.get(SIGN_CORRECTED)
    as_ = rel.get(AS_STATED)
    rel_any = sc or as_
    hazard = pt["hazard_bound"]
    return [
        *(pt[name] for name in PARAM_NAMES),
        pt["expected_hazard"],
        pt["manual_hazard"],
        pt["manual_reliability"],
        pt["expected_reliability_exact"],
        erb.get(SIGN_CORRECTED),
        erb.get(AS_STATED),
        hazard["event_threshold"],
        hazard["delta"],
        hazard["mu_used"],
        hazard["bound"],
        hazard["log_bound"],
        "|".join(hazard["domain_flags"]),
        pt["hazard_exact_tail"],
        pt["hazard_audit"]["verdict"],
        rel_any["bound"]["event_threshold"] if rel_any else None,
        sc["bound"]["bound"] if sc else None,
        sc["audit"]["verdict"] if sc else None,
        as_["bound"]["bound"] if as_ else None,
        as_["audit"]["verdict"] if as_ else None,
        pt["reliability_exact_tail"],
        pt["reference_bound"]["bound"],
        pt["reference_audit"]["verdict"],
    ]


def sweep_csv_text(points: Sequence[Dict[str, object]]) -> str:
    """Flat CSV for sweep points; floats use shortest-round-trip text."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for pt in points:
        writer.writerow([_fmt(value) for value in _flat_row(pt)])
    return buffer.getvalue()


def _cell(name: str, text: str) -> object:
    if not text and name in _OPTIONAL_CELLS:
        return None
    return int(text) if name == "l" else float(text)


def _rows_from_sweep_csv(path: str) -> List[list]:
    """Flat rows of a sweep CSV, plotted cells parsed and the others None.

    A malformed record is a ParseError with its record number.
    """
    rows: List[list] = []
    header: Optional[List[str]] = None
    row_no = 0
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            for row_no, values in enumerate(csv.reader(fh), start=1):
                if not values:
                    continue
                if header is None:
                    header = values
                    where = {name: i for i, name in enumerate(header)}
                    continue
                if len(values) != len(header):
                    raise ParseError(f"expected {len(header)} columns, got {len(values)}", row_no)
                row: list = [None] * len(_CSV_COLUMNS)
                try:
                    for i, name in _PLOTTED:
                        row[i] = _cell(name, values[where[name]])
                except ValueError as exc:
                    raise ParseError(f"bad value: {exc}", row_no) from exc
                rows.append(row)
        except csv.Error as exc:
            raise ParseError(f"malformed CSV: {exc}", row_no + 1) from exc
    return rows


# ---------------------------------------------------------------------------
# Plot-ready series.
# ---------------------------------------------------------------------------


def _series(rows: Sequence[list], selector: str) -> Tuple[str, List[Tuple[str, List[Tuple[float, float]]]]]:
    """The x axis and the series of plot_series, from flat rows."""
    if selector not in PLOT_SELECTORS:
        raise ValueError(f"unknown selector {selector!r}; expected one of {PLOT_SELECTORS}")
    # x is the single varying parameter, else t; the others that vary split the curves.
    varying = [i for i in range(len(PARAM_NAMES)) if len({row[i] for row in rows}) > 1]
    axis = varying[0] if len(varying) == 1 else PARAM_NAMES.index("t")
    off_axis = [i for i in varying if i != axis]
    groups: Dict[Tuple, List[list]] = {} if rows else {(): []}  # no rows: each curve once, empty
    for row in rows:
        groups.setdefault(tuple(row[i] for i in off_axis), []).append(row)

    curves = [(name, _CSV_COLUMNS.index(col)) for name, col in _PLOT_CURVES[selector]]
    if selector == "bound_t2":
        held = [(name, col) for name, col in curves if any(row[col] is not None for row in rows)]
        # With no mode held, the one empty curve reads a column no row holds.
        curves = held or [("reliability_bound", curves[0][1])]

    def label(name: str, key: Tuple) -> str:
        suffix = ",".join(f"{PARAM_NAMES[i]}={value:g}" for i, value in zip(off_axis, key))
        return f"{name} [{suffix}]" if suffix else name

    return PARAM_NAMES[axis], [
        (label(name, key), [(float(row[axis]), float(row[col])) for row in group if row[col] is not None])
        for name, col in curves
        for key, group in groups.items()
    ]


def _series_text(rows: Sequence[list], selector: str) -> str:
    axis, series = _series(rows, selector)
    blocks = []
    for name, pairs in series:
        lines = [f"# curve: {name}", f"# x: {axis}"]
        lines += [f"{repr(x)} {repr(y)}" for x, y in pairs]
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def plot_series(
    points: Sequence[Dict[str, object]],
    selector: str,
) -> List[Tuple[str, List[Tuple[float, float]]]]:
    """(curve name, [(x, y), ...]) series for one plottable quantity.

    When parameters other than the x axis also vary across the points, each
    distinct combination becomes its own curve, labelled with the varying
    values, so generic plotting tools never see interleaved series.
    """
    return _series([_flat_row(pt) for pt in points], selector)[1]


def plot_series_text(points: Sequence[Dict[str, object]], selector: str) -> str:
    """Two-column (x, y) text blocks, one block per curve."""
    return _series_text([_flat_row(pt) for pt in points], selector)


def _plotdata_text(path: str, selector: str) -> str:
    """plot_series_text of a sweep CSV or of an analyze or sweep JSON report."""
    if selector not in PLOT_SELECTORS:  # before the file is read
        raise ValueError(f"unknown selector {selector!r}; expected one of {PLOT_SELECTORS}")
    if path.endswith(".csv"):
        return _series_text(_rows_from_sweep_csv(path), selector)
    document = read_report(path)
    try:
        return _series_text([_flat_row(pt) for pt in document["points"]], selector)
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise ParseError(f"{path} is not a sdpbounds report") from exc
