"""Analysis pipeline and reporting: per-point bound evaluation with audits,
parameter sweeps over the full axis set, and plot-ready series extraction.

Reports are plain dicts with a fixed key order so the JSON serialization is
byte-stable; numeric fields round-trip bit-exactly through the shortest-
round-trip float representation.  Monte Carlo draws depend only on the
defect-count population (l, p): its seed is derived from the base seed and
those two values (not a position), and its one stream is shared by every
point and every t of that population, so any sweep point is independently
recomputable by a single-point analysis.  The reliability mean depends on
(l, p, K_hat, m_hat, t) alone, so it is computed once per population and
(K_hat, m_hat, t) and every point of them reports that one estimate.  The MC
checks of one population's points are therefore not independent: an unlucky
stream shows at all of them.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
import struct
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

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
from .montecarlo import (AuditVerdict, MonteCarloEstimate, _draw, _Draws, _require_seed, _require_workers,
                         audit_bound)

__all__ = [
    "PLOT_SELECTORS",
    "SweepGrid",
    "derive_population_seed",
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


def _require_sampling(samples: int, seed: int, workers: int = 1) -> None:
    """The sampling contract of a run: samples 0 or >= 1000, a 64-bit seed, workers >= 1."""
    if samples and samples < 1000:
        raise ValueError(f"samples must be 0 (disabled) or >= 1000, got {samples}")
    _require_seed(seed)
    _require_workers(workers)


def derive_population_seed(base_seed: int, l: int, p: float) -> int:
    """Content-addressed seed of the (l, p) population's draws: position-independent and stable.

    ``base_seed`` must lie in [0, 2**64) and ``l`` below 2**63; distinct base
    seeds give distinct payloads, so no two of them share a substream by
    construction.
    """
    _require_seed(base_seed)
    if l >= 2**63:
        raise ValueError(f"l must be < 2**63 when sampling, got {l}")
    digest = hashlib.sha256(struct.pack("<Qqd", base_seed, l, p)).digest()
    return int.from_bytes(digest[:8], "little")


def _population_draws(l: int, p: float, samples: int, seed: int, workers: int) -> Optional[_Draws]:
    """The seeded draws of the (l, p) population, or None with sampling off."""
    if not samples:
        return None
    return _draw(FailurePopulation(l, p), samples, derive_population_seed(seed, l, p), workers)


def _report_dict(report: BoundReport) -> Dict[str, object]:
    record = {**vars(report), "domain_flags": sorted(report.domain_flags), "notes": list(report.notes)}
    for name in ("delta", "log_bound"):  # beyond double range: JSON has no such number
        if not math.isfinite(record[name]):
            record[name] = None
    return record


def _fields_dict(record: Union[AuditVerdict, MonteCarloEstimate, None]) -> Optional[Dict[str, object]]:
    return None if record is None else dict(vars(record))


def _point(l: int, p: float, k: float, m: float, k_hat: float, m_hat: float, t: float,
           modes: Sequence[str], draws: Optional[_Draws]) -> Dict[str, object]:
    """One point's hazards, reliabilities, bounds and audits, from the population's draws (None: no sampling)."""
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
    # reliability cutoff.  Each distinct cutoff value gets one exact tail;
    # with sampling on, every cutoff and the reliability mean read the
    # population's draws.  The estimates stay positional, so each carries its
    # own cutoff even where 0.0 == -0.0.
    cutoffs = [hazard_report.event_threshold]
    if modes:
        cutoffs.append(reliability_reports[modes[0]].event_threshold)
    oracle = {c: binomial_cdf_below(pop, c) for c in dict.fromkeys(cutoffs)}
    exact_tails = [oracle[c] for c in cutoffs]
    tail_mc = [None if draws is None else draws.tail(c) for c in cutoffs]

    point["hazard_bound"] = _report_dict(hazard_report)
    point["hazard_exact_tail"] = exact_tails[0]
    point["hazard_audit"] = _fields_dict(audit_bound(hazard_report, exact_tails[0]))
    point["hazard_tail_mc"] = _fields_dict(tail_mc[0])

    point["reliability_bound"] = {
        mode: {
            "bound": _report_dict(rel_report),
            "audit": _fields_dict(audit_bound(rel_report, exact_tails[1])),
            "exceedance_mc": _fields_dict(tail_mc[1]),
        }
        for mode, rel_report in reliability_reports.items()
    }
    point["reliability_exact_tail"] = exact_tails[1] if modes else None

    point["reference_bound"] = _report_dict(reference_report)
    point["reference_audit"] = _fields_dict(audit_bound(reference_report, exact_tails[0]))

    point["expected_reliability_mc"] = _fields_dict(None if draws is None else draws.mean(model, t))
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
    """Full-pipeline run report over a list of time points, which share one population's draws."""
    _require_sampling(samples, seed, workers)
    if not t_values:
        raise ValueError("at least one time point is required")
    draws = _population_draws(l, p, samples, seed, workers)
    points = [_point(l, p, k, m, k_hat, m_hat, t, modes, draws) for t in t_values]
    inputs = {"for_provenance": provenance or {"source": "literal"},
              "params": dict(zip(PARAM_NAMES, (l, p, k, m, k_hat, m_hat, list(t_values))))}
    return _report("analyze", samples, seed, modes, inputs, points, {"audits": audit_summary(points)})


def sweep(grid: SweepGrid, workers: int = 1) -> Dict[str, object]:
    """Cartesian-product evaluation with verdict tallies and monotonicity check.

    l and p are the outer axes, so each population's points are contiguous
    in grid order: its draws are made once and shared by them, and ``workers``
    threads draw their blocks.  Points are evaluated in grid order, and every
    per-point record is reproducible by an analyze of that point alone.  A
    point's domain error is raised with its coordinates in front (l and p
    alone for an error of the population's draws).
    """
    _require_sampling(grid.samples, grid.seed, workers)

    def located(coord: Tuple, fn, *args):
        try:
            return fn(*args)
        except ValueError as exc:
            where = ", ".join(f"{name}={value!r}" for name, value in zip(PARAM_NAMES, coord))
            raise ValueError(f"{where}: {exc}") from exc

    points: List[Dict[str, object]] = []
    for (l, p), coords in itertools.groupby(itertools.product(*grid.axes), key=lambda coord: coord[:2]):
        draws = located((l, p), _population_draws, l, p, grid.samples, grid.seed, workers)
        points += [located(c, _point, *c, grid.modes, draws) for c in coords]

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
_PLOTTED = {*PARAM_NAMES, *(col for curves in _PLOT_CURVES.values() for _, col in curves)}
_OPTIONAL_CELLS = ("hazard_exact_tail", "rel_sc_bound", "rel_as_bound")


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
    """Flat CSV for sweep points; floats use shortest-round-trip text, and no points give ""."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    rows = [_flat_row(pt) for pt in points]
    writer.writerows(rows[:1])  # the header: a row's keys
    writer.writerows(row.values() for row in rows)  # None is written as "", a float by its repr
    return buffer.getvalue()


def _cell(name: str, text: str) -> object:
    if not text and name in _OPTIONAL_CELLS:
        return None
    return int(text) if name == "l" else float(text)


def _rows_from_sweep_csv(path: str) -> List[dict]:
    """The plotted cells of a sweep CSV's rows, parsed, by column name.

    A missing plotted column is a KeyError; a malformed record, a ParseError with its record number.
    """
    rows: List[dict] = []
    header: Optional[List[str]] = None
    row_no = 0
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        try:
            for row_no, values in enumerate(csv.reader(fh), start=1):
                if not values:
                    continue
                if header is None:
                    header = values
                    where = {name: i for i, name in enumerate(header) if name in _PLOTTED}
                    missing = sorted(_PLOTTED - where.keys())
                    if missing:
                        raise KeyError(missing[0])
                    continue
                if len(values) != len(header):
                    raise ParseError(f"expected {len(header)} columns, got {len(values)}", row_no)
                try:
                    rows.append({name: _cell(name, values[i]) for name, i in where.items()})
                except ValueError as exc:
                    raise ParseError(f"bad value: {exc}", row_no) from exc
        except csv.Error as exc:
            raise ParseError(f"malformed CSV: {exc}", row_no + 1) from exc
    return rows


# ---------------------------------------------------------------------------
# Plot-ready series.
# ---------------------------------------------------------------------------


def _series(rows: Sequence[dict], selector: str) -> Tuple[str, List[Tuple[str, List[Tuple[float, float]]]]]:
    """The x axis and the series of plot_series, from flat rows."""
    if selector not in PLOT_SELECTORS:
        raise ValueError(f"unknown selector {selector!r}; expected one of {PLOT_SELECTORS}")
    # x is the single varying parameter, else t; the others that vary split the curves.
    varying = [name for name in PARAM_NAMES if len({row[name] for row in rows}) > 1]
    axis = varying[0] if len(varying) == 1 else "t"
    off_axis = [name for name in varying if name != axis]
    groups: Dict[Tuple, List[dict]] = {} if rows else {(): []}  # no rows: each curve once, empty
    for row in rows:
        groups.setdefault(tuple(row[name] for name in off_axis), []).append(row)

    curves = _PLOT_CURVES[selector]
    if selector == "bound_t2":
        held = [(name, col) for name, col in curves if any(row[col] is not None for row in rows)]
        # With no mode held, the one empty curve reads a column no row holds.
        curves = held or [("reliability_bound", curves[0][1])]

    def label(name: str, key: Tuple) -> str:
        suffix = ",".join(f"{param}={value:g}" for param, value in zip(off_axis, key))
        return f"{name} [{suffix}]" if suffix else name

    return axis, [
        (label(name, key), [(float(row[axis]), float(row[col])) for row in group if row[col] is not None])
        for name, col in curves
        for key, group in groups.items()
    ]


def _series_text(rows: Sequence[dict], selector: str) -> str:
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
        return plot_series_text(document["points"], selector)
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise ParseError(f"{path} is not a sdpbounds report") from exc
