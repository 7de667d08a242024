"""Span tracing of sdpbounds layer calls, installed from outside the package.

Each public function a layer offers is wrapped where its caller binds the
name (``sdpbounds.report.binomial_cdf_below``, ``sdpbounds.cli.write_report``
and so on), so nothing in the package changes.  Every call becomes a span
``[name, layer, start, end, parent, thread, probe]`` held in memory and
written out once, when the traced command ends.  A span's self time is its
duration minus that of its child spans.
"""

from __future__ import annotations

import functools
import json
import statistics
import threading
import time
from typing import Callable, Dict, List

# Caller module -> {bound name: layer}.  "report.serialize" is kept apart from
# the "report" pipeline so serialisation has its own busy time, and
# "montecarlo.audit" so sampling time excludes the auditor.
WRAPS: Dict[str, Dict[str, str]] = {
    "sdpbounds.cli": {
        "load_records": "ingest",
        "load_confusion": "ingest",
        "tally_confusion": "ingest",
        "summarize_project": "ingest",
        "false_omission_rate": "ingest",
        "validate_assumptions": "ingest",
        "analyze": "report",
        "sweep": "report",
        "write_report": "report.serialize",
        "sweep_csv_text": "report.serialize",
    },
    "sdpbounds.report": {
        "analyze_point": "report",
        "audit_summary": "report",
        "monotonicity_in_l": "report",
        "binomial_cdf_below": "failures",
        "expected_failures": "failures",
        "weibull_hazard": "hazards",
        "weibull_reliability": "hazards",
        "expected_combined_hazard": "hazards",
        "expected_sdp_reliability_exact": "hazards",
        "expected_sdp_reliability_bound": "hazards",
        "hazard_shortfall_bound": "bounds",
        "reliability_excess_bound": "bounds",
        "reference_chernoff_bound": "bounds",
        "estimate_tail_probability": "montecarlo",
        "estimate_expected_reliability": "montecarlo",
        "audit_bound": "montecarlo.audit",
    },
}

CDF = "binomial_cdf_below"
SAMPLERS = ("estimate_tail_probability", "estimate_expected_reliability")
POINT = "analyze_point"


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _population(pop) -> list:
    return [pop.l, pop.p]


# name -> probe(args, kwargs, result): the facts a span keeps about its call.
PROBES: Dict[str, Callable] = {
    CDF: lambda a, k, r: _population(_arg(a, k, 0, "pop")) + [_arg(a, k, 1, "threshold")],
    "estimate_tail_probability": lambda a, k, r: _population(_arg(a, k, 0, "pop"))
    + [_arg(a, k, 2, "n"), _arg(a, k, 3, "seed")],
    "estimate_expected_reliability": lambda a, k, r: _population(_arg(a, k, 0, "model").population)
    + [_arg(a, k, 2, "n"), _arg(a, k, 3, "seed")],
    "load_records": lambda a, k, r: len(r),
}


class Tracer:
    """Collects spans in memory; one instance per traced process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.missing: List[str] = []
        self._local = threading.local()

    def call(self, name: str, layer: str, fn: Callable, args: tuple, kwargs: dict):
        stack = self._local.__dict__.setdefault("stack", [])
        record = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, threading.get_ident(), None]
        stack.append(len(self.spans))
        self.spans.append(record)
        record[2] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[3] = time.perf_counter()
            stack.pop()
        probe = PROBES.get(name)
        if probe is not None:
            record[6] = probe(args, kwargs, result)
        return result

    def install(self, modules: Dict[str, object]) -> None:
        """Replace every name in WRAPS with a tracing wrapper; note absent ones."""
        for module_name, names in WRAPS.items():
            module = modules[module_name]
            for name, layer in names.items():
                fn = getattr(module, name, None)
                if fn is None:
                    self.missing.append(f"{module_name}.{name}")
                    continue
                setattr(module, name, self._wrapper(name, layer, fn))

    def _wrapper(self, name: str, layer: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, layer, fn, args, kwargs)

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "missing": self.missing}, fh)


def self_times(spans: List[list]) -> List[float]:
    child = [0.0] * len(spans)
    for span in spans:
        if span[4] >= 0:
            child[span[4]] += span[3] - span[2]
    return [span[3] - span[2] - child[i] for i, span in enumerate(spans)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: List[list]) -> Dict[str, float]:
    """Per-layer counts and self times of one traced command.

    A metric whose layer did no work reads 0.  The p98 of point time needs at
    least 10 points beyond it (500 points); with fewer it reads 0.
    """
    own = self_times(spans)
    busy: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for span, t in zip(spans, own):
        busy[span[1]] = busy.get(span[1], 0.0) + t
        calls[span[1]] = calls.get(span[1], 0) + 1

    cdf = [(span, t) for span, t in zip(spans, own) if span[0] == CDF]
    cdf_busy = sum(t for _, t in cdf)
    sampling = [(span, t) for span, t in zip(spans, own) if span[0] in SAMPLERS]
    draws = sum(span[6][2] for span, _ in sampling)
    mc_busy = sum(t for _, t in sampling)
    rows = sum(span[6] for span in spans if span[0] == "load_records")
    point_ms = [(span[3] - span[2]) * 1e3 for span in spans if span[0] == POINT]
    p98 = statistics.quantiles(point_ms, n=50, method="inclusive")[48] if len(point_ms) >= 500 else 0.0

    return {
        "failures.cdf_calls": len(cdf),
        "failures.cdf_busy_s": cdf_busy,
        "failures.cdf_us_per_call": _ratio(cdf_busy * 1e6, len(cdf)),
        "failures.cdf_distinct_frac": _ratio(len({tuple(s[6]) for s, _ in cdf}), len(cdf)),
        "montecarlo.draw_passes": len(sampling),
        "montecarlo.distinct_stream_frac": _ratio(len({tuple(s[6]) for s, _ in sampling}), len(sampling)),
        "montecarlo.draws": draws,
        "montecarlo.busy_s": mc_busy,
        "montecarlo.draws_per_s": _ratio(draws, mc_busy),
        "montecarlo.audit_calls": calls.get("montecarlo.audit", 0),
        "ingest.calls": calls.get("ingest", 0),
        "ingest.busy_s": busy.get("ingest", 0.0),
        "ingest.rows": rows,
        "ingest.rows_per_s": _ratio(rows, busy.get("ingest", 0.0)),
        "hazards.calls": calls.get("hazards", 0),
        "hazards.busy_s": busy.get("hazards", 0.0),
        "bounds.calls": calls.get("bounds", 0),
        "bounds.busy_s": busy.get("bounds", 0.0),
        "report.points": len(point_ms),
        "report.self_s": busy.get("report", 0.0),
        "report.point_ms.p50": statistics.median(point_ms) if point_ms else 0.0,
        "report.point_ms.p98": p98,
        "report.serialize_s": busy.get("report.serialize", 0.0),
        "cli.self_s": busy.get("cli", 0.0),
    }

