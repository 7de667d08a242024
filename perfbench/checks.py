"""Correctness checks on the reports the benchmark's commands write.

Each check returns a list of problems; an empty list means it passed.  The
exact tails are compared with an independent evaluation through the
regularized incomplete beta function, Pr[X <= k] = I_{1-p}(l - k, k + 1).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from scipy.special import betainc

# Exact tails agree with betainc to a few 1e-13 at l up to 1e6; 1e-10 leaves
# room for a different summation order and still catches a perturbed value.
TAIL_RTOL = 1e-10

_CSV_VERDICTS = {
    "hazard": "hazard_verdict",
    "reliability[sign-corrected]": "rel_sc_verdict",
    "reliability[as-stated]": "rel_as_verdict",
    "reference": "ref_verdict",
}
_CSV_NONFINITE = {"nan", "inf", "-inf"}


@dataclass
class Report:
    """What the checks need from one report, whatever its format."""

    points: int
    verdicts: List[Dict[str, str]]  # per point: bound family -> verdict
    tails: List[Tuple[int, float, float, Optional[float]]]  # (l, p, cutoff, exact tail)
    tallies: Dict[str, Dict[str, int]]  # family -> verdict -> count, as the program wrote them


def parse_report(text: str, fmt: str, stdout: str) -> Report:
    """Read a JSON report, or a sweep CSV with its tallies from the command's stdout."""
    if fmt == "json":
        return _parse_json(text)
    return _parse_csv(text, stdout)


def _parse_json(text: str) -> Report:
    doc = json.loads(text)
    verdicts, tails = [], []
    for pt in doc["points"]:
        row = {"hazard": pt["hazard_audit"]["verdict"], "reference": pt["reference_audit"]["verdict"]}
        for mode, record in pt["reliability_bound"].items():
            row[f"reliability[{mode}]"] = record["audit"]["verdict"]
        verdicts.append(row)
        tails.append((pt["l"], pt["p"], pt["hazard_bound"]["event_threshold"], pt["hazard_exact_tail"]))
        for record in pt["reliability_bound"].values():
            tails.append((pt["l"], pt["p"], record["bound"]["event_threshold"], pt["reliability_exact_tail"]))
    return Report(len(doc["points"]), verdicts, tails, doc["summary"]["audits"])


def _parse_csv(text: str, stdout: str) -> Report:
    verdicts, tails = [], []
    rows = list(csv.DictReader(io.StringIO(text)))
    for row in rows:
        verdicts.append({family: row[col] for family, col in _CSV_VERDICTS.items() if row[col]})
        l, p = int(row["l"]), float(row["p"])
        for cutoff, exact in (("hazard_threshold", "hazard_exact_tail"),
                              ("rel_threshold", "reliability_exact_tail")):
            tails.append((l, p, float(row[cutoff]), float(row[exact]) if row[exact] else None))
    return Report(len(rows), verdicts, tails, _stdout_tallies(stdout))


def _stdout_tallies(stdout: str) -> Dict[str, Dict[str, int]]:
    """The 'audit summary:' block a sweep prints: '  family: verdict=count ...'."""
    tallies: Dict[str, Dict[str, int]] = {}
    lines = stdout.splitlines()
    if "audit summary:" not in lines:
        return tallies
    for line in lines[lines.index("audit summary:") + 1:]:
        if not line.startswith("  "):
            break
        family, _, counts = line.strip().partition(": ")
        tallies[family] = {v: int(c) for v, c in (item.split("=") for item in counts.split())}
    return tallies


def nonfinite_tokens(text: str, fmt: str) -> int:
    """NaN and Infinity tokens in a report: counted, not treated as failures."""
    if fmt == "json":
        found: List[str] = []
        json.loads(text, parse_constant=lambda token: found.append(token) or float(token))
        return len(found)
    return sum(field in _CSV_NONFINITE for row in csv.reader(io.StringIO(text)) for field in row)


def check_points(report: Report, expected: int) -> List[str]:
    if report.points != expected:
        return [f"report has {report.points} points, expected {expected}"]
    return []


def check_tallies(report: Report) -> List[str]:
    """Written tallies match a recount from the points, and each family sums to the point count."""
    recount: Dict[str, Dict[str, int]] = {}
    for row in report.verdicts:
        for family, verdict in row.items():
            counts = recount.setdefault(family, {})
            counts[verdict] = counts.get(verdict, 0) + 1
    problems = []
    for family in sorted(set(recount) | set(report.tallies)):
        written = report.tallies.get(family, {})
        if written != recount.get(family, {}):
            problems.append(f"{family}: written tallies {written} != recount {recount.get(family)}")
        if sum(written.values()) != report.points:
            problems.append(f"{family}: tallies sum to {sum(written.values())}, not {report.points}")
    if not report.tallies:
        problems.append("no verdict tallies found")
    return problems


def check_reference(report: Report) -> List[str]:
    bad = [i for i, row in enumerate(report.verdicts) if row.get("reference") == "violated"]
    return [f"reference audit violated at point {i}" for i in bad]


def reference_tail(l: int, p: float, cutoff: float) -> float:
    """Pr[X < cutoff] for X ~ binomial(l, p), through betainc."""
    if cutoff <= 0.0:
        return 0.0
    if cutoff > l:
        return 1.0
    k = math.ceil(cutoff) - 1
    return float(betainc(l - k, k + 1, 1.0 - p))


def check_tails(report: Report) -> List[str]:
    problems = []
    for l, p, cutoff, exact in report.tails:
        expected = reference_tail(l, p, cutoff)
        if exact is None or not abs(exact - expected) <= TAIL_RTOL * expected + 1e-300:
            problems.append(f"exact tail {exact} at l={l} p={p} cutoff={cutoff}; betainc gives {expected}")
    return problems

