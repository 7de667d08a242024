"""The benchmark's output checks accept real reports and reject corrupted copies.

Run from the repository root: python3 -m pytest perfbench
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
from sdpbounds.cli import main  # noqa: E402

SMALL_GRID = ["--l", "10,1000", "--p", "0.1,0.5", "--K", "2.0,19.99", "--m", "0.5",
              "--K-hat", "1.0", "--m-hat", "0.0,0.5", "--t", "1.0,4.0"]
SMALL_POINTS = 32


@pytest.fixture(scope="module", params=["json", "csv"])
def real(request, tmp_path_factory):
    """(format, report text, captured stdout) of one real small sweep."""
    out = tmp_path_factory.mktemp("report") / f"sweep.{request.param}"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["sweep", *SMALL_GRID, "--samples", "0", "--out", str(out)]) == 0
    return request.param, out.read_text(encoding="utf-8"), stdout.getvalue()


def _edit(fmt: str, text: str, edit) -> str:
    """Apply edit(points) to a report's points (JSON) or rows (CSV) and re-serialise."""
    if fmt == "json":
        doc = json.loads(text)
        edit(doc["points"])
        return json.dumps(doc, indent=1)
    rows = list(csv.DictReader(io.StringIO(text)))
    edit(rows)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


def _all_checks(fmt: str, text: str, stdout: str) -> dict:
    report = checks.parse_report(text, fmt, stdout)
    return {
        "points": checks.check_points(report, SMALL_POINTS),
        "tallies": checks.check_tallies(report),
        "reference": checks.check_reference(report),
        "tails": checks.check_tails(report),
    }


def _failing(fmt: str, text: str, stdout: str) -> set:
    return {name for name, problems in _all_checks(fmt, text, stdout).items() if problems}


def test_real_report_passes_every_check(real) -> None:
    assert _failing(*real) == set()


def test_flipped_verdict_is_rejected(real) -> None:
    fmt, text, stdout = real

    def flip(points):
        point = points[0]
        if fmt == "json":
            audit = point["hazard_audit"]
            audit["verdict"] = "violated" if audit["verdict"] != "violated" else "holds"
        else:
            point["hazard_verdict"] = "violated" if point["hazard_verdict"] != "violated" else "holds"

    assert _failing(fmt, _edit(fmt, text, flip), stdout) == {"tallies"}


def test_violated_reference_is_rejected(real) -> None:
    fmt, text, stdout = real

    def violate(points):
        if fmt == "json":
            points[0]["reference_audit"]["verdict"] = "violated"
        else:
            points[0]["ref_verdict"] = "violated"

    assert "reference" in _failing(fmt, _edit(fmt, text, violate), stdout)


def test_perturbed_exact_tail_is_rejected(real) -> None:
    fmt, text, stdout = real
    key = "hazard_exact_tail"

    def perturb(points):
        point = next(pt for pt in points if 0.0 < float(pt[key]) < 1.0)
        value = float(point[key]) * (1.0 + 1e-8)
        point[key] = value if fmt == "json" else repr(value)

    assert _failing(fmt, _edit(fmt, text, perturb), stdout) == {"tails"}


def test_dropped_point_is_rejected(real) -> None:
    fmt, text, stdout = real
    assert _failing(fmt, _edit(fmt, text, lambda points: points.pop()), stdout) == {"points", "tallies"}


def test_nonfinite_tokens_are_counted() -> None:
    assert checks.nonfinite_tokens('{"a": -Infinity, "b": [NaN, Infinity], "note": "Infinity"}', "json") == 3
    assert checks.nonfinite_tokens("a,b\n-inf,1.0\nnan,information\n", "csv") == 2


def test_self_time_subtracts_child_spans() -> None:
    spans = [
        ["main", "cli", 0.0, 10.0, -1, 1, None],
        ["analyze_point", "report", 1.0, 5.0, 0, 1, None],
        ["binomial_cdf_below", "failures", 2.0, 4.0, 1, 1, [10, 0.5, 3.0]],
        ["binomial_cdf_below", "failures", 6.0, 7.0, 0, 1, [10, 0.5, 3.0]],
    ]
    assert tracing.self_times(spans) == [5.0, 2.0, 2.0, 1.0]
    metrics = tracing.layer_metrics(spans)
    assert metrics["cli.self_s"] == 5.0
    assert metrics["failures.cdf_busy_s"] == 3.0
    assert metrics["failures.cdf_distinct_frac"] == 0.5
