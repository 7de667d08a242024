"""Report assembly, serialization round-trips, and the CLI surface."""

from __future__ import annotations

import csv
import errno
import gc
import importlib
import io
import json
import math
import os
import pathlib
import pkgutil
import random
import re
import subprocess
import sys
import time
from collections import Counter

import mpmath
import pytest

import sdpbounds
import sdpbounds.bounds
import sdpbounds.cli as cli
import sdpbounds.montecarlo
import sdpbounds.report
from sdpbounds.bounds import hazard_shortfall_bound, reference_chernoff_bound, reliability_excess_bound
from sdpbounds.montecarlo import audit_bound
from sdpbounds.cli import main
from sdpbounds.failures import FailurePopulation, binomial_cdf_below
from sdpbounds.hazards import CombinedHazardModel, WeibullParams, expected_sdp_reliability_bound, weibull_hazard
from sdpbounds.report import (
    DEFAULT_AUDIT_AXES,
    SweepGrid,
    analyze,
    derive_population_seed,
    monotonicity_in_l,
    read_report,
    sweep,
    sweep_csv_text,
    write_report,
)

CANONICAL = dict(l=100, p=0.1, k=2.0, m=0.5, k_hat=1.0, m_hat=0.5)


def analyze_point(l, p, k, m, k_hat, m_hat, t, **options):
    """The one point of an analyze report at time t."""
    return analyze(l, p, k, m, k_hat, m_hat, [t], **options)["points"][0]


def _float_leaves(node, path=""):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _float_leaves(value, f"{path}.{key}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _float_leaves(value, f"{path}[{i}]")
    elif isinstance(node, float):
        yield path, node


def _standard_json(text: str):
    """json.loads that rejects the NaN and Infinity tokens RFC 8259 does not allow."""
    def reject(token: str):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=reject)


def test_report_record_layouts_are_pinned() -> None:
    point = analyze_point(**CANONICAL, t=4.0, samples=2000, seed=3)
    assert list(point["hazard_bound"]) == [
        "event_threshold", "delta", "mu_used", "log_bound", "bound",
        "domain_flags", "exact_probability", "notes",
    ]
    estimate_keys = ["estimate", "std_error", "ci_low", "ci_high", "n_samples", "seed", "event_threshold"]
    assert list(point["hazard_tail_mc"]) == estimate_keys
    assert list(point["expected_reliability_mc"]) == estimate_keys
    assert list(point["hazard_audit"]) == ["verdict", "bound_value", "empirical_value", "margin"]


def test_analyze_point_canonical_values() -> None:
    point = analyze_point(**CANONICAL, t=4.0, samples=0)
    assert point["expected_hazard"] == pytest.approx(12.0, rel=1e-15)
    assert point["hazard_bound"]["bound"] == pytest.approx(1.5503853599e-2, rel=1e-10)
    assert point["hazard_exact_tail"] == pytest.approx(3.21688053194115e-4, rel=1e-11)
    assert point["hazard_audit"]["verdict"] == "holds"
    assert point["hazard_audit"]["margin"] > 1e-2
    assert point["reference_audit"]["verdict"] == "holds"


def test_analyze_point_identical_hazards_zero_event() -> None:
    point = analyze_point(100, 0.1, 1.0, 0.5, 1.0, 0.5, t=2.0, samples=0)
    assert point["hazard_bound"]["event_threshold"] == 0.0
    assert point["hazard_exact_tail"] == 0.0
    assert point["hazard_audit"]["verdict"] == "exact-zero-event"
    for record in point["reliability_bound"].values():
        assert record["audit"]["verdict"] == "exact-zero-event"


def _report_dict(report) -> dict:
    """The reference conversion of a BoundReport into a report record."""
    record = {**vars(report), "domain_flags": sorted(report.domain_flags), "notes": list(report.notes)}
    for name in ("delta", "log_bound"):
        if not math.isfinite(record[name]):
            record[name] = None
    return record


def test_report_records_are_the_public_objects_fields() -> None:
    # Every bound and audit record of a point is the converted result of the public function for it.
    def same(a, b) -> bool:
        # Floats print as their shortest round trip, so equal text is equal bits.
        return json.dumps(a) == json.dumps(b)

    axes = [DEFAULT_AUDIT_AXES[name] for name in ("l", "p", "K", "m", "K_hat", "m_hat", "t")]
    # Both proxies underflow, with a reliability cutoff > 0, < 0 (an exact-zero audit) and == 0; then a hazard
    # square that overflows, a hazard log_bound of -0.0, and identical hazards.
    edges = [analyze_point(10_000, 0.5, k, 0.0, 1000.0, 0.0, 1.0) for k in (1e4, 1.0, 1000.0)]
    edges += [analyze_point(17 * 10**307, 0.1, 1.0, 0.0, 1.0, 0.0, 1.0),
              analyze_point(10, 0.1, 3.0, 0.0, 1.0, 0.0, 1.0), analyze_point(100, 0.1, 1.0, 0.5, 1.0, 0.5, 2.0)]
    underflowed = [pt["reliability_bound"]["as-stated"] for pt in edges[:3]]
    assert [record["bound"]["delta"] for record in underflowed] == [None, None, 1.0]
    assert underflowed[1]["audit"]["verdict"] == "exact-zero-event"
    assert repr(edges[4]["hazard_bound"]["log_bound"]) == "-0.0"
    for pt in sweep(SweepGrid(*axes, samples=0))["points"] + edges:
        pop = FailurePopulation(pt["l"], pt["p"])
        manual, residual, t = WeibullParams(pt["K"], pt["m"]), WeibullParams(pt["K_hat"], pt["m_hat"]), pt["t"]
        hazard = hazard_shortfall_bound(pop, manual, residual, t)
        reference = reference_chernoff_bound(pop, hazard.event_threshold)
        exact = binomial_cdf_below(pop, hazard.event_threshold)
        assert same(pt["manual_hazard"], weibull_hazard(manual, t))
        assert same(pt["expected_hazard"], pt["l"] * pt["p"] + weibull_hazard(residual, t))
        assert same(pt["expected_failures"], pt["l"] * pt["p"])
        assert same(pt["hazard_bound"], _report_dict(hazard))
        assert same(pt["hazard_audit"], vars(audit_bound(hazard, exact)))
        assert same(pt["reference_bound"], _report_dict(reference))
        assert same(pt["reference_audit"], vars(audit_bound(reference, exact)))
        assert sorted(pt["reliability_bound"]) == ["as-stated", "sign-corrected"]
        for mode, record in pt["reliability_bound"].items():
            proxy = expected_sdp_reliability_bound(CombinedHazardModel(residual, pop), t, mode)
            reliability = reliability_excess_bound(pop, manual, residual, t, mode)
            assert same(pt["expected_reliability_bound"][mode], proxy)
            assert same(record["bound"], _report_dict(reliability))
            exact = binomial_cdf_below(pop, reliability.event_threshold)
            assert same(record["audit"], vars(audit_bound(reliability, exact)))


def test_analyze_report_shape_and_roundtrip(tmp_path) -> None:
    report = analyze(**CANONICAL, t_values=[1.0, 4.0], samples=2000, seed=11)
    path = tmp_path / "report.json"
    write_report(report, str(path))
    again = read_report(str(path))
    assert again == report
    originals = dict(_float_leaves(report))
    for key, value in _float_leaves(again):
        assert math.copysign(1, value) == math.copysign(1, originals[key])
        assert value == originals[key], key  # bit-exact float round-trip
    # A .csv path, given as a PathLike, gets the sweep CSV of the report's points.
    csv_path = pathlib.Path(tmp_path, "report.csv")
    write_report(report, csv_path)
    with open(csv_path, encoding="utf-8", newline="") as fh:
        assert fh.read() == sweep_csv_text(report["points"])


def test_population_seed_is_content_addressed() -> None:
    a = derive_population_seed(5, 100, 0.1)
    assert a == derive_population_seed(5, 100, 0.1)
    assert a != derive_population_seed(6, 100, 0.1)
    assert a != derive_population_seed(5, 1000, 0.1)
    assert a != derive_population_seed(5, 100, 0.5)
    assert 0 <= a < 2**64
    # K, m, K_hat, m_hat and t leave the seed alone: every point of a population reads one stream.
    for coords in [(2.0, 0.5, 1.0, 0.5, 4.0), (0.5, 0.5, 1.0, 0.5, 4.0), (2.0, 0.0, 1.0, 0.5, 4.0),
                   (2.0, 0.5, 10.0, 0.5, 4.0), (2.0, 0.5, 1.0, 0.0, 4.0), (2.0, 0.5, 1.0, 0.5, 0.25)]:
        point = analyze_point(100, 0.1, *coords, samples=1000, seed=5)
        assert point["hazard_tail_mc"]["seed"] == a
        assert point["expected_reliability_mc"]["seed"] == a


def test_sweep_points_recomputable_by_analyze() -> None:
    grid = SweepGrid(
        l_values=(10, 100),
        p_values=(0.1,),
        k_values=(2.0,),
        m_values=(0.5,),
        k_hat_values=(1.0,),
        m_hat_values=(0.5,),
        t_values=(1.0, 4.0),
        samples=2000,
        seed=21,
    )
    swept = sweep(grid, workers=3)
    assert len(swept["points"]) == 4
    for point in swept["points"]:
        single = analyze_point(
            point["l"], point["p"], point["K"], point["m"],
            point["K_hat"], point["m_hat"], point["t"],
            samples=2000, seed=21,
        )
        assert single == point


def test_single_point_sweep_matches_analyze() -> None:
    grid = SweepGrid((100,), (0.1,), (2.0,), (0.5,), (1.0,), (0.5,), (4.0,), samples=1000, seed=9)
    swept = sweep(grid)
    run = analyze(**CANONICAL, t_values=[4.0], samples=1000, seed=9)
    assert swept["points"] == run["points"]


def test_sweep_grid_validation() -> None:
    with pytest.raises(ValueError):
        SweepGrid((), (0.1,), (1.0,), (0.0,), (1.0,), (0.0,), (1.0,))
    with pytest.raises(ValueError):
        SweepGrid((10,), (1.5,), (1.0,), (0.0,), (1.0,), (0.0,), (1.0,))
    with pytest.raises(ValueError):
        SweepGrid((10,), (0.1,), (-1.0,), (0.0,), (1.0,), (0.0,), (1.0,))
    with pytest.raises(ValueError):
        SweepGrid((10,), (0.1,), (1.0,), (-1.5,), (1.0,), (0.0,), (1.0,))
    with pytest.raises(ValueError):
        SweepGrid((10,), (0.1,), (1.0,), (0.0,), (1.0,), (0.0,), (0.0,))
    with pytest.raises(ValueError):
        SweepGrid((10,), (0.1,), (1.0,), (0.0,), (1.0,), (0.0,), (1.0,), samples=17)


def test_library_entry_points_keep_the_sampling_contract() -> None:
    grid = SweepGrid((100,), (0.1,), (2.0,), (0.5,), (1.0,), (0.5,), (4.0,))
    too_few = re.escape("samples must be 0 (disabled) or >= 1000, got 17")
    runs = [
        (lambda: analyze(**CANONICAL, t_values=[4.0], workers=0), "workers must be >= 1, got 0"),
        (lambda: sweep(grid, workers=0), "workers must be >= 1, got 0"),
        (lambda: analyze(**CANONICAL, t_values=[4.0], samples=0, seed=-1), "seed must be >= 0"),
        (lambda: analyze(**CANONICAL, t_values=[4.0], samples=17), too_few),
        (lambda: analyze_point(100, 0.1, 2.0, 0.5, 1.0, 0.5, 4.0, samples=17), too_few),
    ]
    for run, message in runs:
        with pytest.raises(ValueError, match=message):
            run()


def test_sweep_grid_rejects_non_finite_axes() -> None:
    inf = math.inf
    for axes, needle in [
        (((10,), (0.1,), (inf,), (0.0,), (1.0,), (0.0,), (1.0,)), "scale_k"),
        (((10,), (0.1,), (1.0,), (0.0,), (inf,), (0.0,), (1.0,)), "scale_k"),
        (((10,), (0.1,), (1.0,), (inf,), (1.0,), (0.0,), (1.0,)), "shape_m"),
        (((10,), (0.1,), (1.0,), (0.0,), (1.0,), (inf,), (1.0,)), "shape_m"),
        (((10,), (0.1,), (1.0,), (0.0,), (1.0,), (0.0,), (inf,)), "time t"),
    ]:
        with pytest.raises(ValueError, match=needle):
            SweepGrid(*axes)


def test_monotonicity_summary_in_sweep() -> None:
    grid = SweepGrid(
        l_values=(10, 100, 1000),
        p_values=(0.1,),
        k_values=(2.0,),
        m_values=(0.5,),
        k_hat_values=(1.0,),
        m_hat_values=(0.5,),
        t_values=(4.0,),
        samples=0,
        seed=0,
    )
    swept = sweep(grid)
    mono = swept["summary"]["monotonicity_in_l"]
    assert mono["groups_checked"] == 1
    assert mono["monotone"] == 1
    assert mono["violations"] == []
    bounds = [pt["hazard_bound"]["bound"] for pt in swept["points"]]
    assert bounds[0] > bounds[1] > bounds[2]


def test_monotonicity_ignores_a_repeated_axis_value(tmp_path, capsys) -> None:
    # -0.0 and 0.0 are one group key, so their points repeat each l of the group.
    axes = dict(l_values=(10, 100, 1000), p_values=(0.1,), k_values=(2.0,), k_hat_values=(1.0,),
                m_hat_values=(0.5,), t_values=(4.0,))
    for m_values in [(-0.0, 0.0), (0.0,)]:
        mono = sweep(SweepGrid(m_values=m_values, **axes))["summary"]["monotonicity_in_l"]
        assert mono == {"groups_checked": 1, "monotone": 1, "violations": []}, m_values
    args = ["sweep", "--l", "10,10,100", "--p", "0.1", "--K", "2", "--m", "0.5", "--K-hat", "1",
            "--m-hat", "0.5", "--t", "4", "--samples", "0", "--out", str(tmp_path / "sweep.json")]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "monotonicity in l: 1/1 groups strictly decreasing\n" in out
    assert "non-monotone" not in out


def _hazard_point(l: int, log_bound) -> dict:
    """A point with the fields monotonicity_in_l reads; l*p + 2*K_hat*t**m_hat - K*t**m > 0."""
    return {"l": l, "p": 0.5, "K": 2.0, "m": 0.5, "K_hat": 1.0, "m_hat": 0.5, "t": 1.0, "manual_hazard": 2.0,
            "hazard_bound": {"log_bound": log_bound, "bound": 0.0 if log_bound is None else math.exp(log_bound)}}


def test_monotonicity_compares_log_bounds(tmp_path, capsys) -> None:
    # exp(-1000) and exp(-900) both underflow to 0.0; a null log_bound is -inf.
    axes = {"p": 0.5, "K": 2.0, "m": 0.5, "K_hat": 1.0, "m_hat": 0.5, "t": 1.0}
    for logs, violated in [((-900.0, -1000.0), False), ((-3.0, None), False),
                           ((-1000.0, -900.0), True), ((None, -3.0), True), ((-3.0, -3.0), True)]:
        points = [_hazard_point(10, logs[0]), _hazard_point(100, logs[1])]
        bounds_by_l = [[pt["l"], pt["hazard_bound"]["bound"]] for pt in points]
        violations = [{"axes": axes, "bounds_by_l": bounds_by_l}] if violated else []
        assert monotonicity_in_l(points) == {
            "groups_checked": 1, "monotone": 0 if violated else 1, "violations": violations}, logs
    # l*p rounds to one double at l = 1e17 and 1e17 + 1, so the two log_bounds tie, and sweep prints the group.
    assert main(["sweep", "--l", "100000000000000000,100000000000000001", "--p", "0.5", "--K", "1", "--m", "0",
                 "--K-hat", "1", "--m-hat", "0", "--t", "1", "--samples", "0", "--mode", "sign-corrected",
                 "--out", str(tmp_path / "sweep.json")]) == 0
    assert capsys.readouterr().out.endswith(
        "monotonicity in l: 0/1 groups strictly decreasing\n"
        "  non-monotone at {'p': 0.5, 'K': 1.0, 'm': 0.0, 'K_hat': 1.0, 'm_hat': 0.0, 't': 1.0}: "
        "[[100000000000000000, 0.0], [100000000000000001, 0.0]]\n")


def test_cli_sweep_underflowed_hazard_bounds_are_monotone(tmp_path, capsys) -> None:
    # Both hazard bounds underflow to 0.0; their log_bounds still fall with l.
    args = ["sweep", "--l", "10000,100000", "--p", "0.5", "--K", "2", "--m", "0.5", "--K-hat", "1",
            "--m-hat", "0.5", "--t", "1", "--samples", "0", "--out", str(tmp_path / "sweep.json")]
    report = sweep(SweepGrid((10000, 100000), (0.5,), (2.0,), (0.5,), (1.0,), (0.5,), (1.0,)))
    assert [pt["hazard_bound"]["bound"] for pt in report["points"]] == [0.0, 0.0]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "monotonicity in l: 1/1 groups strictly decreasing\n" in out
    assert "non-monotone" not in out


def test_monotonicity_skips_inapplicable_groups() -> None:
    # lp + 2A - B < 0 at small l here, so the group is not checked.
    points = [
        analyze_point(l, 0.01, 30.0, 0.0, 1.0, 0.0, 1.0, samples=0)
        for l in (10, 100)
    ]
    mono = monotonicity_in_l(points)
    assert mono["groups_checked"] == 0


def test_audit_summary_counts() -> None:
    report = analyze(**CANONICAL, t_values=[1.0, 4.0], samples=0)
    audits = report["summary"]["audits"]
    assert audits["hazard"] == {"holds": 2}
    assert audits["reference"] == {"holds": 2}
    assert set(audits) == {"hazard", "reference", "reliability[as-stated]", "reliability[sign-corrected]"}


def test_sweep_csv_contains_points_and_roundtrips_floats() -> None:
    grid = SweepGrid((100,), (0.1,), (2.0,), (0.5,), (1.0,), (0.5,), (4.0,), samples=0, seed=0)
    swept = sweep(grid)
    text = sweep_csv_text(swept["points"])
    lines = text.strip().split("\n")
    assert len(lines) == 2
    header = lines[0].split(",")
    row = lines[1].split(",")
    record = dict(zip(header, row))
    assert float(record["hazard_bound"]) == swept["points"][0]["hazard_bound"]["bound"]
    assert float(record["hazard_exact_tail"]) == swept["points"][0]["hazard_exact_tail"]
    assert record["hazard_verdict"] == "holds"


def test_sweep_csv_layout_is_pinned(tmp_path, capsys) -> None:
    default_grid = [arg for name, values in DEFAULT_AUDIT_AXES.items()
                    for arg in ("--" + name.replace("_", "-"), ",".join(map(str, values)))]
    paths = {mode: tmp_path / f"{mode}.csv" for mode in ("both", "as-stated")}
    for mode, path in paths.items():
        assert main(["sweep", *default_grid, "--samples", "0", "--mode", mode, "--out", str(path)]) == 0
    capsys.readouterr()
    header, *rows = paths["both"].read_text(encoding="utf-8").splitlines()
    assert header.split(",") == [
        "l", "p", "K", "m", "K_hat", "m_hat", "t",
        "expected_hazard", "manual_hazard", "manual_reliability", "expected_reliability_exact",
        "erb_sign_corrected", "erb_as_stated",
        "hazard_threshold", "hazard_delta", "hazard_mu", "hazard_bound",
        "hazard_log_bound", "hazard_flags", "hazard_exact_tail", "hazard_verdict",
        "rel_threshold", "rel_sc_bound", "rel_sc_verdict", "rel_as_bound",
        "rel_as_verdict", "reliability_exact_tail",
        "ref_bound", "ref_verdict",
    ]
    assert len(rows) == 972
    # A mode the sweep did not run leaves its cells empty on every row.
    as_header, *as_rows = paths["as-stated"].read_text(encoding="utf-8").splitlines()
    assert as_header == header and len(as_rows) == 972
    for row in as_rows:
        record = dict(zip(header.split(","), row.split(",")))
        assert record["rel_sc_bound"] == record["rel_sc_verdict"] == record["erb_sign_corrected"] == "", row
        assert record["rel_as_bound"] and record["rel_as_verdict"] and record["erb_as_stated"], row
    # The README's plotting table names sweep-CSV columns only.
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"), encoding="utf-8") as fh:
        table = re.findall(r"^\| `\w+`[^|]*\| (.+) \|$", fh.read(), re.MULTILINE)
    plotted = {name for cell in table for name in re.findall(r"`(\w+)`", cell)}
    assert len(table) == 5 and plotted and plotted <= set(header.split(",")), plotted


def _csv_writer_text(points) -> str:
    """The sweep CSV as csv.writer writes it, the reference for the hand-joined rows."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    rows = [sdpbounds.report._flat_row(pt) for pt in points]
    writer.writerows(rows[:1])
    writer.writerows(row.values() for row in rows)
    return buffer.getvalue()


def test_sweep_csv_matches_csv_writer() -> None:
    default = [tuple(values) for values in DEFAULT_AUDIT_AXES.values()]
    grids = [SweepGrid(*default, samples=samples, seed=5, modes=modes)
             for modes in (("as-stated", "sign-corrected"), ("as-stated",), ("sign-corrected",))
             for samples in (0, 1000)]
    grids.append(SweepGrid(*default, modes=()))
    # Library grids: int axis values beside equal floats (K 2 and t 2.0), and a point whose
    # hazard_log_bound is -0.0 beside 0.0 cells (l*p - K + 2*K_hat = 0).
    grids.append(SweepGrid((10, 100), (0.1,), (2, 0.5), (0, 1), (1, 2.0), (0,), (2.0, 1)))
    grids.append(SweepGrid((10,), (0.1,), (3.0,), (0.0,), (1.0,), (0.0,), (1.0,)))
    texts = []
    for grid in grids:
        points = sweep(grid)["points"]
        texts.append(sweep_csv_text(points))
        assert texts[-1] == _csv_writer_text(points), grid
        lines = texts[-1].splitlines()
        assert len(lines) == len(points) + 1 and '"' not in texts[-1], grid
        assert [line.split(",") for line in lines] == list(csv.reader(lines)), grid
    _, *int_rows = texts[-2].splitlines()
    assert {tuple(row.split(",")[2:7:4]) for row in int_rows} == {("2", "2.0"), ("2", "1"), ("0.5", "2.0"), ("0.5", "1")}
    header, row = texts[-1].splitlines()
    record = dict(zip(header.split(","), row.split(",")))
    assert record["hazard_log_bound"] == "-0.0" and record["m"] == record["hazard_delta"] == "0.0", record
    assert sweep_csv_text([]) == ""


def test_sweep_computes_each_exact_tail_once(monkeypatch) -> None:
    # The oracle runs once per distinct (population, cutoff) of the default grid, not once per point.
    calls = Counter()
    oracle = sdpbounds.report.binomial_cdf_below
    monkeypatch.setattr(sdpbounds.report, "binomial_cdf_below",
                        lambda pop, c: calls.update([(pop.l, pop.p, c)]) or oracle(pop, c))
    points = sweep(SweepGrid(*[tuple(values) for values in DEFAULT_AUDIT_AXES.values()]))["points"]
    distinct = {(pt["l"], pt["p"], pt[name]["event_threshold"]) for pt in points
                for name in ("hazard_bound", "reference_bound")}
    distinct |= {(pt["l"], pt["p"], record["bound"]["event_threshold"]) for pt in points
                 for record in pt["reliability_bound"].values()}
    assert sum(calls.values()) == len(calls) == len(distinct) == 990


@pytest.fixture(scope="module")
def sampled_default_sweep():
    """The default grid's report at samples=1000, seed=4, swept once for the tests that read it, and the
    sample size of each Wilson interval that the sweep computed."""
    counted = Counter()
    wilson = sdpbounds.montecarlo.wilson_interval
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sdpbounds.montecarlo, "wilson_interval", lambda k, n: counted.update([n]) or wilson(k, n))
        grid = SweepGrid(*[tuple(values) for values in DEFAULT_AUDIT_AXES.values()], samples=1000, seed=4)
        return sweep(grid), counted


def test_sweep_counts_each_monte_carlo_tail_once(sampled_default_sweep) -> None:
    # The draws of a population count each of its distinct cutoffs > 0 once; a cutoff <= 0 is never counted.
    report, counted = sampled_default_sweep
    points = report["points"]
    estimates = [(pt, pt["hazard_tail_mc"]) for pt in points]
    estimates += [(pt, record["exceedance_mc"]) for pt in points for record in pt["reliability_bound"].values()]
    distinct = {(pt["l"], pt["p"], mc["event_threshold"]) for pt, mc in estimates if mc["event_threshold"] > 0.0}
    assert counted == {1000: len(distinct)} and len(distinct) == 558


def test_sampled_sweep_report_is_a_tree(sampled_default_sweep) -> None:
    # No dict or list is reachable twice, so no two points, nor two modes of one point, share a Monte Carlo record.
    seen, records, stack = set(), 0, [sampled_default_sweep[0]]
    while stack:
        node = stack.pop()
        if isinstance(node, (dict, list)):
            assert id(node) not in seen, node
            seen.add(id(node))
            records += isinstance(node, dict) and "n_samples" in node
            stack.extend(node.values() if isinstance(node, dict) else node)
    assert records == 972 * 4  # the hazard tail, one exceedance per mode and the reliability mean


def test_each_tail_is_read_at_its_own_bound_cutoff(sampled_default_sweep) -> None:
    # Each exact tail is the oracle's at its own bound's cutoff, and each Monte Carlo tail record carries that
    # cutoff bit for bit, sign included: on the default grid, and on a grid whose K = K_hat and m = m_hat make
    # both cutoffs of every point +0.0.
    grid = SweepGrid((10, 100), (0.1, 0.5), (1.0,), (0.5,), (1.0,), (0.5,), (0.25, 1.0, 4.0), samples=1000, seed=4)
    zeros = sweep(grid)["points"]
    assert {record["event_threshold"].hex() for pt in zeros
            for record in (pt["hazard_bound"], *(r["bound"] for r in pt["reliability_bound"].values()))} == {"0x0.0p+0"}
    for pt in sampled_default_sweep[0]["points"] + zeros:
        pop = FailurePopulation(pt["l"], pt["p"])
        hazard, modes = pt["hazard_bound"], pt["reliability_bound"].values()
        assert pt["hazard_exact_tail"] == binomial_cdf_below(pop, hazard["event_threshold"])
        for record in modes:
            assert pt["reliability_exact_tail"] == binomial_cdf_below(pop, record["bound"]["event_threshold"])
        for bound, mc in [(hazard, pt["hazard_tail_mc"])] + [(r["bound"], r["exceedance_mc"]) for r in modes]:
            assert mc["event_threshold"].hex() == bound["event_threshold"].hex(), pt


def test_delta_is_one_minus_the_cutoff_over_mu(sampled_default_sweep) -> None:
    # Every finite delta of a bound with mu > 0 is the documented 1 - c/mu, bit for bit.
    records = [record for pt in sampled_default_sweep[0]["points"]
               for record in (pt["hazard_bound"], pt["reference_bound"],
                              *(r["bound"] for r in pt["reliability_bound"].values()))]
    checked = [record for record in records if record["mu_used"] > 0.0 and record["delta"] is not None]
    assert len(checked) == len(records) == 972 * 4  # on the default grid every delta is finite and every mu > 0
    for record in checked:
        assert record["delta"].hex() == (1.0 - record["event_threshold"] / record["mu_used"]).hex(), record


def test_sweep_builds_each_population_and_hazard_pair_once(monkeypatch) -> None:
    # The grid's checks build the 9 populations and the 6 + 6 hazard parameter sets that the sweep evaluates.
    # Each point builds one hazard model, and its bound and audit records are built as dicts, not as the
    # public BoundReport and AuditVerdict objects.
    built = Counter()
    bindings = {sdpbounds.report: ("FailurePopulation", "WeibullParams", "CombinedHazardModel"),
                sdpbounds.bounds: ("BoundReport", "CombinedHazardModel"),
                sdpbounds.montecarlo: ("AuditVerdict", "CombinedHazardModel")}
    for module, names in bindings.items():
        for name in names:
            cls = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, cls=cls, **kwargs: built.update([cls.__name__])
                                or cls(*args, **kwargs))
    points = sweep(SweepGrid(*[tuple(values) for values in DEFAULT_AUDIT_AXES.values()]))["points"]
    assert len(points) == 972 and built == {"FailurePopulation": 9, "WeibullParams": 12, "CombinedHazardModel": 972}


def test_sweep_checks_each_population_sampling_contract_first(monkeypatch, capsys) -> None:
    # An l of 2**63 cannot be sampled; the grid refuses it before the first point, wherever that l stands.
    evaluated = []
    point = sdpbounds.report._point
    monkeypatch.setattr(sdpbounds.report, "_point", lambda *args: evaluated.append(args) or point(*args))
    axes = [arg for name, values in DEFAULT_AUDIT_AXES.items() if name != "l"
            for arg in ("--" + name.replace("_", "-"), ",".join(map(str, values)))]
    errors = []
    for l_values in ("10,100,1000,9223372036854775808", "9223372036854775808,10,100,1000"):
        assert main(["sweep", "--l", l_values, *axes, "--samples", "10000"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and not evaluated
        errors.append(err)
    assert errors == ["error: l must be < 2**63 when sampling, got 9223372036854775808\n"] * 2


def test_draws_past_the_ceiling_are_refused_before_any_draw(monkeypatch, capsys) -> None:
    # samples x populations may reach 2**32 draws and no more; here three populations, not --samples, pass it.
    # Every draw runs out of memory, so a run that reaches one ends in "out of memory" instead.
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(sdpbounds.montecarlo, "_draw_block", exhausted)
    shapes = ((1.0,), (0.0,), (1.0,), (0.0,), (1.0,))
    assert len(SweepGrid((10, 20), (0.1, 0.2), *shapes, samples=2**30)._populations) == 4
    message = f"samples x populations = {3 * 2**31} draws, more than 2**32"
    with pytest.raises(ValueError) as info:
        SweepGrid((10, 20, 30), (0.1,), *shapes, samples=2**31)
    assert str(info.value) == message
    one = ["--p", "0.1", "--K", "1", "--m", "0", "--K-hat", "1", "--m-hat", "0", "--t", "1"]
    assert main(["sweep", "--l", "10,20,30", *one, "--samples", str(2**31)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert main(["analyze", "--l", "10", *one, "--samples", str(2**32 + 1)]) == 1
    assert capsys.readouterr() == ("", f"error: samples x populations = {2**32 + 1} draws, more than 2**32\n")
    for command in ("analyze", "sweep"):
        assert main([command, "--l", "10", *one, "--samples", "1000"]) == 1
        assert capsys.readouterr() == ("", "error: out of memory\n")


# ---------------------------------------------------------------------------
# CLI surface.
# ---------------------------------------------------------------------------


def test_cli_for_literal(capsys) -> None:
    assert main(["for", "--fn", "5", "--tn", "45"]) == 0
    out = capsys.readouterr().out
    assert "p=0.1" in out
    assert "verdict: ok" in out


def test_cli_for_gate_violation(capsys) -> None:
    assert main(["for", "--fn", "0", "--tn", "9"]) == 1
    out = capsys.readouterr().out
    assert "p = 0" in out


def test_cli_for_records_equals_confusion(tmp_path, capsys) -> None:
    rows = ["m%d,clean,defective" % i for i in range(5)]
    rows += ["c%d,clean,clean" % i for i in range(45)]
    records = tmp_path / "r.csv"
    records.write_text("\n".join(rows) + "\n", encoding="utf-8")
    assert main(["for", "--records", str(records)]) == 0
    from_records = capsys.readouterr().out

    confusion = tmp_path / "c.json"
    confusion.write_text('{"fn": 5, "tn": 45}', encoding="utf-8")
    assert main(["for", "--confusion", str(confusion)]) == 0
    from_confusion = capsys.readouterr().out
    strip = lambda text: [ln for ln in text.splitlines() if not ln.startswith("source")]
    assert strip(from_records) == strip(from_confusion)


def test_cli_for_parse_error_exit_2(tmp_path, capsys) -> None:
    bad = tmp_path / "bad.csv"
    bad.write_text("m1,fuzzy,clean\n", encoding="utf-8")
    assert main(["for", "--records", str(bad)]) == 2
    assert "row 1" in capsys.readouterr().err
    assert main(["for", "--records", str(tmp_path / "missing.csv")]) == 2


def test_cli_confusion_json_that_cannot_be_built_is_exit_2(tmp_path, capsys) -> None:
    # A 10 KB file nested 5,000 deep and an fn one digit over the int-to-str limit are malformed input files.
    shape = ["--K", "2", "--m", "0.5", "--K-hat", "1", "--m-hat", "0.5", "--t", "1", "--samples", "0"]
    files = {"deep.json": '{"fn": ' + "[" * 5000 + "]" * 5000 + ', "tn": 45}'}
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:  # 0: this Python converts integers of any length
        files["long.json"] = '{"fn": 1' + "0" * limit + ', "tn": 45}'
    for name, text in files.items():
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        for argv in (["for", "--confusion", str(path)], ["analyze", "--confusion", str(path), *shape]):
            assert main(argv) == 2, argv
            out, err = capsys.readouterr()
            assert out == "" and re.fullmatch(r"error: [^\n]*\n", err), (argv, err[:200])


def test_cli_unreadable_input_path_is_exit_2(tmp_path, capsys) -> None:
    # A file used as a directory raises NotADirectoryError, which no narrower catch named.
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("", encoding="utf-8")
    shape = ["--K", "2", "--m", "0.5", "--K-hat", "1", "--m-hat", "0.5", "--t", "1", "--samples", "0"]
    for argv, path in [
        (["for", "--records"], not_a_dir / "r.csv"),
        (["for", "--confusion"], not_a_dir / "c.json"),
        (["analyze", *shape, "--records"], not_a_dir / "r.csv"),
    ]:
        assert main([*argv, str(path)]) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and re.fullmatch(
            rf"error: cannot read input: \[Errno \d+\] Not a directory: {re.escape(repr(str(path)))}\n", err), err


def test_cli_list_flags_name_the_expected_type(capsys) -> None:
    point = ["--p", "0.1", "--K", "2", "--m", "0.5", "--K-hat", "1", "--m-hat", "0.5", "--samples", "0"]
    for argv, message in [
        (["sweep", "--l", "10,x", *point, "--t", "1"], "argument --l: expected comma-separated integers, got '10,x'"),
        (["analyze", "--l", "10", *point, "--t", "1,y"], "argument --t: expected comma-separated numbers, got '1,y'"),
    ]:
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 1
        out, err = capsys.readouterr()
        assert out == "" and err.endswith(f"sdpbounds {argv[0]}: error: {message}\n"), err


def test_cli_input_source_errors(tmp_path, capsys) -> None:
    unlabelled = tmp_path / "new.csv"
    unlabelled.write_text("m1,clean\nm2,defective\n", encoding="utf-8")
    confusion = tmp_path / "c.json"
    confusion.write_text('{"fn": 5, "tn": 45}', encoding="utf-8")
    shape = ["--K", "2", "--m", "0.5", "--K-hat", "1", "--m-hat", "0.5", "--t", "1", "--samples", "0"]
    point = ["--l", "10", "--p", "0.1", *shape]
    # An empty path is a path: it names no file, so reading it fails and writing it fails.
    missing = f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: ''"
    for argv, code, message in [
        (["for", "--fn", "5", "--tn", "45", "--confusion", str(confusion)], 1,
         "provide exactly one source: --fn/--tn, --confusion, or --records"),
        (["for", "--fn", "5"], 1, "--fn and --tn must be given together"),
        (["analyze", "--confusion", str(confusion), "--records", str(unlabelled), *shape], 1,
         "give at most one of --confusion and --records"),
        (["analyze", "--records", str(unlabelled), *shape], 1,
         "l and p must be resolvable from --l/--p or an input file"),
        (["for", "--records", str(unlabelled)], 1,
         "record 1 (module 'm1') has no actual label; confusion tallying needs test-set records"),
        (["for", "--confusion", ""], 2, f"cannot read input: {missing}"),
        (["for", "--records", ""], 2, f"cannot read input: {missing}"),
        (["for", "--fn", "5", "--tn", "45", "--records", ""], 1,
         "provide exactly one source: --fn/--tn, --confusion, or --records"),
        (["analyze", "--confusion", "", *shape], 2, f"cannot read input: {missing}"),
        (["analyze", "--records", "", *point], 2, f"cannot read input: {missing}"),
        (["analyze", "--confusion", "", "--records", str(unlabelled), *shape], 1,
         "give at most one of --confusion and --records"),
        (["analyze", *point, "--out", ""], 1, f"cannot write output: {missing}"),
        (["sweep", *point, "--out", ""], 1, f"cannot write output: {missing}"),
    ]:
        assert main(argv) == code, argv
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {message}\n"), argv


def test_cli_analyze_with_confusion_file(tmp_path, capsys) -> None:
    confusion = tmp_path / "c.json"
    confusion.write_text('{"fn": 5, "tn": 45}', encoding="utf-8")
    out_path = tmp_path / "report.json"
    code = main([
        "analyze", "--confusion", str(confusion),
        "--K", "2", "--m", "0.5", "--K-hat", "1", "--m-hat", "0.5",
        "--t", "4", "--samples", "0", "--out", str(out_path),
    ])
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["params"]["l"] == 50
    assert report["params"]["p"] == 0.1
    assert report["for_provenance"]["source"] == "confusion-file"


def test_cli_analyze_rejects_gated_confusion(tmp_path, capsys) -> None:
    confusion = tmp_path / "c.json"
    confusion.write_text('{"fn": 0, "tn": 45}', encoding="utf-8")
    code = main([
        "analyze", "--confusion", str(confusion),
        "--K", "2", "--m", "0.5", "--K-hat", "1", "--m-hat", "0.5", "--t", "4",
    ])
    assert code == 1
    assert "p = 0" in capsys.readouterr().err


def test_cli_analyze_domain_error_names_parameter(capsys) -> None:
    code = main([
        "analyze", "--l", "100", "--p", "0.1",
        "--K", "-2", "--m", "0.5", "--K-hat", "1", "--m-hat", "0.5", "--t", "4",
    ])
    assert code == 1
    assert "scale_k" in capsys.readouterr().err


def test_cli_analyze_strict_flags_violations(tmp_path) -> None:
    # Reliability-comparison bounds are violated at the canonical point.
    args = [
        "analyze", "--l", "100", "--p", "0.1",
        "--K", "2", "--m", "0.5", "--K-hat", "1", "--m-hat", "0.5",
        "--t", "4", "--samples", "0", "--out", str(tmp_path / "r.json"),
    ]
    assert main(args) == 0
    assert main(args + ["--strict"]) == 3


def test_cli_sweep_csv_out_is_the_sweep_csv_of_the_json_report(tmp_path, capsys) -> None:
    csv_path, json_path = tmp_path / "sweep.csv", tmp_path / "sweep.json"
    argv = ["sweep", "--l", "10,100,1000", "--p", "0.1", "--K", "2", "--m", "0.5", "--K-hat", "1", "--m-hat", "0.5",
            "--t", "4", "--samples", "0"]
    for path in (csv_path, json_path):
        assert main([*argv, "--out", str(path)]) == 0
        out = capsys.readouterr().out
        assert "monotonicity in l: 1/1" in out
        assert "audit summary:" in out
    points = read_report(str(json_path))["points"]
    assert len(points) == 3
    assert csv_path.read_text(encoding="utf-8") == sweep_csv_text(points)
    # Without --out, stdout is that CSV and nothing else, so `sweep > f.csv` writes the same bytes.
    assert main(argv) == 0
    assert capsys.readouterr().out.encode("utf-8") == csv_path.read_bytes()


def test_cli_csv_out_is_the_sweep_csv_of_the_json_report(tmp_path, capsys) -> None:
    # An --out path ending in .csv gets the sweep CSV of the report that any other path gets as JSON.
    default_grid = [arg for name, values in DEFAULT_AUDIT_AXES.items()
                    for arg in ("--" + name.replace("_", "-"), ",".join(map(str, values)))]
    l_sweep = ["--l", "10,100,1000", "--p", "0.1", "--K", "2", "--m", "0.5", "--K-hat", "1", "--m-hat", "0.5", "--t", "4"]
    point = ["--l", "100", "--p", "0.1", "--K", "2", "--m", "0.5", "--K-hat", "1", "--m-hat", "0.5"]
    for argv in (["sweep", *default_grid, "--samples", "0", "--mode", "both"],
                 ["sweep", *l_sweep, "--samples", "0", "--mode", "as-stated"],
                 ["analyze", *point, "--t", "0.5,1,4", "--samples", "2000"]):
        paths = [tmp_path / f"{argv[0]}.{ext}" for ext in ("csv", "json")]
        for path in paths:
            assert main([*argv, "--out", str(path)]) == 0
            capsys.readouterr()
        points = read_report(str(paths[1]))["points"]
        assert paths[0].read_text(encoding="utf-8") == sweep_csv_text(points), argv


def test_cli_hazard_bound_overflow_is_one_line_error(capsys) -> None:
    # 2 * (K_hat + l*p) overflows; the closed form would read inf/inf and write NaN.
    assert main([
        "analyze", "--l", "10", "--p", "0.1", "--K", "1", "--m", "0", "--K-hat", "1e308", "--m-hat", "0",
        "--t", "1", "--samples", "0", "--mode", "sign-corrected",
    ]) == 1
    assert capsys.readouterr().err == ("error: l=10, p=0.1, K=1.0, m=0.0, K_hat=1e+308, m_hat=0.0, t=1.0: "
                                       "hazard bound 2 * (K_hat * t**m_hat + l*p) overflows at time t=1.0\n")


def test_hazard_bound_names_the_fault_a_report_names(capsys) -> None:
    # Both hazards overflow, with either shape the larger: the library bound evaluates the manual hazard first, as a
    # report's point does, so its message is the text after the point in analyze's and sweep's error line.
    pop = FailurePopulation(10, 0.1)
    for m, m_hat in ((2.0, 3.0), (3.0, 2.0)):
        with pytest.raises(ValueError) as info:
            hazard_shortfall_bound(pop, WeibullParams(1e300, m), WeibullParams(1e300, m_hat), 1e10)
        assert str(info.value) == f"scale_k * t**{m} overflows at time t=10000000000.0 (shape_m={m})"
        point = ["--l", "10", "--p", "0.1", "--K", "1e300", "--m", str(m), "--K-hat", "1e300", "--m-hat", str(m_hat),
                 "--t", "1e10", "--samples", "0"]
        for command in ("analyze", "sweep"):
            assert main([command, *point]) == 1
            assert capsys.readouterr().err == (f"error: l=10, p=0.1, K=1e+300, m={m}, K_hat=1e+300, m_hat={m_hat}, "
                                               f"t=10000000000.0: {info.value}\n")


def test_analyze_and_sweep_of_one_point_end_in_the_same_error_line(capsys) -> None:
    # analyze is the one-population sweep: each fault of one point gives both commands one identical line.
    point = {"--l": "10", "--p": "0.1", "--K": "1", "--m": "0", "--K-hat": "1", "--m-hat": "0", "--t": "1",
             "--samples": "0"}
    faults = [
        ({"--K-hat": "1e308"}, "l=10, p=0.1, K=1.0, m=0.0, K_hat=1e+308, m_hat=0.0, t=1.0: "
                               "hazard bound 2 * (K_hat * t**m_hat + l*p) overflows at time t=1.0"),
        ({"--K": "1e300", "--m": "1", "--t": "1e10"},
         "l=10, p=0.1, K=1e+300, m=1.0, K_hat=1.0, m_hat=0.0, t=10000000000.0: "
         "scale_k * t**1.0 overflows at time t=10000000000.0 (shape_m=1.0)"),
        ({"--K-hat": "1000"}, "l=10, p=0.1, K=1.0, m=0.0, K_hat=1000.0, m_hat=0.0, t=1.0: "
                              "expected-reliability proxy (as-stated) overflows at time t=1.0"),
        ({"--l": str(2**63), "--samples": "1000"}, f"l must be < 2**63 when sampling, got {2**63}"),
        ({"--K": "-2", "--workers": "0"}, "scale_k must be finite and > 0, got -2.0"),
    ]
    for change, message in faults:
        argv = [arg for flag, value in {**point, **change}.items() for arg in (flag, value)]
        for command in ("analyze", "sweep"):
            assert main([command, *argv]) == 1
            assert capsys.readouterr() == ("", f"error: {message}\n"), (command, change)


def test_cli_hazard_log_bound_is_finite_when_its_square_overflows(capsys) -> None:
    # l*p = 1.7e306: numerator**2 overflows while 2*mu and -numerator**2 / (2*mu) do not.
    assert main([
        "analyze", "--l", "17" + "0" * 307, "--p", "0.1", "--K", "1", "--m", "0", "--K-hat", "1", "--m-hat", "0",
        "--t", "1", "--samples", "0",
    ]) == 0
    log_bound = json.loads(capsys.readouterr().out)["points"][0]["hazard_bound"]["log_bound"]
    assert math.isfinite(log_bound) and log_bound == pytest.approx(-8.5e306, rel=1e-12)


def _log_uniform(rng: random.Random, low: float, high: float) -> float:
    return math.exp(rng.uniform(math.log(low), math.log(high)))


# The contract scan draws each number from its flag's edge values or, log-uniformly, from the range
# that reports reach. The edges lie on both sides of each domain check and at the ends of double range.
_EDGES = {
    "--l": ["0", "1", "10", "1000000", "1000000000", str(2**63), "1" + "0" * 400, "-1"],
    "--p": ["0", "1e-320", "1e-300", "0.1", "0.999999999", "1", "1.5", "nan", "-inf"],
    "--K": ["0", "1e-320", "1e-300", "1", "1e200", "1e300", "1e308", "-2", "inf"],
    "--m": ["-1", "-0.999", "-0.0", "0", "0.5", "3", "nan"],
    "--K-hat": ["0", "1e-300", "1", "1e300", "1e308", "1.7e308", "nan"],
    "--m-hat": ["-1", "-0.999", "0", "0.5", "3", "inf"],
    "--t": ["", "-0.0", "-1", "1e-320", "1e-300", "0.5", "1", "4", "1e100", "inf"],
    "--samples": ["0", "1000", "10000", "17", "-1"],
    "--seed": ["0", "12345", str(2**64 - 1), str(2**64), "-1"],
    "--workers": ["1", "2", "3", "0"],
    "--fn": ["0", "5", "-1"],
    "--tn": ["0", "9", "45", "-1"],
}
_LOG_UNIFORM = {
    "--l": lambda rng: max(1, round(_log_uniform(rng, 1, 1e9))),
    "--p": lambda rng: min(1.0, _log_uniform(rng, 1e-300, 1.0)),
    "--K": lambda rng: _log_uniform(rng, 1e-300, 1e308),
    "--m": lambda rng: rng.uniform(-0.999, 3),
    "--K-hat": lambda rng: _log_uniform(rng, 1e-300, 1e308),
    "--m-hat": lambda rng: rng.uniform(-0.999, 3),
    "--t": lambda rng: _log_uniform(rng, 1e-300, 1e300),
}


def _draw_argv(rng: random.Random, choices: dict, edge_share: float) -> list:
    """One argv of a contract scan, each value as --flag=value, so that argparse takes -inf.

    A for argv names one source, and one time in three one more flag. An analyze or sweep argv
    takes each choice from the edges with a chance of edge_share, and otherwise a log-uniform draw.
    """
    command = rng.choice(["for", "analyze", "analyze", "analyze", "sweep"])
    if command == "for":
        flags = rng.choice([["--fn", "--tn"], ["--confusion"], ["--records"]])
        flags = dict.fromkeys(flags + rng.sample(["--fn", "--tn", "--confusion", "--records"], rng.choice([0, 0, 1])))
        return ["for", *(f"{flag}={rng.choice(choices[flag])}" for flag in flags)]
    edge = lambda: rng.random() < edge_share
    files = [flag for flag in ("--confusion", "--records") if command == "analyze" and rng.random() < edge_share / 2]
    argv = [command, *(f"{flag}={rng.choice(choices[flag])}" for flag in files)]
    for flag, draw in _LOG_UNIFORM.items():
        if flag in ("--l", "--p") and files and rng.random() < 0.5:
            continue  # left to the input file
        count = rng.choice([1, 1, 2]) if command == "sweep" or flag == "--t" else 1
        values = (rng.choice(choices[flag]) if edge() else repr(draw(rng)) for _ in range(count))
        argv.append(f"{flag}={','.join(values)}")
    argv += [f"{flag}={rng.choice(choices[flag])}" for flag in ("--samples", "--seed", "--workers") if edge()]
    argv += [f"--mode={rng.choice(['as-stated', 'sign-corrected', 'both'])}"] + ["--strict"] * (rng.random() < 0.2)
    return argv + [f"--out={rng.choice(choices['--out'])}"] * edge()


def _check_contract(runs, capsys, reports=None) -> Counter:
    # Each argv is one argparse accepts. A run ends in a report (exit 0, exit 3 under --strict, or for's exit 1
    # with "verdict: violated") with at most the count of violated audits on stderr, or in one "error: " line
    # on stderr, with nothing on stdout and no --out file. A report's stdout is the report alone (sweep's a CSV),
    # or with --out the line naming the file and the audit summary. Returns the count of each end, and appends
    # each JSON report to reports when given.
    ends = Counter()
    for argv in runs:
        out_path = next((token[len("--out="):] for token in argv if token.startswith("--out=")), None)
        if out_path and os.path.isfile(out_path):
            os.remove(out_path)
        code = main(argv)
        out, err = capsys.readouterr()
        ends[argv[0], code] += 1
        if not any(token.startswith(("--confusion", "--records")) for token in argv):
            assert code != 2, argv  # only an input file can be malformed or unreadable
        if not (code in (0, 3) or (argv[0] == "for" and code == 1 and "verdict: violated\n" in out)):
            assert code in (1, 2) and out == "" and re.fullmatch(r"error: .*\n", err), (argv, code, out, err)
            assert not (out_path and os.path.isfile(out_path)), argv
            continue
        assert out and re.fullmatch(r"(audit violations: \d+\n)?", err), (argv, out, err)
        assert (code == 3) == ("--strict" in argv and err != ""), (argv, code, err)
        if argv[0] == "sweep" and out_path is None:
            header, *rows = csv.reader(io.StringIO(out))
            assert rows and all(len(row) == len(header) for row in rows), (argv, out)
        elif out_path is not None:
            assert out.startswith(f"report written to {out_path} (") and "audit summary:\n" in out, (argv, out)
            ends["written", argv[0]] += 1
        if argv[0] == "analyze" and out_path is None:
            report = _standard_json(out)
        elif out_path and not out_path.endswith(".csv"):
            report = _standard_json(pathlib.Path(out_path).read_text(encoding="utf-8"))
        else:
            continue
        ends["JSON", argv[0], code] += 1
        if reports is not None:
            reports.append(report)
        for pt in report["points"]:
            bounds = [pt["hazard_bound"], pt["reference_bound"]]
            for bound in bounds + [record["bound"] for record in pt["reliability_bound"].values()]:
                if bound["log_bound"] is not None:
                    assert bound["log_bound"] <= 0.0 and bound["bound"] == math.exp(bound["log_bound"]), argv
            for tail in (pt["hazard_exact_tail"], pt["reliability_exact_tail"]):
                assert 0.0 <= tail <= 1.0, argv
            # Pr[X < c] <= exp(-(lp - c)**2 / (2lp)) for 0 < c < lp (Mitzenmacher & Upfal, Thm 4.5).
            if 0.0 < pt["reference_bound"]["event_threshold"] < pt["l"] * pt["p"]:
                assert pt["reference_audit"]["verdict"] != "violated", argv
    return ends


def _seeded_scan(tmp_path, capsys, seed: int, edge_shares: list) -> Counter:
    """Check the contract on 600 argv drawn by random.Random(seed), over input files made under tmp_path."""
    files = {"counts.json": b'{"fn": 5, "tn": 45}', "gated.json": b'{"fn": 0, "tn": 45}', "broken.json": b"{",
             "labelled.csv": b"m1,clean,defective\nm2,clean,clean\n", "unlabelled.csv": b"m1,clean\n",
             "defective.csv": b"m1,defective,clean\nm2,defective,defective\n", "fuzzy.csv": b"m1,fuzzy,clean\n",
             "latin1.csv": b"m1,cl\xe9an,clean\n"}
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    unusable = ["", str(tmp_path / "missing" / "x"), str(tmp_path)]  # no name, no such directory, a directory
    named = lambda suffix: [str(tmp_path / name) for name in files if name.endswith(suffix)] + unusable
    choices = {**_EDGES, "--confusion": named(".json"), "--records": named(".csv"),
               "--out": [str(tmp_path / "report.json"), str(tmp_path / "report.csv"), *unusable]}
    rng = random.Random(seed)
    return _check_contract([_draw_argv(rng, choices, rng.choice(edge_shares)) for _ in range(600)], capsys)


def test_cli_accepted_argv_returns_with_one_error_line(tmp_path, capsys) -> None:
    # Fixed argv: empty sources and paths, one point written to a .json and a .csv --out, and that point with
    # each value out of domain in turn.
    defective = tmp_path / "defective.csv"
    defective.write_text("m1,defective,clean\nm2,defective,defective\n", encoding="utf-8")
    shape = ["--K", "2", "--m", "0.5", "--K-hat", "1", "--m-hat", "0.5"]
    point = ["--l", "10", "--p", "0.1", *shape, "--t", "1"]
    runs = [["for", "--confusion", ""], ["for", "--records", ""], ["for", "--fn", "0", "--tn", "0"],
            ["for", "--records", str(defective)]]
    runs += [[command, *point, "--samples", "0", "--out", ""] for command in ("analyze", "sweep")]
    runs += [[command, *point, "--samples", "0", f"--out={tmp_path / name}"]
             for command in ("analyze", "sweep") for name in ("r.json", "r.csv")]
    for flag in ("--confusion", "--records"):
        runs += [["analyze", flag, "", *shape, "--t", "1", "--samples", "0"], ["analyze", flag, "", *point]]
    floats = ["--p", *shape[::2], "--t"]
    for command in ("analyze", "sweep"):
        edits = [(flag, value) for flag in floats for value in ("nan", "inf", "1e-320")]
        edits += [("--l", "0"), ("--l", str(2**63)), ("--seed", "-1"), ("--seed", str(2**64)), ("--workers", "0")]
        edits += [(flag, "") for flag in (["--l", *floats] if command == "sweep" else ["--t"])]  # the list flags
        for flag, value in edits:
            argv = [command, *point, "--samples", "1000", "--seed", "12345", "--workers", "1"]
            argv[argv.index(flag) + 1] = value
            runs.append(argv)
    # More than 2**32 draws are refused at once, in one error line: 2**40 would draw for hours, and from 2**78 on
    # the blocks would outnumber a list's index range.
    one = ["--l", "10", "--p", "0.1", "--K", "1", "--m", "0", "--K-hat", "1", "--m-hat", "0", "--t", "1"]
    huge = [["sweep", *one, "--samples", samples] for samples in ("1" + "0" * 23, str(2**63 - 1))]
    huge += [[command, *one, "--samples", samples] for command in ("analyze", "sweep") for samples in
             (str(2**40), str(2**78), str(10**30))]
    started = time.perf_counter()
    assert _check_contract(huge, capsys) == Counter({("analyze", 1): 3, ("sweep", 1): 5})
    assert time.perf_counter() - started < 1.0
    ends = _check_contract(runs, capsys)
    assert ends["for", 1] and ends["analyze", 1] and ends["sweep", 1], ends
    assert ends["written", "analyze"] == ends["written", "sweep"] == 2, ends
    # Its delta and log_bound are beyond double range; the report is still standard JSON. In the second, mu - c
    # overflows (mu 1.67e308, c -3e307) but the as-stated exponent, -1.1627e308 to 50 digits, does not. In the
    # third, the reference's mu*delta*delta overflows (delta 2.1e62) but its exponent, -1.368e308, does not.
    reports = []
    runs = [["analyze", "--l", "10", "--p", "0.1", "--K", "1e200", "--m", "0", "--K-hat", "1", "--m-hat", "0",
             "--t", "1", "--samples", "0"],
            ["analyze", "--l", "1", "--p", "1e-300", "--K", "1e-300", "--m", "0", "--K-hat", "3e307", "--m-hat", "0",
             "--t", "2.3657e-305", "--mode", "as-stated", "--samples", "0"],
            ["analyze", "--l", str(10**184), "--p", "0.6102709551490809", "--K", "1", "--m", "0",
             "--K-hat", "1.2921766887687885e+246", "--m-hat", "0", "--t", "1", "--samples", "0",
             "--mode", "sign-corrected"]]
    assert _check_contract(runs, capsys, reports)["JSON", "analyze", 0] == 3
    log_bound = reports[1]["points"][0]["reliability_bound"]["as-stated"]["bound"]["log_bound"]
    assert log_bound == pytest.approx(-1.1627284906431188e308, rel=1e-12)
    reference = reports[2]["points"][0]["reference_bound"]
    with mpmath.workdps(60):
        mu, c = mpmath.mpf(reference["mu_used"]), mpmath.mpf(reference["event_threshold"])
        exponent = float(-(mu - c) ** 2 / (2 * mu))
    assert reference["log_bound"] == exponent == -1.3680157812766793e+308


def test_cli_analyze_reports_no_nan_on_extreme_inputs(tmp_path, capsys) -> None:
    # Seeded argv of for, analyze and sweep that take their values from the edge table.
    ends = _seeded_scan(tmp_path, capsys, 2026, [0.3, 1.0])
    assert ends["JSON", "analyze", 0] and ends["for", 0], ends
    # An l beyond double range is a domain error in sweep too.
    argv = ["sweep", "--l", "10,1" + "0" * 400, "--p", "0.1", "--K", "1", "--m", "0", "--K-hat", "1",
            "--m-hat", "0", "--t", "1", "--samples", "0"]
    assert _check_contract([argv], capsys)["sweep", 1] == 1
    assert main(argv) == 1 and capsys.readouterr().err.startswith("error: l must be <= ")


def test_cli_analyze_invariants_on_a_seeded_extreme_scan(tmp_path, capsys) -> None:
    # Seeded argv of for, analyze and sweep that draw their numbers log-uniformly from the range reports reach.
    started = time.perf_counter()
    ends = _seeded_scan(tmp_path, capsys, 7, [0.0])
    assert ends["JSON", "analyze", 0] >= 100 and ends["for", 0] and ends["sweep", 0], ends
    assert time.perf_counter() - started < 30.0


def test_cli_reliability_verdicts_near_the_as_stated_proxy(capsys) -> None:
    # With l*p = 1e-300, m = m_hat = 0 and t = 1, the reliability cutoff K - K_hat lies within a relative
    # epsilon of the as-stated proxy exp(K_hat) and Pr[X < c] is 1. Each verdict is the one that the 80-digit
    # exponent gives. The first two argv are fixed: c within ulps of mu near 7e149, where an expanded exponent
    # cancels, and c == mu near 1.4e217, where c*c overflows; the second bound is 1, so its audit holds.
    shape = ["--l", "1", "--p", "1e-300", "--m", "0", "--m-hat", "0", "--t", "1", "--mode", "as-stated",
             "--samples", "0"]
    runs = [["analyze", *shape, "--K", "6.7857250200571375e+149", "--K-hat", "345.0"],
            ["analyze", *shape, "--K", "1.4035922178528375e+217", "--K-hat", "500"]]
    rng = random.Random(31)
    for _ in range(200):
        k_hat = rng.uniform(1.0, 709.0)
        k = (math.exp(k_hat) + k_hat) * (1.0 + rng.choice((-1, 1)) * 10 ** rng.uniform(-17, -1))
        runs.append(["analyze", *shape, "--K", repr(k), "--K-hat", repr(k_hat)])
    reports = []
    assert _check_contract(runs, capsys, reports)["JSON", "analyze", 0] == len(runs)
    records = [report["points"][0]["reliability_bound"]["as-stated"] for report in reports]
    assert all(record["bound"]["log_bound"] is not None for record in records[:2])
    assert records[1]["audit"]["verdict"] == "holds"
    with mpmath.workdps(80):
        for report, record in zip(reports, records):
            mu, c = mpmath.mpf(record["bound"]["mu_used"]), mpmath.mpf(record["bound"]["event_threshold"])
            bound = math.exp(float(-(mu - c) ** 2 / (2 * mu)))
            exact = report["points"][0]["reliability_exact_tail"]
            assert record["audit"]["verdict"] == ("violated" if exact > bound else "holds"), record


def test_report_json_layout_by_kind(tmp_path, capsys) -> None:
    path = tmp_path / "sweep.json"
    assert main(["sweep", "--l", "10,100", "--p", "0.1", "--K", "2", "--m", "0.5", "--K-hat", "1",
                 "--m-hat", "0,0.5", "--t", "1,4", "--samples", "1000", "--seed", "5", "--out", str(path)]) == 0
    data = path.read_bytes()
    assert data.endswith(b"}\n") and b"\n" not in data[:-1]
    grid = SweepGrid((10, 100), (0.1,), (2.0,), (0.5,), (1.0,), (0.0, 0.5), (1.0, 4.0), samples=1000, seed=5)
    assert read_report(str(path)) == json.loads(json.dumps(sweep(grid)))
    capsys.readouterr()
    # analyze reports are for people: indented by one space, to a file and to stdout alike.
    argv = ["analyze", "--l", "100", "--p", "0.1", "--K", "2", "--m", "0.5", "--K-hat", "1",
            "--m-hat", "0.5", "--t", "1,4", "--samples", "0"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=1) + "\n"
    path = tmp_path / "analyze.json"
    assert main([*argv, "--out", str(path)]) == 0
    assert path.read_text(encoding="utf-8") == out


def test_library_and_cli_share_the_mode_order(tmp_path, capsys) -> None:
    path = tmp_path / "x.json"
    assert main(["sweep", "--l", "10", "--p", "0.1", "--K", "2", "--m", "0.5", "--K-hat", "1",
                 "--m-hat", "0.5", "--t", "1,4", "--samples", "0", "--mode", "both", "--out", str(path)]) == 0
    capsys.readouterr()
    from_cli = read_report(str(path))
    from_library = sweep(SweepGrid((10,), (0.1,), (2.0,), (0.5,), (1.0,), (0.5,), (1.0, 4.0)))
    assert from_cli["modes"] == from_library["modes"]
    for cli_point, library_point in zip(from_cli["points"], from_library["points"], strict=True):
        assert list(cli_point["reliability_bound"]) == list(library_point["reliability_bound"])
    assert from_library["modes"] == analyze(**CANONICAL, t_values=[1.0])["modes"]


def test_cli_sweep_domain_error_names_the_point(capsys) -> None:
    code = main([
        "sweep", "--l", "10,100", "--p", "0.1", "--K", "1,1e300", "--m", "1",
        "--K-hat", "1", "--m-hat", "0", "--t", "1,1e10", "--samples", "0", "--mode", "sign-corrected",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err == (
        "error: l=10, p=0.1, K=1e+300, m=1.0, K_hat=1.0, m_hat=0.0, t=10000000000.0: "
        "scale_k * t**1.0 overflows at time t=10000000000.0 (shape_m=1.0)\n"
    )


def test_cli_plotdata_is_an_invalid_choice(capsys) -> None:
    with pytest.raises(SystemExit) as info:
        main(["plotdata", "report.json", "--selector", "hazard"])
    assert info.value.code == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: sdpbounds ")
    assert "sdpbounds: error: argument command: invalid choice: 'plotdata'" in err, err


def test_ci_workflow_invokes_only_known_subcommands() -> None:
    # The workflow is not run with the tests, so a step that calls a removed subcommand shows here.
    workflow = os.path.join(os.path.dirname(__file__), os.pardir, ".github", "workflows", "tests.yml")
    with open(workflow, encoding="utf-8") as fh:
        words = re.findall(r"(?<![\w.-])sdpbounds\s+([^\s\"'|;)]+)", fh.read())
    (subcommands,) = [action.choices for action in cli.build_parser()._actions if action.dest == "command"]
    assert words and set(words) <= {"--version", *subcommands}, sorted(set(words))


def test_cli_usage_error_exit_1(capsys) -> None:
    with pytest.raises(SystemExit) as info:
        main(["analyze", "--l", "100"])  # missing required flags
    assert info.value.code == 1


def test_cli_analyze_large_l_audits_are_exact(tmp_path) -> None:
    # Above l = 1e6 the exact tail still decides every verdict; no sampling fallback.
    out = tmp_path / "big.json"
    code = main([
        "analyze", "--l", "2000000", "--p", "0.01", "--K", "19000", "--m", "0",
        "--K-hat", "1", "--m-hat", "0", "--t", "1", "--samples", "0", "--out", str(out),
    ])
    assert code == 0
    point = read_report(str(out))["points"][0]
    assert point["hazard_exact_tail"] == pytest.approx(3.58e-13, rel=1e-2)
    audits = [point["hazard_audit"], point["reference_audit"]]
    audits += [record["audit"] for record in point["reliability_bound"].values()]
    tails = [point["hazard_exact_tail"]] * 2 + [point["reliability_exact_tail"]] * len(point["reliability_bound"])
    for audit, tail in zip(audits, tails, strict=True):
        assert list(audit) == ["verdict", "bound_value", "empirical_value", "margin"]
        assert audit["empirical_value"] == tail
    assert point["reference_audit"]["verdict"] == "holds"


def test_cli_unwritable_out_is_a_usage_error(tmp_path, capsys) -> None:
    point = ["--l", "10", "--p", "0.1", "--K", "2", "--m", "0.5", "--K-hat", "1", "--m-hat", "0.5",
             "--t", "4", "--samples", "0"]
    missing = tmp_path / "missing"
    runs = [
        (["sweep", *point], missing / "x.json", "No such file or directory"),
        (["sweep", *point], missing / "x.csv", "No such file or directory"),
        (["analyze", *point], tmp_path, "Is a directory"),
    ]
    for argv, out, reason in runs:
        assert main([*argv, "--out", str(out)]) == 1, argv
        captured = capsys.readouterr()
        assert re.fullmatch(rf"error: cannot write output: \[Errno \d+\] {reason}: {re.escape(repr(str(out)))}\n",
                            captured.err), captured.err
        assert captured.out == ""
    assert not missing.exists()


_FULL = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class FullStdout(io.StringIO):
    def write(self, text: str) -> int:
        raise _FULL


class FullFlushStdout(FullStdout):  # and no file descriptor to point at os.devnull
    def flush(self) -> None:
        raise _FULL


def test_cli_failed_stdout_write_is_an_output_error(monkeypatch, capsys) -> None:
    point = ["--l", "10", "--p", "0.1", "--K", "2", "--m", "0.5", "--K-hat", "1", "--m-hat", "0.5",
             "--t", "4", "--samples", "0"]
    expected = f"error: cannot write output: {_FULL}\n"
    for stdout in (FullStdout, FullFlushStdout):
        for argv in (["for", "--fn", "5", "--tn", "45"], ["analyze", *point], ["sweep", *point]):
            monkeypatch.setattr(sys, "stdout", stdout())
            assert main(argv) == 1, argv
            assert capsys.readouterr().err == expected, argv


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd to count open descriptors")
def test_cli_failed_stdout_leaves_no_descriptor_open(tmp_path, monkeypatch, capsys) -> None:
    owned = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)

    class OwnedFdStdout(FullFlushStdout):  # its descriptor is this test's, never fd 1
        def fileno(self) -> int:
            return owned

    try:
        before = len(os.listdir("/proc/self/fd"))
        for stdout in [OwnedFdStdout] * 5 + [FullFlushStdout] * 5:
            monkeypatch.setattr(sys, "stdout", stdout())
            assert main(["for", "--fn", "5", "--tn", "45"]) == 1
        assert len(os.listdir("/proc/self/fd")) == before
    finally:
        os.close(owned)
    assert capsys.readouterr().err == f"error: cannot write output: {_FULL}\n" * 10


def test_cli_main_leaves_the_collector_as_it_found_it(tmp_path, monkeypatch, capsys) -> None:
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    point = ["--K", "2", "--m", "0.5", "--K-hat", "1", "--m-hat", "0.5", "--t", "4", "--samples", "0"]
    runs = [
        (["sweep", "--l", "10,100", "--p", "0.1", *point], 0),
        (["analyze", "--l", "10", "--p", "1.5", *point], 1),
        (["analyze", "--confusion", str(bad), *point], 2),
    ]
    frozen_during = []
    run = cli._main
    monkeypatch.setattr(cli, "_main", lambda argv: frozen_during.append(gc.get_freeze_count()) or run(argv))
    assert gc.isenabled() and gc.get_freeze_count() == 0
    for argv, code in runs:
        assert main(argv) == code
        assert gc.isenabled() and gc.get_freeze_count() == 0
    assert all(frozen_during)

    # A caller's own freeze is left alone: main neither adds to it nor thaws it.
    frozen_during.clear()
    gc.freeze()
    try:
        before = gc.get_freeze_count()
        assert before > 0
        assert main(runs[0][0]) == 0
        assert gc.get_freeze_count() == before
        assert frozen_during == [before]
    finally:
        gc.unfreeze()
    capsys.readouterr()


def _child_env(unbuffered: bool) -> dict:
    """The environment of a child run: this package on its path, PYTHONUNBUFFERED set or removed."""
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(sdpbounds.__file__))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


# At l=100 and t=1 both reliability audits are violated.
_SHAPE = ["--p", "0.1", "--K", "2", "--m", "0.5", "--K-hat", "1", "--m-hat", "0.5", "--samples", "0"]
_VIOLATING_SWEEP = ["sweep", "--l", "10,100", *_SHAPE, "--t", "1"]
_VIOLATING_ANALYZE = ["analyze", "--l", "100", *_SHAPE, "--t", "1"]


def _run_to_closed_pipe(argv: list, env: dict, lines_read: int):
    """Exit status, stderr and the lines read of a run whose stdout reader closes after ``lines_read`` lines."""
    if not lines_read:  # the read end is closed before the run starts
        read, write = os.pipe()
        os.close(read)
        try:
            result = subprocess.run(argv, env=env, stdout=write, stderr=subprocess.PIPE, timeout=120)
        finally:
            os.close(write)
        return result.returncode, result.stderr, []
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        lines = [proc.stdout.readline() for _ in range(lines_read)]
        proc.stdout.close()
        err = proc.stderr.read()
        return proc.wait(timeout=120), err, lines
    finally:
        proc.kill()
        proc.stderr.close()


def test_cli_closed_stdout_exits_quietly(tmp_path) -> None:
    # The default-grid CSV (about 330 kB) and 60 time points of JSON outgrow the pipe buffer,
    # so the write meets the closed pipe; the violated audits are not told on stderr either.
    grid = ["sweep", "--samples", "0"]
    for name, values in DEFAULT_AUDIT_AXES.items():
        grid += ["--" + name.replace("_", "-"), ",".join(map(str, values))]
    many_times = ["analyze", "--l", "100", *_SHAPE, "--t", ",".join(str(t) for t in range(1, 61))]
    runs = [
        (grid, [b"l,p,K,"]),
        (_VIOLATING_SWEEP, []),
        ([*_VIOLATING_ANALYZE, "--out", str(tmp_path / "r.json")], []),
        (many_times, [b"{"]),
    ]
    for unbuffered in (True, False):
        for argv, starts in runs:
            command = [sys.executable, "-m", "sdpbounds", *argv]
            code, err, lines = _run_to_closed_pipe(command, _child_env(unbuffered), len(starts))
            assert (code, err) == (1, b""), (unbuffered, argv)
            assert all(line.startswith(start) for line, start in zip(lines, starts, strict=True)), lines


# A stdout whose buffered writer keeps what it failed to write, as the flush at exit then finds it.
_KEEPING_STDOUT = """
import io, os, sys
class Raw(io.RawIOBase):
    def writable(self): return True
    def fileno(self): return 1
    def write(self, data): return os.write(1, data)
sys.stdout = io.TextIOWrapper(io.BufferedWriter(Raw()), encoding="utf-8")
from sdpbounds.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
def test_cli_full_stdout_exits_with_one_output_error(tmp_path) -> None:
    # The flush at interpreter exit must not fail again and turn exit 1 into 120, and
    # violated audits are not told after the error.
    expected = f"error: cannot write output: {_FULL}\n".encode()
    runs = [(entry, ["for", "--fn", "5", "--tn", "45"]) for entry in (["-m", "sdpbounds"], ["-c", _KEEPING_STDOUT])]
    runs += [(["-m", "sdpbounds"], _VIOLATING_SWEEP),
             (["-m", "sdpbounds"], [*_VIOLATING_ANALYZE, "--out", str(tmp_path / "r.json")])]
    for unbuffered in (True, False):
        for entry, argv in runs:
            with open("/dev/full", "wb") as full:
                result = subprocess.run([sys.executable, *entry, *argv], env=_child_env(unbuffered),
                                        stdout=full, stderr=subprocess.PIPE, timeout=120)
            assert (result.returncode, result.stderr) == (1, expected), (unbuffered, entry, argv)


def test_cli_import_skips_quadrature_and_stats() -> None:
    code = "import sys, sdpbounds.cli; print(sorted(m for m in ('scipy.integrate', 'scipy.stats') if m in sys.modules))"
    result = subprocess.run([sys.executable, "-c", code], env=_child_env(False), capture_output=True, text=True,
                            check=True)
    assert result.stdout.strip() == "[]"


def test_public_surface_matches_readme() -> None:
    # The package root re-exports exactly the README's library import block.
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        block = re.search(r"from sdpbounds import \(([^)]*)\)", fh.read()).group(1)
    documented = {name.strip() for name in block.split(",") if name.strip()}
    assert set(sdpbounds.__all__) - {"__version__"} == documented
    # No stale __all__ entry survives a deletion anywhere in the package.
    for info in pkgutil.iter_modules(sdpbounds.__path__):
        module = importlib.import_module(f"sdpbounds.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"sdpbounds.{info.name}.{name}"
    for name in sdpbounds.__all__:
        assert hasattr(sdpbounds, name), name


def test_readme_library_example_prints_what_its_comments_state(capsys) -> None:
    # Each commented print of the README's library example prints its comment, where "..." stands for any text.
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"), encoding="utf-8") as fh:
        code = re.search(r"## Library\n\n```python\n(.*?)```", fh.read(), re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    stated = [re.search(r"# (.*)$", line) for line in code.splitlines() if line.startswith("print(")]
    assert len(printed) == len(stated) and sum(map(bool, stated)) == 2, (printed, stated)
    for line, comment in zip(printed, stated):
        if comment:
            assert re.fullmatch(".*".join(map(re.escape, comment.group(1).split("..."))), line), (line, comment)
