"""Report assembly, serialization round-trips, and the CLI surface."""

from __future__ import annotations

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

import pytest

import sdpbounds
import sdpbounds.cli as cli
from sdpbounds.bounds import hazard_shortfall_bound, reference_chernoff_bound, reliability_excess_bound
from sdpbounds.cli import main
from sdpbounds.failures import FailurePopulation
from sdpbounds.hazards import CombinedHazardModel, WeibullParams, expected_sdp_reliability_bound, weibull_hazard
from sdpbounds.report import (
    DEFAULT_AUDIT_AXES,
    PLOT_SELECTORS,
    SweepGrid,
    analyze,
    derive_population_seed,
    monotonicity_in_l,
    plot_series,
    plot_series_text,
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


def _bound_fields(report) -> dict:
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


def test_report_matches_library_bit_for_bit_on_default_grid() -> None:
    def same(a, b) -> bool:
        # Floats print as their shortest round trip, so equal text is equal bits.
        return json.dumps(a) == json.dumps(b)

    axes = [DEFAULT_AUDIT_AXES[name] for name in ("l", "p", "K", "m", "K_hat", "m_hat", "t")]
    for pt in sweep(SweepGrid(*axes, samples=0))["points"]:
        pop = FailurePopulation(pt["l"], pt["p"])
        manual, residual, t = WeibullParams(pt["K"], pt["m"]), WeibullParams(pt["K_hat"], pt["m_hat"]), pt["t"]
        hazard = hazard_shortfall_bound(pop, manual, residual, t)
        assert same(pt["manual_hazard"], weibull_hazard(manual, t))
        assert same(pt["expected_hazard"], pt["l"] * pt["p"] + weibull_hazard(residual, t))
        assert same(pt["expected_failures"], pt["l"] * pt["p"])
        assert same(pt["hazard_bound"], _bound_fields(hazard))
        assert same(pt["reference_bound"], _bound_fields(reference_chernoff_bound(pop, hazard.event_threshold)))
        assert sorted(pt["reliability_bound"]) == ["as-stated", "sign-corrected"]
        for mode, record in pt["reliability_bound"].items():
            proxy = expected_sdp_reliability_bound(CombinedHazardModel(residual, pop), t, mode)
            assert same(pt["expected_reliability_bound"][mode], proxy)
            assert same(record["bound"], _bound_fields(reliability_excess_bound(pop, manual, residual, t, mode)))


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


def test_monotonicity_ignores_a_repeated_axis_value(capsys) -> None:
    # -0.0 and 0.0 are one group key, so their points repeat each l of the group.
    axes = dict(l_values=(10, 100, 1000), p_values=(0.1,), k_values=(2.0,), k_hat_values=(1.0,),
                m_hat_values=(0.5,), t_values=(4.0,))
    for m_values in [(-0.0, 0.0), (0.0,)]:
        mono = sweep(SweepGrid(m_values=m_values, **axes))["summary"]["monotonicity_in_l"]
        assert mono == {"groups_checked": 1, "monotone": 1, "violations": []}, m_values
    args = ["sweep", "--l", "10,10,100", "--p", "0.1", "--K", "2", "--m", "0.5", "--K-hat", "1",
            "--m-hat", "0.5", "--t", "4", "--samples", "0"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "monotonicity in l: 1/1 groups strictly decreasing\n" in out
    assert "non-monotone" not in out


def _hazard_point(l: int, log_bound) -> dict:
    """A point with the fields monotonicity_in_l reads; l*p + 2*K_hat*t**m_hat - K*t**m > 0."""
    return {"l": l, "p": 0.5, "K": 2.0, "m": 0.5, "K_hat": 1.0, "m_hat": 0.5, "t": 1.0, "manual_hazard": 2.0,
            "hazard_bound": {"log_bound": log_bound, "bound": 0.0 if log_bound is None else math.exp(log_bound)}}


def test_monotonicity_compares_log_bounds() -> None:
    # exp(-1000) and exp(-900) both underflow to 0.0; a null log_bound is -inf.
    axes = {"p": 0.5, "K": 2.0, "m": 0.5, "K_hat": 1.0, "m_hat": 0.5, "t": 1.0}
    for logs, violated in [((-900.0, -1000.0), False), ((-3.0, None), False),
                           ((-1000.0, -900.0), True), ((None, -3.0), True), ((-3.0, -3.0), True)]:
        points = [_hazard_point(10, logs[0]), _hazard_point(100, logs[1])]
        bounds_by_l = [[pt["l"], pt["hazard_bound"]["bound"]] for pt in points]
        violations = [{"axes": axes, "bounds_by_l": bounds_by_l}] if violated else []
        assert monotonicity_in_l(points) == {
            "groups_checked": 1, "monotone": 0 if violated else 1, "violations": violations}, logs


def test_cli_sweep_underflowed_hazard_bounds_are_monotone(capsys) -> None:
    # Both hazard bounds underflow to 0.0; their log_bounds still fall with l.
    args = ["sweep", "--l", "10000,100000", "--p", "0.5", "--K", "2", "--m", "0.5", "--K-hat", "1",
            "--m-hat", "0.5", "--t", "1", "--samples", "0"]
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


def test_plot_series_selectors() -> None:
    report = analyze(**CANONICAL, t_values=[0.5, 1.0, 2.0, 4.0], samples=0)
    points = report["points"]
    reliability = plot_series(points, "reliability")
    for name, pairs in reliability:
        ys = [y for _, y in pairs]
        assert ys == sorted(ys, reverse=True), name  # non-increasing in t
    hazard_curves = dict(plot_series(points, "hazard"))
    assert len(hazard_curves["expected_hazard"]) == 4
    tail = dict(plot_series(points, "exact_tail"))["hazard_exact_tail"]
    assert all(y >= 0 for _, y in tail)
    with pytest.raises(ValueError):
        plot_series(points, "nope")


def test_plot_series_l_axis_for_l_sweep() -> None:
    grid = SweepGrid((10, 100, 1000), (0.1,), (2.0,), (0.5,), (1.0,), (0.5,), (4.0,), samples=0)
    swept = sweep(grid)
    curves = dict(plot_series(swept["points"], "bound_t1"))
    xs = [x for x, _ in curves["hazard_bound"]]
    ys = [y for _, y in curves["hazard_bound"]]
    assert xs == [10.0, 100.0, 1000.0]
    assert ys[0] > ys[1] > ys[2]


def test_plot_series_splits_curves_per_off_axis_combo() -> None:
    grid = SweepGrid((10, 100), (0.1,), (2.0,), (0.5,), (1.0,), (0.5,), (1.0, 4.0), samples=0)
    swept = sweep(grid)
    curves = plot_series(swept["points"], "bound_t1")
    names = [name for name, _ in curves]
    assert names == ["hazard_bound [l=10]", "hazard_bound [l=100]"]
    for _, pairs in curves:
        assert [x for x, _ in pairs] == [1.0, 4.0]


def test_plot_series_text_empty_has_header_only() -> None:
    text = plot_series_text([], "reliability")
    assert "# curve:" in text
    assert all(line.startswith("#") or not line for line in text.splitlines())


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


def test_cli_unreadable_input_path_is_exit_2(tmp_path, capsys) -> None:
    # A file used as a directory raises NotADirectoryError, which no narrower catch named.
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("", encoding="utf-8")
    shape = ["--K", "2", "--m", "0.5", "--K-hat", "1", "--m-hat", "0.5", "--t", "1", "--samples", "0"]
    for argv, path in [
        (["for", "--records"], not_a_dir / "r.csv"),
        (["for", "--confusion"], not_a_dir / "c.json"),
        (["analyze", *shape, "--records"], not_a_dir / "r.csv"),
        (["plotdata", "--selector", "hazard"], not_a_dir / "s.csv"),
        (["plotdata", "--selector", "hazard"], not_a_dir / "s.json"),
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
    report = tmp_path / "report.json"
    assert main(["analyze", *point, "--out", str(report)]) == 0
    capsys.readouterr()
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
        (["plotdata", str(report), "--selector", "hazard", "--out", ""], 1, f"cannot write output: {missing}"),
    ]:
        assert main(argv) == code, argv
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {message}\n"), argv


def test_cli_accepted_argv_returns_with_one_error_line(tmp_path, capsys) -> None:
    # argparse accepts every argv below; main must return, and a failure is one "error:" line.
    records = tmp_path / "r.csv"
    records.write_text("m1,clean,clean\nm2,clean,defective\n", encoding="utf-8")
    shape = ["--K", "2", "--m", "0.5", "--K-hat", "1", "--m-hat", "0.5"]
    point = ["--l", "10", "--p", "0.1", *shape, "--t", "1"]
    report = tmp_path / "sweep.csv"
    assert main(["sweep", *point, "--samples", "0", "--out", str(report)]) == 0
    runs = [["for", "--confusion", ""], ["for", "--records", ""], ["plotdata", "", "--selector", "hazard"],
            ["plotdata", str(records), "--selector", "hazard"],
            ["plotdata", str(report), "--selector", "hazard", "--out", ""]]
    runs += [[command, *point, "--samples", "0", "--out", ""] for command in ("analyze", "sweep")]
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
    for argv in runs:
        code = main(argv)
        err = capsys.readouterr().err
        if code != 0:
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), (argv, err)


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


def test_cli_sweep_csv_and_plotdata(tmp_path, capsys) -> None:
    csv_path = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--l", "10,100,1000", "--p", "0.1",
        "--K", "2", "--m", "0.5", "--K-hat", "1", "--m-hat", "0.5",
        "--t", "4", "--samples", "0", "--out", str(csv_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "monotonicity in l: 1/1" in out
    assert "audit summary:" in out

    series_path = tmp_path / "series.dat"
    assert main(["plotdata", str(csv_path), "--selector", "bound_t1", "--out", str(series_path)]) == 0
    lines = [ln for ln in series_path.read_text().splitlines() if ln and not ln.startswith("#")]
    ys = [float(ln.split()[1]) for ln in lines]
    assert ys[0] > ys[1] > ys[2]


def test_cli_plotdata_malformed_sweep_csv_is_parse_error(tmp_path, capsys) -> None:
    csv_path = tmp_path / "sweep.csv"
    assert main([
        "sweep", "--l", "10,100", "--p", "0.1", "--K", "2", "--m", "0.5",
        "--K-hat", "1", "--m-hat", "0.5", "--t", "4", "--samples", "0", "--out", str(csv_path),
    ]) == 0
    capsys.readouterr()
    header, first, second = csv_path.read_text(encoding="utf-8").splitlines()
    cells = second.split(",")
    cells[header.split(",").index("l")] = "abc"
    oversized = ",".join(['"' + "x" * 140_000 + '"', *first.split(",")[1:]])
    bad = tmp_path / "bad.csv"
    for rows, needle in [
        ([header, first, ",".join(cells)], "row 3: bad value: invalid literal for int()"),
        ([header, oversized, second], "row 2: malformed CSV: field larger than field limit"),
        ([header, first, "1,2,3"], "row 3: expected"),
    ]:
        bad.write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert main(["plotdata", str(bad), "--selector", "hazard"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert needle in err
    # A sweep CSV without a plotted column fails on read, whichever curve is asked for.
    for column in ("hazard_bound", "t"):
        drop = header.split(",").index(column)
        rows = [",".join(c for i, c in enumerate(line.split(",")) if i != drop) for line in (header, first, second)]
        bad.write_text("\n".join(rows) + "\n", encoding="utf-8")
        for selector in PLOT_SELECTORS:
            assert main(["plotdata", str(bad), "--selector", selector]) == 2
            assert capsys.readouterr().err == f"error: cannot read input: {column!r}\n", (column, selector)


def test_cli_plotdata_skips_blank_lines_in_a_sweep_csv(tmp_path, capsys) -> None:
    csv_path = tmp_path / "sweep.csv"
    assert main(["sweep", "--l", "10,100,1000", "--p", "0.1", "--K", "2", "--m", "0.5", "--K-hat", "1",
                 "--m-hat", "0.5", "--t", "1,4", "--samples", "0", "--out", str(csv_path)]) == 0
    header, *rows = csv_path.read_text(encoding="utf-8").splitlines(keepends=True)
    spaced = tmp_path / "spaced.csv"
    spaced.write_text("".join(["\n", header, *rows[:2], "\n", *rows[2:]]), encoding="utf-8")
    capsys.readouterr()
    for selector in PLOT_SELECTORS:
        texts = []
        for path in (csv_path, spaced):
            assert main(["plotdata", str(path), "--selector", selector]) == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1] and texts[0].count("\n") > 4, selector


def test_cli_plotdata_non_report_json_is_parse_error(tmp_path, capsys) -> None:
    path = tmp_path / "bad.json"
    # A report whose first point holds a non-numeric parameter, which then varies.
    report = analyze(**CANONICAL, t_values=[1.0, 4.0], samples=0)
    report["points"][0]["p"] = "x"
    for text in ['"points"', '{"points": [1, 2]}', '{"points": null}', '{}', json.dumps(report)]:
        path.write_text(text, encoding="utf-8")
        assert main(["plotdata", str(path), "--selector", "hazard"]) == 2, text
        assert capsys.readouterr().err == f"error: {path} is not a sdpbounds report\n"


def test_cli_plotdata_reads_sweep_csv_and_json_alike(tmp_path, capsys) -> None:
    default_grid = [arg for name, values in DEFAULT_AUDIT_AXES.items()
                    for arg in ("--" + name.replace("_", "-"), ",".join(map(str, values)))]
    l_sweep = ["--l", "10,100,1000", "--p", "0.1", "--K", "2", "--m", "0.5", "--K-hat", "1", "--m-hat", "0.5", "--t", "4"]
    for axes, mode in [(default_grid, "both"), (l_sweep, "as-stated")]:
        texts = {}
        for path in (tmp_path / "sweep.csv", tmp_path / "sweep.json"):
            assert main(["sweep", *axes, "--samples", "0", "--mode", mode, "--out", str(path)]) == 0
            capsys.readouterr()
            for selector in PLOT_SELECTORS:
                assert main(["plotdata", str(path), "--selector", selector]) == 0
                texts.setdefault(selector, []).append(capsys.readouterr().out)
        for selector, (from_csv, from_json) in texts.items():
            assert from_csv == from_json, (mode, selector)
    # An analyze report takes its format from the --out suffix too, and plotdata reads either.
    point = ["--l", "100", "--p", "0.1", "--K", "2", "--m", "0.5", "--K-hat", "1", "--m-hat", "0.5"]
    texts = {}
    for path in (tmp_path / "analyze.csv", tmp_path / "analyze.json"):
        assert main(["analyze", *point, "--t", "0.5,1,4", "--samples", "2000", "--out", str(path)]) == 0
        capsys.readouterr()
        for selector in PLOT_SELECTORS:
            assert main(["plotdata", str(path), "--selector", selector]) == 0
            texts.setdefault(selector, []).append(capsys.readouterr().out)
    points = read_report(str(tmp_path / "analyze.json"))["points"]
    assert (tmp_path / "analyze.csv").read_text(encoding="utf-8") == sweep_csv_text(points)
    for selector, (from_csv, from_json) in texts.items():
        assert from_csv == from_json, ("analyze", selector)


def test_cli_hazard_bound_overflow_is_one_line_error(capsys) -> None:
    # 2 * (K_hat + l*p) overflows; the closed form would read inf/inf and write NaN.
    assert main([
        "analyze", "--l", "10", "--p", "0.1", "--K", "1", "--m", "0", "--K-hat", "1e308", "--m-hat", "0",
        "--t", "1", "--samples", "0", "--mode", "sign-corrected",
    ]) == 1
    assert capsys.readouterr().err == "error: hazard bound 2 * (K_hat * t**m_hat + l*p) overflows at time t=1.0\n"


def test_cli_hazard_log_bound_is_finite_when_its_square_overflows(capsys) -> None:
    # l*p = 1.7e306: numerator**2 overflows while 2*mu and -numerator**2 / (2*mu) do not.
    assert main([
        "analyze", "--l", "17" + "0" * 307, "--p", "0.1", "--K", "1", "--m", "0", "--K-hat", "1", "--m-hat", "0",
        "--t", "1", "--samples", "0",
    ]) == 0
    log_bound = json.loads(capsys.readouterr().out)["points"][0]["hazard_bound"]["log_bound"]
    assert math.isfinite(log_bound) and log_bound == pytest.approx(-8.5e306, rel=1e-12)


def test_cli_analyze_reports_no_nan_on_extreme_inputs(capsys) -> None:
    rng = random.Random(2026)
    choices = {
        "--l": ["1", "10", "1000000", "1000000000", "1" + "0" * 400],
        "--p": ["1e-300", "0.1", "0.999999999"],
        "--K": ["1e-300", "1", "1e300", "1e308"],
        "--m": ["-0.999", "0", "0.5", "3"],
        "--K-hat": ["1e-300", "1", "1e300", "1e308", "1.7e308"],
        "--m-hat": ["-0.999", "0", "0.5", "3"],
        "--t": ["1e-300", "0.5", "1", "4", "1e100"],
    }
    for _ in range(200):
        argv = ["analyze", "--samples", "0", "--mode", rng.choice(["sign-corrected", "both"])]
        argv += [token for flag, values in choices.items() for token in (flag, rng.choice(values))]
        code = main(argv)
        out, err = capsys.readouterr()
        if code == 0:
            _standard_json(out)
        else:
            assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    # An l beyond double range is a domain error in sweep too.
    code = main(["sweep", "--l", "10," + "1" + "0" * 400, "--p", "0.1", "--K", "1", "--m", "0",
                 "--K-hat", "1", "--m-hat", "0", "--t", "1", "--samples", "0"])
    assert code == 1 and capsys.readouterr().err.startswith("error: l must be <= ")


def _log_uniform(rng: random.Random, low: float, high: float) -> float:
    return math.exp(rng.uniform(math.log(low), math.log(high)))


def test_cli_analyze_invariants_on_a_seeded_extreme_scan(capsys) -> None:
    rng = random.Random(7)
    started = time.perf_counter()
    reports = 0
    for _ in range(300):
        l = max(1, round(_log_uniform(rng, 1, 1e9)))
        p = min(1.0, _log_uniform(rng, 1e-300, 1.0))
        values = [l, p, _log_uniform(rng, 1e-300, 1e308), rng.uniform(-0.999, 3),
                  _log_uniform(rng, 1e-300, 1e308), rng.uniform(-0.999, 3), _log_uniform(rng, 1e-300, 1e300)]
        argv = ["analyze", "--samples", "0", "--mode", rng.choice(["sign-corrected", "as-stated", "both"])]
        argv += [token for flag, value in zip(["--l", "--p", "--K", "--m", "--K-hat", "--m-hat", "--t"], values)
                 for token in (flag, repr(value))]
        code = main(argv)
        out, err = capsys.readouterr()
        if code != 0:
            assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, (argv, err)
            continue
        reports += 1
        point = _standard_json(out)["points"][0]
        bounds = [point["hazard_bound"], point["reference_bound"]]
        bounds += [record["bound"] for record in point["reliability_bound"].values()]
        for bound in bounds:
            if bound["log_bound"] is not None:
                assert bound["bound"] == math.exp(bound["log_bound"]), argv
        for tail in (point["hazard_exact_tail"], point["reliability_exact_tail"]):
            assert 0.0 <= tail <= 1.0, argv
        # Pr[X < c] <= exp(-(lp - c)**2 / (2lp)) for 0 < c < lp (Mitzenmacher & Upfal, Thm 4.5).
        if 0.0 < point["reference_bound"]["event_threshold"] < l * p:
            assert point["reference_audit"]["verdict"] != "violated", argv
    assert reports >= 100, reports
    assert time.perf_counter() - started < 30.0


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


def test_cli_plotdata_unknown_selector(tmp_path, capsys) -> None:
    report = analyze(**CANONICAL, t_values=[4.0], samples=0)
    path = tmp_path / "r.json"
    write_report(report, str(path))
    assert main(["plotdata", str(path), "--selector", "nope"]) == 1


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
    csv_path = tmp_path / "sweep.csv"
    assert main(["sweep", *point, "--out", str(csv_path)]) == 0
    runs = [
        (["sweep", *point], missing / "x.json", "No such file or directory"),
        (["sweep", *point], missing / "x.csv", "No such file or directory"),
        (["analyze", *point], tmp_path, "Is a directory"),
        (["plotdata", str(csv_path), "--selector", "hazard"], missing / "p.txt", "No such file or directory"),
    ]
    capsys.readouterr()
    for argv, out, reason in runs:
        assert main([*argv, "--out", str(out)]) == 1, argv
        captured = capsys.readouterr()
        assert re.fullmatch(rf"error: cannot write output: \[Errno \d+\] {reason}: {re.escape(repr(str(out)))}\n",
                            captured.err), captured.err
        assert captured.out == ""
    assert not missing.exists()


def test_cli_failed_stdout_write_is_an_output_error(monkeypatch, capsys) -> None:
    full = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    class FullStdout(io.StringIO):
        def write(self, text: str) -> int:
            raise full

    point = ["--l", "10", "--p", "0.1", "--K", "2", "--m", "0.5", "--K-hat", "1", "--m-hat", "0.5",
             "--t", "4", "--samples", "0"]
    expected = f"error: cannot write output: {full}\n"
    for argv in (["for", "--fn", "5", "--tn", "45"], ["analyze", *point], ["sweep", *point]):
        monkeypatch.setattr(sys, "stdout", FullStdout())
        assert main(argv) == 1, argv
        assert capsys.readouterr().err == expected, argv


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


def test_cli_closed_stdout_exits_quietly() -> None:
    # The CSV (about 330 kB) outgrows the pipe buffer, so the write meets the closed pipe.
    argv = [sys.executable, "-m", "sdpbounds", "sweep", "--samples", "0"]
    for name, values in DEFAULT_AUDIT_AXES.items():
        argv += ["--" + name.replace("_", "-"), ",".join(map(str, values))]
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(sdpbounds.__file__))}
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert proc.stdout.readline().startswith(b"l,p,K,")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
    finally:
        proc.kill()
        proc.stderr.close()
    assert err == b""


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
def test_cli_full_stdout_exits_with_one_output_error() -> None:
    # The flush at interpreter exit must not fail again and turn exit 1 into 120.
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(sdpbounds.__file__))}
    expected = f"error: cannot write output: {OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))}\n".encode()
    for entry in (["-m", "sdpbounds"], ["-c", _KEEPING_STDOUT]):
        with open("/dev/full", "wb") as full:
            result = subprocess.run([sys.executable, *entry, "for", "--fn", "5", "--tn", "45"],
                                    env=env, stdout=full, stderr=subprocess.PIPE, timeout=120)
        assert (result.returncode, result.stderr) == (1, expected), entry


def test_cli_import_skips_quadrature_and_stats() -> None:
    code = "import sys, sdpbounds.cli; print(sorted(m for m in ('scipy.integrate', 'scipy.stats') if m in sys.modules))"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(sdpbounds.__file__))}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
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
