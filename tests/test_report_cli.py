"""Report assembly, serialization round-trips, and the CLI surface."""

from __future__ import annotations

import importlib
import json
import math
import os
import pkgutil
import random
import re
import subprocess
import sys

import pytest

import sdpbounds
from sdpbounds.bounds import hazard_shortfall_bound, reference_chernoff_bound, reliability_excess_bound
from sdpbounds.cli import main
from sdpbounds.failures import FailurePopulation
from sdpbounds.hazards import CombinedHazardModel, WeibullParams, expected_sdp_reliability_bound, weibull_hazard
from sdpbounds.report import (
    DEFAULT_AUDIT_AXES,
    PLOT_SELECTORS,
    SweepGrid,
    analyze,
    analyze_point,
    derive_point_seed,
    monotonicity_in_l,
    plot_series,
    plot_series_text,
    read_report,
    sweep,
    sweep_csv_text,
    write_report,
)

CANONICAL = dict(l=100, p=0.1, k=2.0, m=0.5, k_hat=1.0, m_hat=0.5)


def _float_leaves(node, path=""):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _float_leaves(value, f"{path}.{key}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _float_leaves(value, f"{path}[{i}]")
    elif isinstance(node, float):
        yield path, node


def test_report_record_layouts_are_pinned() -> None:
    point = analyze_point(**CANONICAL, t=4.0, samples=2000, seed=3)
    assert list(point["hazard_bound"]) == [
        "event_threshold", "delta", "mu_used", "log_bound", "bound",
        "domain_flags", "exact_probability", "notes",
    ]
    estimate_keys = ["estimate", "std_error", "ci_low", "ci_high", "n_samples", "seed", "event_threshold"]
    assert list(point["hazard_tail_mc"]) == estimate_keys
    assert list(point["expected_reliability_mc"]) == estimate_keys
    assert list(point["hazard_audit"]) == [
        "verdict", "bound_value", "empirical_value", "margin", "empirical_is_exact", "estimate",
    ]
    assert point["hazard_audit"]["empirical_is_exact"] is True and point["hazard_audit"]["estimate"] is None


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


def test_point_seed_is_content_addressed() -> None:
    a = derive_point_seed(5, 100, 0.1, 2.0, 0.5, 1.0, 0.5, 4.0, "tail")
    b = derive_point_seed(5, 100, 0.1, 2.0, 0.5, 1.0, 0.5, 4.0, "tail")
    assert a == b
    assert a != derive_point_seed(6, 100, 0.1, 2.0, 0.5, 1.0, 0.5, 4.0, "tail")
    assert a != derive_point_seed(5, 100, 0.1, 2.0, 0.5, 1.0, 0.5, 4.0, "reliability-mean")
    assert a != derive_point_seed(5, 100, 0.1, 2.0, 0.5, 1.0, 0.5, 1.0, "tail")
    assert 0 <= a < 2**64


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
    for rows, needle in [
        ([header, first, ",".join(cells)], "row 3: bad value: invalid literal for int()"),
        ([header, oversized, second], "row 2: malformed CSV: field larger than field limit"),
        ([header, first, "1,2,3"], "row 3: expected"),
    ]:
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert main(["plotdata", str(bad), "--selector", "hazard"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert needle in err


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
            assert "NaN" not in out, argv
        else:
            assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    # An l beyond double range is a domain error in sweep too.
    code = main(["sweep", "--l", "10," + "1" + "0" * 400, "--p", "0.1", "--K", "1", "--m", "0",
                 "--K-hat", "1", "--m-hat", "0", "--t", "1", "--samples", "0"])
    assert code == 1 and capsys.readouterr().err.startswith("error: l must be <= ")


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
    for audit in audits:
        assert audit["empirical_is_exact"] is True
        assert audit["estimate"] is None
    assert point["reference_audit"]["verdict"] == "holds"


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
