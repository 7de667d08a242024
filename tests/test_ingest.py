"""Record parsing, confusion tallying, and the FOR validation gate."""

from __future__ import annotations

import json
import random
import re
import tracemalloc
from collections import Counter

import pytest

from sdpbounds.cli import main
from sdpbounds.ingest import (
    ConfusionCounts,
    ParseError,
    false_omission_rate,
    load_confusion,
    load_record_tally,
    parse_confusion,
    tally_records,
    validate_assumptions,
)


def test_parse_basic_records() -> None:
    tally = tally_records("m1,clean,defective\nm2,CLEAN,clean\n")
    assert tally.pairs == Counter({("clean", "defective"): 1, ("clean", "clean"): 1})
    assert tally.unlabelled is None
    assert tally.confusion() == ConfusionCounts(fn_count=1, tn_count=1, fp_count=0, tp_count=0)


def test_parse_new_project_mode() -> None:
    tally = tally_records("m1,clean\nm2,defective\n")
    assert tally.pairs == Counter({("clean", None): 1, ("defective", None): 1})
    assert tally.unlabelled == "m1"
    assert (tally.summary().n_total, tally.summary().l_clean) == (2, 1)


def test_parse_header_skipped() -> None:
    with_header = tally_records("module_id,predicted,actual\nm1,clean,clean\n")
    assert with_header.summary().n_total == 1
    two_col = tally_records("module_id,predicted\nm1,defective\n")
    assert two_col.summary().n_total == 1


def test_parse_unknown_label_names_row() -> None:
    with pytest.raises(ParseError, match="row 1"):
        tally_records("m1,fuzzy,clean\n")
    with pytest.raises(ParseError, match="row 3"):
        tally_records("m1,clean,clean\nm2,clean,clean\nm3,clean,oops\n")


def test_parse_arity_errors() -> None:
    with pytest.raises(ParseError, match="columns"):
        tally_records("m1,clean,defective,extra\n")
    with pytest.raises(ParseError, match="row 2"):
        tally_records("m1,clean,defective\nm2,clean\n")


def test_parse_empty_input() -> None:
    with pytest.raises(ParseError, match="no data rows"):
        tally_records("")
    with pytest.raises(ParseError, match="no data rows"):
        tally_records("module_id,predicted,actual\n")


def test_tally_confusion_counts() -> None:
    rows = ["m%d,clean,defective" % i for i in range(5)]
    rows += ["c%d,clean,clean" % i for i in range(45)]
    counts = tally_records("\n".join(rows)).confusion()
    assert counts == ConfusionCounts(fn_count=5, tn_count=45, fp_count=0, tp_count=0)

    single = tally_records("m1,defective,defective\n").confusion()
    assert (single.fn_count, single.tn_count, single.tp_count, single.fp_count) == (0, 0, 1, 0)

    # A repeated module id is a separate record and is counted twice.
    duplicates = tally_records("m1,clean,clean\nm1,clean,defective\nm1,clean,clean\n").confusion()
    assert (duplicates.fn_count, duplicates.tn_count) == (1, 2)


def test_tally_requires_actual() -> None:
    with pytest.raises(ValueError, match="m1"):
        tally_records("m1,clean\n").confusion()


def test_false_omission_rate_examples() -> None:
    assert false_omission_rate(ConfusionCounts(5, 45)) == pytest.approx(0.1, abs=0)
    assert false_omission_rate(ConfusionCounts(1, 1)) == 0.5
    assert false_omission_rate(ConfusionCounts(0, 10)) == 0.0
    with pytest.raises(ValueError, match="no predicted-clean modules"):
        false_omission_rate(ConfusionCounts(0, 0))


def test_rate_matches_independent_count_and_is_order_invariant() -> None:
    rng = random.Random(7)
    rows = []
    fn = tn = 0
    for i in range(200):
        predicted = rng.choice(["clean", "defective"])
        actual = rng.choice(["clean", "defective"])
        rows.append(f"m{i},{predicted},{actual}")
        if predicted == "clean":
            if actual == "defective":
                fn += 1
            else:
                tn += 1
    baseline = false_omission_rate(tally_records("\n".join(rows)).confusion())
    assert baseline == fn / (fn + tn)
    for seed in range(5):
        shuffled = rows[:]
        random.Random(seed).shuffle(shuffled)
        again = false_omission_rate(tally_records("\n".join(shuffled)).confusion())
        assert again == baseline


def test_rate_strictly_inside_unit_interval_when_gate_passes() -> None:
    rng = random.Random(13)
    for _ in range(200):
        counts = ConfusionCounts(rng.randint(1, 500), rng.randint(1, 500))
        assert validate_assumptions(counts).ok
        assert 0.0 < false_omission_rate(counts) < 1.0


def test_validate_assumptions_gate() -> None:
    ok = validate_assumptions(ConfusionCounts(5, 45))
    assert ok.ok and not ok.violations
    assert len(ok.caveats) == 6

    p_zero = validate_assumptions(ConfusionCounts(0, 50))
    assert not p_zero.ok
    assert any("p = 0" in v for v in p_zero.violations)

    p_one = validate_assumptions(ConfusionCounts(50, 0))
    assert not p_one.ok
    assert any("p = 1" in v for v in p_one.violations)


def test_counts_validation() -> None:
    with pytest.raises(ValueError):
        ConfusionCounts(-1, 5)
    with pytest.raises(ValueError):
        ConfusionCounts(1, 5, fp_count=-2)


def test_summarize_project() -> None:
    tally = tally_records("\n".join(f"m{i},clean" for i in range(7)) + "\nm7,defective\nm8,defective\nm9,defective")
    summary = tally.summary()
    assert (summary.n_total, summary.l_clean) == (10, 7)
    all_defective = tally_records("a,defective\nb,defective\n").summary()
    assert all_defective.l_clean == 0
    # clean + defective partition the records.
    assert summary.l_clean + tally.pairs["defective", None] == summary.n_total


def test_parse_confusion_json() -> None:
    counts = parse_confusion('{"fn": 5, "tn": 45}')
    assert counts == ConfusionCounts(5, 45)
    full = parse_confusion('{"fn": 1, "tn": 2, "fp": 3, "tp": 4}')
    assert (full.fp_count, full.tp_count) == (3, 4)
    with pytest.raises(ParseError):
        parse_confusion('{"tn": 45}')
    with pytest.raises(ParseError):
        parse_confusion('{"fn": 1, "tn": 2, "bogus": 3}')
    with pytest.raises(ParseError):
        parse_confusion("not json")
    with pytest.raises(ParseError):
        parse_confusion('{"fn": -1, "tn": 2}')
    with pytest.raises(ParseError):
        parse_confusion('{"fn": 1.5, "tn": 2}')


def test_file_loaders(tmp_path) -> None:
    records_path = tmp_path / "records.csv"
    records_path.write_text("module_id,predicted,actual\nm1,clean,defective\nm2,clean,clean\n", encoding="utf-8")
    tally = load_record_tally(records_path)
    assert tally.summary().n_total == 2
    assert tally.confusion() == ConfusionCounts(fn_count=1, tn_count=1, fp_count=0, tp_count=0)

    confusion_path = tmp_path / "confusion.json"
    confusion_path.write_text('{"fn": 5, "tn": 45}', encoding="utf-8")
    assert load_confusion(confusion_path) == ConfusionCounts(5, 45)


# ---------------------------------------------------------------------------
# Streaming records path: the CLI tallies without building a record list.
# ---------------------------------------------------------------------------

_SHAPE_ARGS = ["--K", "2", "--m", "0.5", "--K-hat", "1", "--m-hat", "0.5", "--t", "1", "--samples", "0"]


def _messy_records(rng: random.Random, with_actual: bool):
    """A records CSV with a header, blank lines, padded mixed-case labels and
    duplicated module ids, plus its (predicted, actual) pairs as written."""
    def label(name: str) -> str:
        cased = "".join(c.upper() if rng.random() < 0.3 else c for c in name)
        return " " * rng.randint(0, 2) + cased + " " * rng.randint(0, 2)

    lines = [rng.choice(["module_id,predicted,actual", " Module_ID , PREDICTED , Actual"])
             if with_actual else rng.choice(["module_id,predicted", "MODULE_ID, predicted "])]
    pairs = []
    for _ in range(rng.randint(150, 300)):
        if rng.random() < 0.05:
            lines.append(rng.choice(["", "   "]))
        module_id = f" m{rng.randint(0, 40)}"  # few distinct ids, so many repeat
        predicted = rng.choice(["clean", "clean", "defective"])
        actual = rng.choice(["clean", "defective"]) if with_actual else None
        fields = [module_id, label(predicted)] + ([label(actual)] if with_actual else [])
        lines.append(",".join(fields))
        pairs.append((predicted, actual))
    if rng.random() < 0.5:
        lines = lines[1:]
    return "\n".join(lines) + "\n", pairs


def test_cli_streaming_counts_match_record_list(tmp_path, capsys) -> None:
    path = tmp_path / "records.csv"
    for seed in range(12):
        rng = random.Random(seed)
        with_actual = seed % 2 == 0
        text, pairs = _messy_records(rng, with_actual)
        path.write_text(text, encoding="utf-8")
        tally = tally_records(text)
        assert tally.pairs == Counter(pairs)
        summary = tally.summary()
        assert summary.n_total == len(pairs)
        assert summary.l_clean == sum(predicted == "clean" for predicted, _ in pairs)

        if with_actual:
            counts = tally.confusion()
            assert counts.fn_count == pairs.count(("clean", "defective"))
            assert counts.tp_count == pairs.count(("defective", "defective"))
            main(["for", "--records", str(path)])
            out = capsys.readouterr().out
            assert f"fn={counts.fn_count} tn={counts.tn_count} " in out
        else:
            with pytest.raises(ValueError, match="record 1 "):
                tally.confusion()

        report_path = tmp_path / "report.json"
        assert main(["analyze", "--records", str(path), "--p", "0.1", *_SHAPE_ARGS, "--out", str(report_path)]) == 0
        capsys.readouterr()
        report = json.loads(report_path.read_text(encoding="utf-8"))
        provenance = report["for_provenance"]
        if with_actual:
            assert (provenance["fn"], provenance["tn"]) == (counts.fn_count, counts.tn_count)
            assert report["params"]["l"] == counts.fn_count + counts.tn_count
        else:
            assert (provenance["n_total"], provenance["l_clean"]) == (summary.n_total, summary.l_clean)
            assert report["params"]["l"] == summary.l_clean


def test_cli_records_parse_error_precedes_missing_actuals(tmp_path, capsys) -> None:
    path = tmp_path / "records.csv"
    path.write_text("m1,clean\nm2,clean\nm3,fuzzy\n", encoding="utf-8")
    assert main(["for", "--records", str(path)]) == 2
    err = capsys.readouterr().err
    assert "row 3" in err and "no actual label" not in err

    path.write_text("m1,clean\nm2,clean\n", encoding="utf-8")
    assert main(["for", "--records", str(path)]) == 1
    assert "record 1 (module 'm1') has no actual label" in capsys.readouterr().err


def test_cli_records_memory_does_not_grow_with_rows(tmp_path, capsys) -> None:
    path = tmp_path / "records.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("module_id,predicted,actual\n")
        fh.writelines(f"m{i},{'clean' if i % 5 else 'defective'},{'defective' if i % 7 == 0 else 'clean'}\n"
                      for i in range(100_000))
    tracemalloc.start()
    try:
        code = main(["for", "--records", str(path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert "fn=11428 tn=68572 " in capsys.readouterr().out
    assert peak < 4 * 2**20, peak  # a list of 100k records costs tens of MB


def test_oversized_csv_field_is_a_parse_error(tmp_path, capsys) -> None:
    text = "m0,clean,clean\nm1,clean," + "x" * 200_000 + "\n"
    with pytest.raises(ParseError, match="row 2: malformed CSV: field larger than field limit"):
        tally_records(text)
    path = tmp_path / "big.csv"
    path.write_text(text, encoding="utf-8")
    assert main(["for", "--records", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: row 2: ") and err.count("\n") == 1, err


def test_non_utf8_input_is_a_read_error(tmp_path, capsys) -> None:
    records = tmp_path / "records.csv"
    records.write_bytes(b"m1,cl\xffean,clean\n")
    confusion = tmp_path / "confusion.json"
    confusion.write_bytes(b'{"fn": 5, "tn": 4\xff5}')
    for argv in (["for", "--records", str(records)], ["for", "--confusion", str(confusion)],
                 ["analyze", "--records", str(records), *_SHAPE_ARGS]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: cannot read input: 'utf-8' codec can't decode byte 0xff .*\n", err), err
