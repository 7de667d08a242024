"""Record parsing, confusion tallying, and the FOR validation gate."""

from __future__ import annotations

import csv
import io
import json
import random
import re
import tracemalloc
from collections import Counter

import pytest

from sdpbounds import ingest
from sdpbounds.cli import main
from sdpbounds.report import PLOT_SELECTORS
from sdpbounds.ingest import (
    LABELS,
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
    assert (tally.n_total, tally.l_clean) == (2, 1)


def test_parse_header_skipped() -> None:
    with_header = tally_records("module_id,predicted,actual\nm1,clean,clean\n")
    assert with_header.n_total == 1
    two_col = tally_records("module_id,predicted\nm1,defective\n")
    assert two_col.n_total == 1


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
    assert (tally.n_total, tally.l_clean) == (10, 7)
    assert tally_records("a,defective\nb,defective\n").l_clean == 0
    # clean + defective partition the records.
    assert tally.l_clean + tally.pairs["defective", None] == tally.n_total


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
    assert tally.n_total == 2
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
        assert tally.n_total == len(pairs)
        assert tally.l_clean == sum(predicted == "clean" for predicted, _ in pairs)

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
            assert (provenance["n_total"], provenance["l_clean"]) == (tally.n_total, tally.l_clean)
            assert report["params"]["l"] == tally.l_clean


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


def test_nul_is_a_parse_error_on_every_python(tmp_path, capsys) -> None:
    # csv itself rejects a NUL only before Python 3.11; the record rules reject it on all versions.
    plain = "".join(f"m{i},clean,clean\n" for i in range(2 * _GROUP))
    cases = [
        ("m1,clean,clean\nm\0x,clean,defective\n", 2),
        ("module_id,predicted\n\0\n", 2),  # a NUL alone on a line is no blank line
        ('module_id,predicted\n"m\n\0",clean\n', 2),  # inside a quoted field that spans lines
        (plain + "m,clean,clean\0\n", 2 * _GROUP + 1),  # a block the string scans would count
    ]
    for text, row in cases:
        with pytest.raises(ParseError, match=f"^row {row}: malformed CSV: line contains NUL$"):
            tally_records(text)
    path = tmp_path / "nul.csv"
    path.write_text(cases[0][0], encoding="utf-8")
    assert main(["for", "--records", str(path)]) == 2
    assert capsys.readouterr().err == "error: row 2: malformed CSV: line contains NUL\n"


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


# ---------------------------------------------------------------------------
# Grouped ingest: plain groups are counted by string scans, the rest by csv.
# ---------------------------------------------------------------------------

_GROUP = 4096  # lines in the line groups that preceded the blocks


def _reference_tally(lines):
    """Every record through csv and _iter_records, one at a time."""
    rows = ingest._iter_records(lines)
    first = next(rows, None)
    if first is None:
        raise ParseError("no data rows in input")
    _, module, predicted, actual = first
    pairs = Counter(map(ingest._LABEL_PAIR, rows))
    pairs[predicted, actual] += 1
    return ingest.RecordTally(pairs, module if actual is None else None)


def _outcome(tally, source):
    try:
        result = tally(source)
    except (ParseError, UnicodeDecodeError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "row", None)
    return "ok", dict(result.pairs), result.unlabelled


def _plain(rng: random.Random, arity: int, rows: int, eol: str = "\n"):
    return [f"m{i}," + ",".join(rng.choice(LABELS) for _ in range(arity - 1)) + eol for i in range(rows)]


def _ingest_corpus():
    """Seeded (name, lines) cases around the plain-group checks and the group boundaries."""
    rng = random.Random(20)
    limit = csv.field_size_limit()
    cases = [("empty", []), ("header only", ["module_id,predicted,actual\n"])]
    for arity in (2, 3):
        header = "module_id,predicted,actual\n" if arity == 3 else "module_id,predicted\n"
        odd_header = " MODULE_ID , Predicted ,Actual\r\n" if arity == 3 else "Module_Id,PREDICTED \r\n"
        for rows in (1, _GROUP - 1, _GROUP, _GROUP + 1, 20_000):
            lines = _plain(rng, arity, rows)
            crlf = [line[:-1] + "\r\n" for line in lines]
            cases += [(f"{arity} cols, {rows} rows", lines),
                      (f"{arity} cols, {rows} rows, no final newline", lines[:-1] + [lines[-1][:-1]]),
                      (f"{arity} cols, {rows} rows, final line cut after its id", lines[:-1] + [lines[-1].split(",")[0]]),
                      (f"{arity} cols, {rows} CRLF rows, final line cut after its id",
                       crlf[:-1] + [crlf[-1].split(",")[0]])]
        base = _plain(rng, arity, 2 * _GROUP + 8)
        crlf = [line[:-1] + "\r\n" for line in base]
        cases += [
            (f"{arity} cols, header", [header] + base),
            (f"{arity} cols, CRLF, odd header", [odd_header] + crlf),
            (f"{arity} cols, CRLF then LF", crlf[:_GROUP + 7] + base[_GROUP + 7:]),
            (f"{arity} cols, alternating endings", [line if i % 2 else crlf[i] for i, line in enumerate(base)]),
            (f"{arity} cols, blank lines first", ["\n"] * (_GROUP + 5) + base[:_GROUP]),
            (f"{arity} cols, header, then blank lines", [header] + [" \n"] * (2 * _GROUP) + base[:5]),
        ]
        def after_id(line: str) -> str:
            return line[line.index(","):]

        def quoted_newline(line: str) -> str:  # two lines that each look plain
            return '"q' + after_id(line) + 'q"' + after_id(line)

        at_boundaries = {
            "wrong arity": lambda line: line[:-1] + ",clean\n",
            "unknown label": lambda line: line.rsplit(",", 1)[0] + ",fuzzy\n",
            "quoted id with newline": quoted_newline,
        }
        inside = {
            "padded label": lambda line: line.rsplit(",", 1)[0] + ", clean\n",
            "mixed-case label": lambda line: line.rsplit(",", 1)[0] + ",Defective\n",
            "blank line": lambda line: "\n",
            "whitespace line": lambda line: "  \t \n",
            "NUL in id": lambda line: "m\0" + line,
            "lone CR in id": lambda line: "m\rx" + line,
            "CRLF line": lambda line: line[:-1] + "\r\n",
            "quoted id with comma": lambda line: '"m,1"' + after_id(line),
            "quoted id with newline": quoted_newline,
            "quote opening a field": lambda line: '"' + line,
            "id at the field limit": lambda line: "x" * limit + after_id(line),
            "id over the field limit": lambda line: "x" * (limit + 1) + after_id(line),
            "header again": lambda line: header,
        }
        # Line _GROUP ends the first group, which csv always reads, and line
        # 2 * _GROUP ends the second: some edits go on either side of both
        # boundaries, every edit inside the second group.
        placed = [(name, edit, at) for name, edit in at_boundaries.items()
                  for at in (_GROUP - 1, _GROUP, 2 * _GROUP - 1, 2 * _GROUP)]
        placed += [(name, edit, _GROUP + 3) for name, edit in inside.items()]
        for name, edit, at in placed:
            lines = base if at > _GROUP + 3 else base[:_GROUP + 8]
            cases.append((f"{arity} cols, {name} at line {at + 1}", lines[:at] + [edit(lines[at])] + lines[at + 1:]))
    return cases


def test_grouped_tally_matches_record_by_record_reference(tmp_path) -> None:
    path = tmp_path / "records.csv"
    checked = Counter()
    for name, lines in _ingest_corpus():
        text = "".join(lines)
        # A string reads as a file that holds it: a lone CR ends a line in both.
        expected = _outcome(_reference_tally, io.StringIO(text, newline=""))
        assert _outcome(tally_records, text) == expected, name
        checked[expected[0]] += 1
        path.write_bytes(text.encode("utf-8"))
        assert _outcome(load_record_tally, path) == expected, name
    assert checked["ok"] > 20 and checked["ParseError"] > 20, checked
    assert tally_records("a,clean,clean\rb,clean,defective\n").n_total == 2


def test_grouped_tally_reads_the_lines_before_a_bad_byte_first(tmp_path) -> None:
    text = "".join(_plain(random.Random(22), 3, 3 * _GROUP)).encode("utf-8")
    wrong_arity = text.replace(b"m5000,", b"m5000,x,", 1)
    path = tmp_path / "records.csv"
    for data, bad_at in [(text, 150_000), (text, 70_000), (wrong_arity, 150_000), (text, 0)]:
        path.write_bytes(data[:bad_at] + b"\xff" + data[bad_at + 1:])
        with open(path, encoding="utf-8", newline="") as fh:
            expected = _outcome(_reference_tally, fh)
        assert expected[0] == ("ParseError" if data is wrong_arity else "UnicodeDecodeError")
        assert _outcome(load_record_tally, path) == expected


def _edge_cases():
    """Seeded (name, bytes) records files with edits at 8192-byte chunk edges and 64K-character block edges."""
    rng = random.Random(24)
    chunk, block = ingest._CHUNK_BYTES, ingest._BLOCK_CHARS
    ids = ["é", "ж", "中", "😀"]  # 2, 2, 3 and 4 bytes in UTF-8
    rows = (f"{rng.choice(ids)}{i},{rng.choice(LABELS)},{rng.choice(LABELS)}\n" for i in range(5000))
    data = "".join(rows).encode("utf-8")
    cases = []
    for edge in (chunk, 3 * chunk):
        for at in range(edge - 3, edge + 4):
            for bad in (b"\xff", "😀".encode("utf-8")[:2], "中".encode("utf-8")[:1]):
                cases.append((f"{bad!r} at byte {at}", data[:at] + bad + data[at:]))
    # ASCII lines end a chosen line on the last byte of chunk 2; chunk 3 may hold a bad byte.
    head = "".join(f"a{i},clean,clean\n" for i in range(900))
    for last, after, label in [("bad\n", "", "one-column line"), ("bad\r", "", "lone CR after a one-column line"),
                               ("x,clean,clean\r", "", "lone CR"), ("x,clean,clean\r", "\n", "CRLF across the edge")]:
        filler = "p" * (2 * chunk - len(head) - len(last) - 13) + ",clean,clean\n"
        assert len(head + filler + last) == 2 * chunk
        for bad in (b"", b"\xff"):
            data = (head + filler + last + after + "m,clean,clean\n" * 100).encode("ascii") + bad + b"m,clean,clean\n"
            cases.append((f"{label} at the edge, then {'a bad' if bad else 'a good'} chunk", data))
    # A quoted field, a blank line and an over-limit id start at characters around the first block edge.
    text = "".join(f"m{i},{rng.choice(LABELS)},{rng.choice(LABELS)}\n" for i in range(9000))
    head = text[:text.rindex("\n", 0, block - 100) + 1]
    edits = {"quoted field": '"q\nq",clean,clean\n', "blank line": "\n",
             "over-limit id": "x" * (csv.field_size_limit() + 1) + ",clean,clean\n"}
    for name, edit in edits.items():
        for at in range(block - 20, block + 4, 3):
            filler = "p" * (at - len(head) - 13) + ",clean,clean\n"
            cases.append((f"{name} at character {at}", (head + filler + edit + text[len(head):]).encode("ascii")))
    crlf = text.replace("\n", "\r\n")
    for at in (block + 999, 2 * block + 999):  # inside the second and third blocks
        start = crlf.index("\n", at) + 1
        cases.append((f"CRLF lines, lone CR in an id at character {start}",
                       (crlf[:start] + "m\r" + crlf[start:]).encode("ascii")))
    return cases


def test_block_reader_matches_text_mode_at_chunk_and_block_edges(tmp_path) -> None:
    path = tmp_path / "records.csv"
    checked = Counter()
    for name, data in _edge_cases():
        path.write_bytes(data)
        with open(path, encoding="utf-8", newline="") as fh:
            expected = _outcome(_reference_tally, fh)
        assert _outcome(load_record_tally, path) == expected, name
        checked[expected[0]] += 1
    assert checked["UnicodeDecodeError"] >= 40 and checked["ParseError"] >= 8 and checked["ok"] >= 15, checked


def test_byte_order_mark_is_skipped(tmp_path, capsys) -> None:
    bom = "\ufeff".encode("utf-8")
    records = tmp_path / "records.csv"
    records.write_bytes(bom + b"module_id,predicted,actual\r\nm1,clean,defective\r\nm2,clean,clean\r\n")
    assert load_record_tally(records).confusion() == ConfusionCounts(1, 1, 0, 0)
    assert main(["for", "--records", str(records)]) == 0
    assert "fn=1 tn=1 " in capsys.readouterr().out
    confusion = tmp_path / "confusion.json"
    confusion.write_bytes(bom + b'{"fn": 5, "tn": 45}')
    assert load_confusion(confusion) == ConfusionCounts(5, 45)
    # Only one mark is dropped, and the decoder and its error positions are those of a text-mode file.
    records.write_bytes(bom * 2 + b"m1,clean\n")
    assert load_record_tally(records).unlabelled == "\ufeffm1"
    records.write_bytes(bom + b"m1,clean,clean\n" * 1000 + b"\xff\n")
    with open(records, encoding="utf-8", newline="") as fh:
        expected = _outcome(_reference_tally, fh)
    assert expected[0] == "UnicodeDecodeError" and _outcome(load_record_tally, records) == expected
    # A bad byte in the first chunk reports the position that a utf-8-sig text-mode file reports.
    data = bom + b"m1,clean,clean\n" * 200
    records.write_bytes(data[:1503] + b"\xff" + data[1504:])
    with open(records, encoding="utf-8-sig", newline="") as fh:
        expected = _outcome(_reference_tally, fh)
    assert expected[0] == "UnicodeDecodeError" and "position 1500:" in expected[1]
    assert _outcome(load_record_tally, records) == expected
    # An incomplete mark is held back as text mode holds it back, and the file reads as empty.
    records.write_bytes(bom[:2])
    assert _outcome(load_record_tally, records) == ("ParseError", "no data rows in input", None)
    # plotdata reads a marked sweep CSV or JSON report as it reads the plain one.
    sweep = ["sweep", "--l", "10,100,1000", "--p", "0.1", "--K", "2", "--m", "0.5", "--K-hat", "1",
             "--m-hat", "0.5", "--t", "1,4", "--samples", "0"]
    for ext in ("csv", "json"):
        plain, marked = tmp_path / f"sweep.{ext}", tmp_path / f"marked.{ext}"
        assert main([*sweep, "--out", str(plain)]) == 0
        marked.write_bytes(bom + plain.read_bytes())
        capsys.readouterr()
        for selector in PLOT_SELECTORS:
            texts = []
            for path in (plain, marked):
                assert main(["plotdata", str(path), "--selector", selector]) == 0
                texts.append(capsys.readouterr().out)
            assert texts[0] == texts[1] and texts[0].count("\n") > 4, (ext, selector)


def test_plain_records_bypass_csv(tmp_path, monkeypatch) -> None:
    rows_through_csv = 0
    reader = csv.reader

    def counting_reader(lines):
        nonlocal rows_through_csv
        for row in reader(lines):
            rows_through_csv += 1
            yield row

    monkeypatch.setattr(ingest.csv, "reader", counting_reader)
    path = tmp_path / "records.csv"
    for eol in ("\n", "\r\n"):
        rows_through_csv = 0
        path.write_text("module_id,predicted,actual" + eol + "".join(_plain(random.Random(23), 3, 100_000, eol)),
                        encoding="utf-8", newline="")
        assert load_record_tally(path).n_total == 100_000
        assert 0 < rows_through_csv <= _GROUP, (eol, rows_through_csv)
