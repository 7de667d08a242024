"""Parsing of defect-prediction outcomes and derivation of the false omission rate.

Two input shapes are accepted: per-module prediction records (CSV) and a
pre-tallied confusion matrix (JSON object).  Records may omit the actual
label entirely (new-project mode), in which case only the predicted-clean
count can be derived.  Records are read as a stream: ``tally_records`` keeps
only the counts of (predicted, actual) label pairs, so its memory does not
grow with the number of rows.

Every input file is UTF-8, and one byte-order mark at its start is skipped.
A records file is decoded in the 8192-byte chunks, and with the
``utf-8-sig`` decoder, of a text-mode file, so a bad byte reports the same
position, and scanned in blocks of about 64K characters of whole lines;
``tally_records`` scans a string in the same blocks.  Lines end at LF, CRLF
or a lone CR, as in a text-mode file opened with ``newline=""``.  A plain
block of ``id,label[,label]`` lines is counted with scans, without
splitting fields: numpy counts its line feeds and commas as bytes of its
UTF-8 text, and ``str.count`` its label pairs.  csv reads the header and
the first record, which fixes the column count; the rest of that record's
block is scanned like any later block.  A quote, a stray CR, a NUL, a padded
or mixed-case label, a blank or over-long line, or any malformed line sends
its block through csv, record by record, which alone states the record
rules.  The counts and errors are the same either way.
"""

from __future__ import annotations

import codecs
import csv
import io
import json
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import BinaryIO, Dict, Iterable, Iterator, Optional, Tuple, Union

import numpy as np

__all__ = [
    "LABELS",
    "ParseError",
    "ConfusionCounts",
    "ValidationVerdict",
    "RecordTally",
    "MODEL_CAVEATS",
    "tally_records",
    "load_record_tally",
    "parse_confusion",
    "load_confusion",
    "false_omission_rate",
    "validate_assumptions",
]

LABELS = ("clean", "defective")

_HEADERS = (["module_id", "predicted", "actual"], ["module_id", "predicted"])

# (row number, module id, predicted, actual) -> (predicted, actual)
_LABEL_PAIR = itemgetter(2, 3)

_Pairs = Counter[Tuple[str, Optional[str]]]  # (predicted, actual) -> records

_CHUNK_BYTES = 8192  # what a text-mode file reads and decodes at a time
_BLOCK_CHARS = 1 << 16  # characters that the string scans check at a time

# Model preconditions that cannot be verified from a confusion matrix; they are
# echoed on every validation verdict so reports state what the numbers assume.
MODEL_CAVEATS = (
    "each misclassified defective module contributes exactly one latent failure",
    "testing after release does not surface defects hidden in predicted-clean modules",
    "the predictor was trained on historical data drawn from the same distribution it now scores",
    "module-level predictions are independent",
    "the software outside the predicted-clean set follows a power-law hazard",
    "the same software is compared under both testing regimes",
)


class ParseError(ValueError):
    """Malformed input; carries the 1-based CSV record number when known.

    The record number counts CSV records, blank ones included; it differs
    from the line number when a quoted field spans lines.
    """

    def __init__(self, message: str, row: Optional[int] = None) -> None:
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)
        self.row = row


@dataclass(frozen=True)
class ConfusionCounts:
    """FN/TN tallies over the predicted-clean set, with optional FP/TP."""

    fn_count: int
    tn_count: int
    fp_count: Optional[int] = None
    tp_count: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("fn_count", "tn_count", "fp_count", "tp_count"):
            value = getattr(self, name)
            if value is None:
                continue
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ValueError(f"{name} must be a non-negative integer, got {value!r}")


@dataclass(frozen=True)
class ValidationVerdict:
    ok: bool
    violations: Tuple[str, ...]
    caveats: Tuple[str, ...] = MODEL_CAVEATS


def _normalize_label(raw: str, row: int) -> str:
    label = raw.strip().lower()
    if label not in LABELS:
        raise ParseError(f"unknown label {raw.strip()!r} (expected one of {LABELS})", row)
    return label


def _without_nul(lines: Iterable[str]) -> Iterator[str]:
    """``lines`` as they are; a NUL is the csv error that csv itself raises before Python 3.11."""
    for line in lines:
        if "\0" in line:
            raise csv.Error("line contains NUL")
        yield line


def _iter_records(lines: Iterable[str], start: int = 1,
                  arity: Optional[int] = None) -> Iterator[Tuple[int, str, str, Optional[str]]]:
    """Yield ``(row_no, module_id, predicted, actual)`` for each data row.

    The layout and its rules are those of tally_records; ``actual`` is None
    when the file has no actual column.  Records are numbered from
    ``start``; ``arity`` is the data rows' column count once earlier records
    have fixed it.  Each distinct raw label is normalised once.
    """
    labels: Dict[str, str] = {}  # raw label -> normalised label
    row_no = start - 1
    try:
        for row_no, raw in enumerate(csv.reader(_without_nul(lines)), start=start):
            if len(raw) != arity:  # not a data row of the width the file started with
                if not raw or (len(raw) == 1 and not raw[0].strip()):
                    continue  # blank line
                if row_no == 1 and [f.strip().lower() for f in raw] in _HEADERS:
                    continue
                if len(raw) not in (2, 3):
                    raise ParseError(f"expected 2 or 3 columns, got {len(raw)}", row_no)
                if arity is not None:
                    raise ParseError(
                        f"inconsistent column count: file started with {arity} columns, got {len(raw)}",
                        row_no,
                    )
                arity = len(raw)
            predicted = labels.get(raw[1])
            if predicted is None:
                predicted = labels[raw[1]] = _normalize_label(raw[1], row_no)
            actual = None
            if arity == 3:
                actual = labels.get(raw[2])
                if actual is None:
                    actual = labels[raw[2]] = _normalize_label(raw[2], row_no)
            yield row_no, raw[0].strip(), predicted, actual
    except csv.Error as exc:
        raise ParseError(f"malformed CSV: {exc}", row_no + 1) from exc


def _plain_pairs(text: str, arity: int) -> Optional[_Pairs]:
    """Label-pair counts of the lines of ``text`` if csv would split each into ``id,label[,label]``.

    That holds when ``text`` is n whole lines that end in n matches of
    ``,label[,label]`` plus one line ending (LF, or CRLF on every line) and
    hold no other comma, quote, NUL or CR, nor more characters than csv's
    field limit.  Else None.  Line feeds and commas are counted as bytes of
    the UTF-8 text, where an ASCII character is one byte and no other
    character holds a byte below 0x80; ``surrogatepass`` encodes the lone
    surrogates that a ``tally_records`` string may hold.
    """
    codes = np.frombuffer(text.encode("utf-8", "surrogatepass"), np.uint8)
    n = np.count_nonzero(codes == 10)
    cr = text.count("\r") if "\r" in text else 0
    limit = csv.field_size_limit()
    if ('"' in text or "\0" in text or not text.endswith("\n") or cr not in (0, n)
            or np.count_nonzero(codes == 44) != (arity - 1) * n
            or (len(text) > limit and max(map(len, text.split("\n"))) > limit)):
        return None
    end = "\r\n" if cr else "\n"
    actuals = LABELS if arity == 3 else (None,)
    counts = Counter({(p, a): text.count(f",{p}" + (f",{a}" if a else "") + end)
                      for p in LABELS for a in actuals})
    return +counts if sum(counts.values()) == n else None


def _decoded(fb: BinaryIO) -> Iterator[str]:
    """The text of ``fb`` as a ``utf-8-sig`` text-mode file decodes it: in its chunks, with its decoder."""
    decode = codecs.getincrementaldecoder("utf-8-sig")().decode
    while chunk := fb.read1(_CHUNK_BYTES):
        yield decode(chunk)
    yield decode(b"", True)


def _blocks(pieces: Iterable[str]) -> Iterator[str]:
    """``pieces`` joined into blocks of whole lines, about _BLOCK_CHARS long.

    A decode error in ``pieces`` comes after the lines that a text-mode file
    returns before it.
    """
    text = ""
    try:
        for piece in pieces:
            text += piece
            if len(text) >= _BLOCK_CHARS and (cut := text.rfind("\n", len(text) - len(piece)) + 1):
                yield text[:cut]
                text = text[cut:]
    except UnicodeDecodeError:
        # Text mode holds back a final CR, which a LF may follow.
        end = max(text.rfind("\n"), text.rfind("\r", 0, len(text) - 1)) + 1
        if end:
            yield text[:end]
        raise
    if text:
        yield text


def _tally(blocks: Iterator[str]) -> RecordTally:
    """Count the label pairs of records read in blocks of whole lines.

    A block that the string scans cannot count is split into lines as
    ``io.StringIO(block, newline="")`` splits it, and read by csv; the rest
    of the first record's block, if it holds no quote, is scanned first.
    """
    pairs: _Pairs = Counter()
    arity: Optional[int] = None
    first_module = None
    row = 1  # record number of the block's first line
    for block in blocks:
        if arity and (plain := _plain_pairs(block, arity)):
            pairs.update(plain)
            row += plain.total()
            continue
        lines = io.StringIO(block, newline="").readlines()
        # Without quotes a record is a line; a quoted field may run on past the block.
        spans = '"' in block
        rest = chain.from_iterable(io.StringIO(more, newline="") for more in blocks)
        records = _iter_records(chain(lines, rest) if spans else lines, row, arity)
        if arity is None:
            for first_row, first_module, predicted, actual in records:
                arity = 2 if actual is None else 3
                pairs[predicted, actual] += 1
                break
            if arity and not spans and (plain := _plain_pairs("".join(lines[first_row - row + 1:]), arity)):
                pairs.update(plain)
                row += len(lines)
                continue
        pairs.update(map(_LABEL_PAIR, records))
        if spans:
            break
        row += len(lines)
    if arity is None:
        raise ParseError("no data rows in input")
    return RecordTally(pairs, first_module if arity == 2 else None)


@dataclass(frozen=True)
class RecordTally:
    """Prediction records reduced to counts of (predicted, actual) label pairs.

    ``actual`` is None in the pairs of records without an actual label.  A
    file has either an actual column or none, so either every record is
    labelled or record 1 is not; ``unlabelled`` holds record 1's module id
    in the second case.  ``n_total`` counts the records and ``l_clean`` the
    predicted-clean ones; neither needs actual labels.
    """

    pairs: Counter[Tuple[str, Optional[str]]]
    unlabelled: Optional[str]

    def confusion(self) -> ConfusionCounts:
        """Count FN/TN/FP/TP; every record must carry an actual label."""
        if self.unlabelled is not None:
            raise ValueError(
                f"record 1 (module {self.unlabelled!r}) has no actual label; "
                "confusion tallying needs test-set records"
            )
        pairs = self.pairs
        return ConfusionCounts(
            fn_count=pairs["clean", "defective"],
            tn_count=pairs["clean", "clean"],
            fp_count=pairs["defective", "clean"],
            tp_count=pairs["defective", "defective"],
        )

    @property
    def n_total(self) -> int:
        return sum(self.pairs.values())

    @property
    def l_clean(self) -> int:
        return sum(n for (predicted, _), n in self.pairs.items() if predicted == "clean")


def tally_records(source: str) -> RecordTally:
    """Count the label pairs of CSV prediction records in one pass.

    Layout: ``module_id,predicted[,actual]`` with an optional header row.  The
    actual column must be present on every data row or on none of them;
    labels are matched case-insensitively.  No record list is built.  The
    string is cut into blocks and lines as load_record_tally cuts a file's text.
    """
    return _tally(_blocks(source[i:i + _BLOCK_CHARS] for i in range(0, len(source), _BLOCK_CHARS)))


def load_record_tally(path: Union[str, Path]) -> RecordTally:
    """tally_records of a UTF-8 file, read in blocks; one byte-order mark at its start is skipped."""
    with open(path, "rb") as fb:
        return _tally(_blocks(_decoded(fb)))


def parse_confusion(text: str) -> ConfusionCounts:
    """Parse a confusion matrix from a JSON object with fields fn, tn[, fp, tp]."""
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, an over-long integer, or nesting too deep
        raise ParseError(f"invalid confusion JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ParseError("confusion input must be a JSON object")
    unknown = set(payload) - {"fn", "tn", "fp", "tp"}
    if unknown:
        raise ParseError(f"unknown confusion fields: {sorted(unknown)}")
    for required in ("fn", "tn"):
        if required not in payload:
            raise ParseError(f"confusion object missing required field {required!r}")
    try:
        return ConfusionCounts(
            fn_count=payload["fn"],
            tn_count=payload["tn"],
            fp_count=payload.get("fp"),
            tp_count=payload.get("tp"),
        )
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def load_confusion(path: Union[str, Path]) -> ConfusionCounts:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_confusion(fh.read())


def false_omission_rate(counts: ConfusionCounts) -> float:
    """FN / (FN + TN), the per-module probability a predicted-clean module fails."""
    denominator = counts.fn_count + counts.tn_count
    if denominator < 1:
        raise ValueError("no predicted-clean modules: FN + TN is zero")
    return counts.fn_count / denominator


def validate_assumptions(counts: ConfusionCounts) -> ValidationVerdict:
    """Gate requiring at least one FN and one TN so that 0 < p < 1.

    Degenerate matrices still yield a rate from false_omission_rate, but the
    deviation bounds are undefined for p in {0, 1}; this verdict is how the
    toolkit refuses to push such inputs downstream.  The unverifiable model
    preconditions ride along as caveats.
    """
    violations = []
    if counts.fn_count < 1:
        violations.append("no false negatives: p = 0, bounds undefined")
    if counts.tn_count < 1:
        violations.append("no true negatives: p = 1, bounds undefined")
    return ValidationVerdict(ok=not violations, violations=tuple(violations))
