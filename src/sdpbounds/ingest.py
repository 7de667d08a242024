"""Parsing of defect-prediction outcomes and derivation of the false omission rate.

Two input shapes are accepted: per-module prediction records (CSV) and a
pre-tallied confusion matrix (JSON object).  Records may omit the actual
label entirely (new-project mode), in which case only the predicted-clean
count can be derived.  Records are read as a stream: ``tally_records`` keeps
only the counts of (predicted, actual) label pairs, so its memory does not
grow with the number of rows.

Lines are read in groups of 4,096.  A group of plain ``id,label[,label]``
lines is counted with string scans, without splitting fields.  A quote, a
stray CR, a NUL, a padded or mixed-case label, a blank or over-long line, or
any malformed line sends its group through csv, record by record, which
alone states the record rules.  The counts and errors are the same either way.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import dataclass
from itertools import chain, islice
from operator import itemgetter
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

__all__ = [
    "LABELS",
    "ParseError",
    "ConfusionCounts",
    "ProjectSummary",
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

_GROUP_LINES = 4096  # lines that tally_records reads and checks at a time

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
class ProjectSummary:
    n_total: int
    l_clean: int

    def __post_init__(self) -> None:
        if self.l_clean > self.n_total:
            raise ValueError(f"l_clean {self.l_clean} exceeds n_total {self.n_total}")


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
        for row_no, raw in enumerate(csv.reader(lines), start=start):
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


def _plain_pairs(group: List[str], arity: int) -> Optional[Counter[Tuple[str, Optional[str]]]]:
    """Label-pair counts of ``group`` if csv would split each line into ``id,label[,label]``.

    That holds when the n lines end in n matches of ``,label[,label]`` plus the
    group's one line ending (LF, or CRLF on every line) and hold no other comma,
    quote, NUL, CR or LF, nor more characters than csv's field limit.  Else None.
    """
    n = len(group)
    block = "\0".join(group) + "\0"  # a NUL after each line ties every match below to one line
    eol = "\r\n" if group[0].endswith("\r\n") else "\n"
    limit = csv.field_size_limit()
    if ('"' in block or block.count("\0") != n or block.count("\n") != n
            or block.count("\r") != (n if eol == "\r\n" else 0)
            or block.count(",") != (arity - 1) * n
            or (len(block) > limit and max(map(len, group)) > limit)):
        return None
    actuals = LABELS if arity == 3 else (None,)
    counts = Counter({(p, a): block.count(f",{p}" + (f",{a}" if a else "") + eol + "\0")
                      for p in LABELS for a in actuals})
    return +counts if sum(counts.values()) == n else None


def _raise_when_read(exc: Exception) -> Iterator[str]:
    raise exc
    yield  # a generator: the error surfaces where csv reads the next line


@dataclass(frozen=True)
class RecordTally:
    """Prediction records reduced to counts of (predicted, actual) label pairs.

    ``actual`` is None in the pairs of records without an actual label.  A
    file has either an actual column or none, so either every record is
    labelled or record 1 is not; ``unlabelled`` holds record 1's module id
    in the second case.
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

    def summary(self) -> ProjectSummary:
        """Module count and predicted-clean count (actual labels not needed)."""
        l_clean = sum(n for (predicted, _), n in self.pairs.items() if predicted == "clean")
        return ProjectSummary(n_total=sum(self.pairs.values()), l_clean=l_clean)


def tally_records(source: Union[str, Iterable[str]]) -> RecordTally:
    """Count the label pairs of CSV prediction records in one pass.

    Layout: ``module_id,predicted[,actual]`` with an optional header row.  The
    actual column must be present on every data row or on none of them;
    labels are matched case-insensitively.  No record list is built.
    """
    lines = io.StringIO(source) if isinstance(source, str) else iter(source)
    pairs: Counter[Tuple[str, Optional[str]]] = Counter()
    arity: Optional[int] = None
    first_module = None
    row = 1  # record number of the group's first line
    while True:
        group: List[str] = []
        try:
            group.extend(islice(lines, _GROUP_LINES))
        except UnicodeDecodeError as exc:
            lines, spans = _raise_when_read(exc), True  # csv reads the lines before the bad byte first
        else:
            if not group:
                break
            if arity and (plain := _plain_pairs(group, arity)):
                pairs.update(plain)
                row += len(group)
                continue
            # Without quotes a record is a line; a quoted field may run on past the group.
            spans = any(isinstance(line, str) and '"' in line for line in group)
        records = _iter_records(chain(group, lines) if spans else group, row, arity)
        if arity is None:
            for _, first_module, predicted, actual in records:
                arity = 2 if actual is None else 3
                pairs[predicted, actual] += 1
                break
        pairs.update(map(_LABEL_PAIR, records))
        if spans:
            break
        row += len(group)
    if arity is None:
        raise ParseError("no data rows in input")
    return RecordTally(pairs, first_module if arity == 2 else None)


def load_record_tally(path: Union[str, Path]) -> RecordTally:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return tally_records(fh)


def parse_confusion(text: str) -> ConfusionCounts:
    """Parse a confusion matrix from a JSON object with fields fn, tn[, fp, tp]."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
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
    with open(path, "r", encoding="utf-8") as fh:
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
