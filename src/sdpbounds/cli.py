"""Command-line front end: FOR derivation, bound analysis and parameter sweeps.

Standard output holds the report (JSON for analyze, the CSV for sweep) or, with
--out, one line naming the file followed by the audit summary. Exit codes: 0
success; 1 usage or domain error (an unwritable output included), or a violated
'for' verdict, which still prints its full report; 2 input parse error; 3 audit
violation under --strict.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import os
import sys
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import __version__
from .hazards import AS_STATED, MODES, SIGN_CORRECTED
from .ingest import (
    ConfusionCounts,
    ParseError,
    RecordTally,
    false_omission_rate,
    load_confusion,
    load_record_tally,
    validate_assumptions,
)
from .report import (
    PARAM_NAMES,
    SweepGrid,
    _report_json,
    analyze,
    sweep,
    sweep_csv_text,
    write_report,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_PARSE = 2
EXIT_STRICT = 3


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to the domain-error exit code."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_DOMAIN, f"{self.prog}: error: {message}\n")


def _list_of(kind: type, what: str) -> Callable[[str], List]:
    """An argparse type: comma-separated values of ``kind``, called ``what`` in its error."""

    def parse(text: str) -> List:
        try:
            return [kind(part) for part in text.split(",") if part.strip()]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"expected comma-separated {what}, got {text!r}") from exc

    return parse


def _add_sampling_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--samples", type=int, default=10_000,
                        help="Monte Carlo draws per (l, p) population, one stream shared by all its points "
                             "and times (0 disables sampling; default 10000)")
    parser.add_argument("--seed", type=int, default=12345, help="base seed (default 12345)")
    parser.add_argument("--workers", type=int, default=1, help="parallel workers (default 1)")
    parser.add_argument("--mode", choices=[AS_STATED, SIGN_CORRECTED, "both"], default="both",
                        help="expected-reliability proxy variant(s) to evaluate")
    parser.add_argument("--out", help="output file path")
    parser.add_argument("--strict", action="store_true",
                        help="exit with status 3 when any audit verdict is 'violated'")


def build_parser() -> _Parser:
    parser = _Parser(prog="sdpbounds", description=__doc__)
    parser.add_argument("--version", action="version", version=f"sdpbounds {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_for = sub.add_parser("for", help="false omission rate and validation verdict")
    p_for.add_argument("--fn", type=int, help="false-negative count")
    p_for.add_argument("--tn", type=int, help="true-negative count")
    p_for.add_argument("--confusion", help="confusion-matrix JSON file")
    p_for.add_argument("--records", help="per-module prediction records CSV")
    p_for.set_defaults(run=_cmd_for)

    p_an = sub.add_parser("analyze", help="full bound analysis over a list of times")
    p_an.add_argument("--l", type=int, help="predicted-clean module count")
    p_an.add_argument("--p", type=float, help="per-module misclassification probability")
    p_an.add_argument("--confusion", help="confusion-matrix JSON file (sets p, and l unless given)")
    p_an.add_argument("--records", help="prediction records CSV (sets l; and p when actuals present)")
    p_an.add_argument("--K", type=float, required=True, help="manual hazard scale")
    p_an.add_argument("--m", type=float, required=True, help="manual hazard shape")
    p_an.add_argument("--K-hat", type=float, required=True, help="residual hazard scale")
    p_an.add_argument("--m-hat", type=float, required=True, help="residual hazard shape")
    p_an.add_argument("--t", type=_list_of(float, "numbers"), required=True, help="comma-separated time points")
    _add_sampling_flags(p_an)
    p_an.set_defaults(run=_cmd_analyze)

    p_sw = sub.add_parser("sweep", help="Cartesian parameter sweep with audit summary")
    for name in PARAM_NAMES:
        values = _list_of(int, "integers") if name == "l" else _list_of(float, "numbers")
        p_sw.add_argument("--" + name.replace("_", "-"), type=values, required=True)
    _add_sampling_flags(p_sw)
    p_sw.set_defaults(run=_cmd_sweep)

    return parser


def _input_file(args: argparse.Namespace) -> Tuple[Optional[ConfusionCounts], Optional[RecordTally], Dict[str, object]]:
    """(counts, tally, provenance) of the --confusion or --records file, if any; counts is None for unlabelled records."""
    if args.confusion is None and args.records is None:
        return None, None, {"source": "literal"}
    try:
        if args.confusion is not None:
            return load_confusion(args.confusion), None, {"source": "confusion-file", "path": args.confusion}
        tally = load_record_tally(args.records)
    except (OSError, UnicodeDecodeError) as exc:  # an input that cannot be opened or decoded
        raise ParseError(f"cannot read input: {exc}") from exc
    counts = tally.confusion() if tally.unlabelled is None else None
    return counts, tally, {"source": "records-file", "path": args.records}


def _counts_from_args(args: argparse.Namespace) -> Tuple[ConfusionCounts, Dict[str, object]]:
    given = [name for name in ("fn", "tn") if getattr(args, name) is not None]
    sources = sum([bool(given), args.confusion is not None, args.records is not None])
    if sources != 1:
        raise ValueError("provide exactly one source: --fn/--tn, --confusion, or --records")
    if given:
        if len(given) != 2:
            raise ValueError("--fn and --tn must be given together")
        return ConfusionCounts(args.fn, args.tn), {"source": "literal", "fn": args.fn, "tn": args.tn}
    counts, tally, provenance = _input_file(args)
    return counts or tally.confusion(), provenance


def _cmd_for(args: argparse.Namespace) -> Tuple[int, str, None]:
    counts, provenance = _counts_from_args(args)
    verdict = validate_assumptions(counts)
    lines = [
        f"source: {provenance['source']}",
        f"fn={counts.fn_count} tn={counts.tn_count} predicted_clean={counts.fn_count + counts.tn_count}",
        f"p={false_omission_rate(counts)!r}",
        "verdict: ok" if verdict.ok else "verdict: violated",
        *(f"  violation: {violation}" for violation in verdict.violations),
        *(f"  caveat: {caveat}" for caveat in verdict.caveats),
    ]
    return (EXIT_OK if verdict.ok else EXIT_DOMAIN), "\n".join(lines) + "\n", None


def _population_from_args(args: argparse.Namespace) -> Tuple[int, float, Dict[str, object]]:
    """Resolve (l, p) from literals and/or input files for analyze."""
    l, p = args.l, args.p
    if args.confusion is not None and args.records is not None:
        raise ValueError("give at most one of --confusion and --records")
    counts, tally, provenance = _input_file(args)
    if counts is None and tally is not None:
        l = tally.l_clean if l is None else l
        provenance.update(n_total=tally.n_total, l_clean=tally.l_clean)
    if counts is not None:
        verdict = validate_assumptions(counts)
        if not verdict.ok:
            raise ValueError("; ".join(verdict.violations))
        p = false_omission_rate(counts) if p is None else p
        l = (counts.fn_count + counts.tn_count) if l is None else l
        provenance.update(fn=counts.fn_count, tn=counts.tn_count)
    if l is None or p is None:
        raise ValueError("l and p must be resolvable from --l/--p or an input file")
    return l, p, provenance


def _written(report: Dict[str, object], out: str) -> str:
    """Write the report to ``out``; the stdout text names the file and gives the report's summary."""
    write_report(report, out)
    lines = [f"report written to {out} ({len(report['points'])} points)", "audit summary:"]
    for family, tallies in report["summary"]["audits"].items():
        lines.append(f"  {family}: " + " ".join(f"{verdict}={count}" for verdict, count in tallies.items()))
    mono = report["summary"].get("monotonicity_in_l")
    if mono is not None:
        lines.append(f"monotonicity in l: {mono['monotone']}/{mono['groups_checked']} groups strictly decreasing")
        for violation in mono["violations"]:
            lines.append(f"  non-monotone at {violation['axes']}: {violation['bounds_by_l']}")
    return "\n".join(lines) + "\n"


def _cmd_analyze(args: argparse.Namespace) -> Tuple[int, str, Dict[str, object]]:
    l, p, provenance = _population_from_args(args)
    report = analyze(
        l, p, args.K, args.m, args.K_hat, args.m_hat, args.t,
        samples=args.samples, seed=args.seed, workers=args.workers,
        modes=MODES if args.mode == "both" else (args.mode,), provenance=provenance,
    )
    return EXIT_OK, _report_json(report) if args.out is None else _written(report, args.out), report


def _cmd_sweep(args: argparse.Namespace) -> Tuple[int, str, Dict[str, object]]:
    grid = SweepGrid(
        *(tuple(getattr(args, name)) for name in PARAM_NAMES),
        samples=args.samples,
        seed=args.seed,
        modes=MODES if args.mode == "both" else (args.mode,),
    )
    report = sweep(grid, workers=args.workers)
    return EXIT_OK, sweep_csv_text(report["points"]) if args.out is None else _written(report, args.out), report


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command and return its exit code.

    The objects alive on entry, the imports' above all, are frozen for the
    run so that no full garbage collection walks them; a caller's own freeze
    is left as it is.
    """
    if gc.get_freeze_count():
        return _main(argv)
    gc.freeze()
    try:
        return _main(argv)
    finally:
        gc.unfreeze()


def _main(argv: Optional[Sequence[str]]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, text, report = args.run(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:  # inputs are read as ParseError, so this is the --out file
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    try:  # line by line: an unbuffered stdout drops the rest of a partial write without an error
        sys.stdout.writelines(text.splitlines(keepends=True))
        sys.stdout.flush()
    except OSError as exc:
        if not isinstance(exc, BrokenPipeError):  # a reader that went away is a quiet exit
            print(f"error: cannot write output: {exc}", file=sys.stderr)
        # What stdout still buffers goes to devnull, or the flush at exit fails again.
        with contextlib.suppress(OSError, ValueError):  # a stdout with no file descriptor behind it
            fd = sys.stdout.fileno()
            with open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), fd)
        return EXIT_DOMAIN
    if report is not None:  # told only once the report is out; under --strict it sets the exit code
        violations = sum(tallies.get("violated", 0) for tallies in report["summary"]["audits"].values())
        if violations:
            print(f"audit violations: {violations}", file=sys.stderr)
            if args.strict:
                return EXIT_STRICT
    return code


if __name__ == "__main__":
    raise SystemExit(main())
