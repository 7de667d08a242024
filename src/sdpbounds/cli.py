"""Command-line front end: FOR derivation, bound analysis, sweeps, plot data.

Exit codes: 0 success, 1 usage or domain error (an output file that cannot
be written included), 2 input parse error, 3 audit violation under --strict.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import sys
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from . import __version__
from .failures import FailurePopulation
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
    PLOT_SELECTORS,
    SweepGrid,
    _plotdata_text,
    _report_json,
    _require_sampling,
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
                        help="Monte Carlo draws per point (0 disables sampling; default 10000)")
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

    p_pd = sub.add_parser("plotdata", help="extract plot-ready (x, y) series from a report")
    p_pd.add_argument("report", help="analyze/sweep JSON report or sweep CSV")
    p_pd.add_argument("--selector", required=True, help=f"one of {', '.join(PLOT_SELECTORS)}")
    p_pd.add_argument("--out", help="output file (default: stdout)")
    p_pd.set_defaults(run=_cmd_plotdata)

    return parser


@contextlib.contextmanager
def _reading_input() -> Iterator[None]:
    """An input file that cannot be opened, decoded or parsed is a parse error, not an output one."""
    try:
        yield
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, KeyError) as exc:
        raise ParseError(f"cannot read input: {exc}") from exc


def _input_file(args: argparse.Namespace) -> Tuple[Optional[ConfusionCounts], Optional[RecordTally], Dict[str, object]]:
    """(counts, tally, provenance) of the --confusion or --records file; counts is None for unlabelled records."""
    with _reading_input():
        if args.confusion is not None:
            return load_confusion(args.confusion), None, {"source": "confusion-file", "path": args.confusion}
        tally = load_record_tally(args.records)
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


def _cmd_for(args: argparse.Namespace) -> int:
    counts, provenance = _counts_from_args(args)
    verdict = validate_assumptions(counts)
    print(f"source: {provenance['source']}")
    print(f"fn={counts.fn_count} tn={counts.tn_count} predicted_clean={counts.fn_count + counts.tn_count}")
    print(f"p={false_omission_rate(counts)!r}")
    if verdict.ok:
        print("verdict: ok")
    else:
        print("verdict: violated")
        for violation in verdict.violations:
            print(f"  violation: {violation}")
    for caveat in verdict.caveats:
        print(f"  caveat: {caveat}")
    return EXIT_OK if verdict.ok else EXIT_DOMAIN


def _population_from_args(args: argparse.Namespace) -> Tuple[int, float, Dict[str, object]]:
    """Resolve (l, p) from literals and/or input files for analyze."""
    l, p = args.l, args.p
    if args.confusion is not None and args.records is not None:
        raise ValueError("give at most one of --confusion and --records")
    counts: Optional[ConfusionCounts] = None
    provenance: Dict[str, object] = {"source": "literal"}
    if args.confusion is not None or args.records is not None:
        counts, tally, provenance = _input_file(args)
        if counts is None:
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
    FailurePopulation(l, p)  # domain check with a precise message
    return l, p, provenance


def _print_point_summary(point: Dict[str, object]) -> None:
    hazard = point["hazard_audit"]
    pieces = [
        f"t={point['t']:g}:",
        f"hazard bound {point['hazard_bound']['bound']:.6g} [{hazard['verdict']}]",
        f"exact {point['hazard_exact_tail']:.6g}",
    ]
    for mode, record in point["reliability_bound"].items():
        pieces.append(f"reliability[{mode}] {record['bound']['bound']:.6g} [{record['audit']['verdict']}]")
    pieces.append(f"reference {point['reference_bound']['bound']:.6g} [{point['reference_audit']['verdict']}]")
    print(" ".join(pieces))


def _audit_exit_code(report: Dict[str, object], strict: bool) -> int:
    """Report violated audits on stderr; with --strict they set the exit code."""
    violations = sum(tallies.get("violated", 0) for tallies in report["summary"]["audits"].values())
    if violations:
        print(f"audit violations: {violations}", file=sys.stderr)
        if strict:
            return EXIT_STRICT
    return EXIT_OK


def _cmd_analyze(args: argparse.Namespace) -> int:
    _require_sampling(args.samples, args.seed, args.workers)
    l, p, provenance = _population_from_args(args)
    report = analyze(
        l, p, args.K, args.m, args.K_hat, args.m_hat, args.t,
        samples=args.samples, seed=args.seed, workers=args.workers,
        modes=MODES if args.mode == "both" else (args.mode,), provenance=provenance,
    )
    if args.out is not None:
        write_report(report, args.out)
        print(f"report written to {args.out}")
        for point in report["points"]:
            _print_point_summary(point)
    else:
        sys.stdout.write(_report_json(report))
    return _audit_exit_code(report, args.strict)


def _cmd_sweep(args: argparse.Namespace) -> int:
    _require_sampling(args.samples, args.seed, args.workers)
    grid = SweepGrid(
        *(tuple(getattr(args, name)) for name in PARAM_NAMES),
        samples=args.samples,
        seed=args.seed,
        modes=MODES if args.mode == "both" else (args.mode,),
    )
    report = sweep(grid, workers=args.workers)
    if args.out is not None:
        write_report(report, args.out)
        print(f"sweep written to {args.out} ({len(report['points'])} points)")
    else:
        sys.stdout.write(sweep_csv_text(report["points"]))
    print("audit summary:")
    for family, tallies in report["summary"]["audits"].items():
        counts = " ".join(f"{verdict}={count}" for verdict, count in tallies.items())
        print(f"  {family}: {counts}")
    mono = report["summary"].get("monotonicity_in_l")
    if mono is not None:
        print(
            f"monotonicity in l: {mono['monotone']}/{mono['groups_checked']} "
            f"groups strictly decreasing"
        )
        for violation in mono["violations"]:
            print(f"  non-monotone at {violation['axes']}: {violation['bounds_by_l']}")
    return _audit_exit_code(report, args.strict)


def _cmd_plotdata(args: argparse.Namespace) -> int:
    with _reading_input():
        text = _plotdata_text(args.report, args.selector)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"series written to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


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
        code = args.run(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at interpreter exit
        return code
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:  # inputs are read inside _reading_input, so this is a failed write
        if not isinstance(exc, BrokenPipeError):  # a reader that went away is a quiet exit
            print(f"error: cannot write output: {exc}", file=sys.stderr)
        try:  # a stdout that cannot take what it buffers goes to devnull, or the flush at exit fails again
            sys.stdout.flush()
        except OSError:
            with contextlib.suppress(OSError, ValueError):  # a stdout with no file descriptor behind it
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_DOMAIN
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    raise SystemExit(main())
