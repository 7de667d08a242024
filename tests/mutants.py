"""Mutant catalogue: each entry breaks the program in one place, and the tests it names must catch it.

Run it from anywhere; tier-1 does not collect it:

    python tests/mutants.py           # every entry
    python tests/mutants.py NAME ...  # the named entries

An entry names a file, an exact text that must occur in it once, the text that replaces it, and the tests
that must fail.  First the named tests run on an unmutated copy of the tree and must pass there.  Then, for
each entry, the runner copies the whole tree into a temporary directory (the tests read README.md and the CI
workflow), applies the one replacement and runs the entry's tests with the copy's ``src`` first on the path.
It exits 1 if an anchor text is missing or repeated, if the unmutated tests fail, or if a mutant survives:
every named test passes on it.  A refactor that moves an anchor must therefore move its entry with it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List, NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str
    anchor: str
    replacement: str
    tests: List[str]


_MC = "src/sdpbounds/montecarlo.py"
_REPORT = "src/sdpbounds/report.py"
_BOUNDS = "src/sdpbounds/bounds.py"
_INGEST = "src/sdpbounds/ingest.py"
_CUTOFF_EXPONENT = ("return _gap_exponent(gap, mu) if gap < math.inf else "
                    "4.0 * _gap_exponent(0.5 * mu - 0.5 * threshold, mu)")
_TAIL_RECORD = "MonteCarloEstimate(p_hat, std_error, ci_low, ci_high, n, seed, event_threshold=threshold)"
_TAIL_ESTIMATE = "(_Draws((), (), n, seed) if threshold <= 0.0 else _draw(pop, n, seed, workers)).tail(threshold)"
_HAZARD_BOUND = "_hazard_fields(pop.l * pop.p, weibull_hazard(manual, t), weibull_hazard(residual, t), t)"
_RELIABILITY_TAIL = 'point["reliability_exact_tail"], audit, mc = audited(record)'

MUTANTS = [
    Mutant("tail-record-built-directly", _MC, _TAIL_RECORD,
           '__import__("types").SimpleNamespace(estimate=p_hat, std_error=std_error, ci_low=ci_low, ci_high=ci_high, '
           'n_samples=n, seed=seed, event_threshold=threshold)',
           ["tests/test_montecarlo.py::test_sweep_estimates_pass_the_estimate_checks"]),
    Mutant("estimator-rebuilds-estimate", _MC, _TAIL_ESTIMATE, f"MonteCarloEstimate(**vars({_TAIL_ESTIMATE}))",
           ["tests/test_montecarlo.py::test_each_estimator_builds_its_estimate_once"]),
    Mutant("point-shares-kept-record", _REPORT, "exact), mc and dict(vars(mc))", "exact), mc and vars(mc)",
           ["tests/test_report_cli.py::test_sampled_sweep_report_is_a_tree"]),
    Mutant("reference-audit-reads-hazard-bound", _REPORT, "audited(reference)[1]", "audited(hazard)[1]",
           ["tests/test_acceptance.py::test_criterion7_audit_integrity",
            "tests/test_report_cli.py::test_report_records_are_the_public_objects_fields"]),
    Mutant("reliability-exact-tail-from-hazard-cutoff", _REPORT, _RELIABILITY_TAIL,
           '(_, audit, mc), point["reliability_exact_tail"] = audited(record), point["hazard_exact_tail"]',
           ["tests/test_report_cli.py::test_each_tail_is_read_at_its_own_bound_cutoff"]),
    Mutant("mean-keyed-without-t", _REPORT, "mc = mean(residual, t)", "mc = mean(residual, 1.0)",
           ["tests/test_montecarlo.py::test_one_reliability_mean_per_population_residual_and_t",
            "tests/test_montecarlo.py::test_kept_reliability_means_match_single_point_analysis"]),
    Mutant("point-shares-kept-mean", _REPORT, 'point["expected_reliability_mc"] = mc and dict(vars(mc))',
           'point["expected_reliability_mc"] = mc and vars(mc)',
           ["tests/test_montecarlo.py::test_kept_reliability_means_match_single_point_analysis",
            "tests/test_report_cli.py::test_sampled_sweep_report_is_a_tree"]),
    Mutant("caches-shared-across-populations", _REPORT, "caches = _population(pop, grid, workers)",
           "caches = caches if points else _population(pop, grid, workers)",
           ["tests/test_report_cli.py::test_sweep_computes_each_exact_tail_once"]),
    Mutant("draw-ceiling-checks-samples-alone", _REPORT, "if self.samples * len(populations) > 2**32:",
           "if self.samples > 2**32:",
           ["tests/test_report_cli.py::test_draws_past_the_ceiling_are_refused_before_any_draw"]),
    Mutant("sweepgrid-l-check-dropped", _REPORT, "l=pop.l if self.samples else 0", "l=0",
           ["tests/test_montecarlo.py::test_each_sampling_fault_has_one_message_at_every_entry_point",
            "tests/test_report_cli.py::test_sweep_checks_each_population_sampling_contract_first"]),
    Mutant("empty-axis-check-dropped", _REPORT, "if not values:", "if False:",
           ["tests/test_montecarlo.py::test_analyze_checks_every_input_before_it_draws"]),
    Mutant("tail-counts-the-cutoff", _MC, "self.values < threshold", "self.values <= threshold",
           ["tests/test_montecarlo.py::test_tail_estimate_covers_exact_cdf",
            "tests/test_montecarlo.py::test_tail_estimates_keep_their_stream"]),
    Mutant("seed-packed-big-endian", _MC, 'struct.pack("<Qqd"', 'struct.pack(">Qqd"',
           ["tests/test_montecarlo.py::test_population_seeds_are_pinned"]),
    Mutant("wilson-z-one-sided", _MC, "_Z95 = 1.959963984540054", "_Z95 = 1.645",
           ["tests/test_montecarlo.py::test_wilson_coverage_across_seeds"]),
    Mutant("estimator-n-check-dropped", _MC, "if n < 1000:", "if False:",
           ["tests/test_montecarlo.py::test_each_sampling_fault_has_one_message_at_every_entry_point"]),
    Mutant("block-count-overflow-not-mapped", _MC, "if full > sys.maxsize:", "if False:",
           ["tests/test_montecarlo.py::test_each_sampling_fault_has_one_message_at_every_entry_point"]),
    Mutant("thread-cap-dropped", _MC, "threads = min(workers, len(sizes), os.cpu_count() or 1)",
           "threads = min(workers, len(sizes))",
           ["tests/test_montecarlo.py::test_block_pool_opens_no_more_threads_than_cpus"]),
    Mutant("one-thread-pool", _MC, "if threads <= 1:", "if workers <= 1 or len(sizes) <= 1:",
           ["tests/test_montecarlo.py::test_block_pool_is_not_opened_for_one_thread"]),
    Mutant("wilson-counts-unchecked", _MC, "if not 0 <= successes <= n:", "if False:",
           ["tests/test_montecarlo.py::test_library_input_checks_name_what_they_reject"]),
    Mutant("nan-bound-holds", _MC, "VERDICT_HOLDS if value <= bound else VERDICT_VIOLATED",
           "VERDICT_VIOLATED if value > bound else VERDICT_HOLDS",
           ["tests/test_montecarlo.py::test_no_audit_holds_at_a_nan"]),
    Mutant("draws-at-inflated-p", _MC, "rng.binomial(pop.l, pop.p, size=size)",
           "rng.binomial(pop.l, min(1.0, 1.02 * pop.p), size=size)",
           ["tests/test_montecarlo.py::test_tail_estimate_covers_exact_cdf"]),
    Mutant("nan-cutoff-crashes-oracle", "src/sdpbounds/failures.py", "if not threshold > 0.0:", "if threshold <= 0.0:",
           ["tests/test_montecarlo.py::test_no_audit_holds_at_a_nan"]),
    Mutant("oracle-as-lower-incomplete-beta", "src/sdpbounds/failures.py", "special.betaincc(k + 1, pop.l - k, pop.p)",
           "special.betainc(pop.l - k, k + 1, 1.0 - pop.p)",
           ["tests/test_failures.py::test_cdf_accuracy_large_l", "tests/test_failures.py::test_cdf_matches_pmf_sum"]),
    Mutant("hazard-bound-residual-first", _BOUNDS, _HAZARD_BOUND,
           f"(lambda residual_hazard: {_HAZARD_BOUND.replace('weibull_hazard(residual, t)', 'residual_hazard')})"
           "(weibull_hazard(residual, t))",
           ["tests/test_report_cli.py::test_hazard_bound_names_the_fault_a_report_names"]),
    Mutant("half-gap-on-every-call", _BOUNDS, _CUTOFF_EXPONENT,
           "return 4.0 * _gap_exponent(0.5 * mu - 0.5 * threshold, mu)",
           ["tests/test_bounds.py::test_comparison_bound_exponents_match_mpmath"]),
    Mutant("expanded-reliability-exponent", _BOUNDS, _CUTOFF_EXPONENT,
           "return -(0.5 * mu - threshold + 0.5 * threshold * threshold / mu)",
           ["tests/test_bounds.py::test_comparison_bound_exponents_match_mpmath",
            "tests/test_report_cli.py::test_cli_reliability_verdicts_near_the_as_stated_proxy"]),
    Mutant("square-normal-range-test-dropped", _BOUNDS, "2.0 ** -1022 <= square < math.inf",
           "0.0 < square < math.inf", ["tests/test_bounds.py::test_comparison_bound_exponents_match_mpmath"]),
    Mutant("reference-textbook-exponent", _BOUNDS, "else _cutoff_exponent(threshold, mu)",
           "else -mu * delta * delta / 2.0",
           ["tests/test_bounds.py::test_comparison_bound_exponents_match_mpmath",
            "tests/test_report_cli.py::test_cli_accepted_argv_returns_with_one_error_line"]),
    Mutant("reference-delta-quotient", _BOUNDS, "delta = 1.0 - threshold / mu", "delta = (mu - threshold) / mu",
           ["tests/test_report_cli.py::test_delta_is_one_minus_the_cutoff_over_mu"]),
    Mutant("delta-boundary-rule-dropped", _BOUNDS, "flags.append(FLAG_DELTA_BOUNDARY)", "pass",
           ["tests/test_bounds.py::test_hazard_bound_zero_threshold",
            "tests/test_bounds.py::test_hazard_bound_delta_zero_boundary"]),
    Mutant("zeros-looked-up-in-csv-table", _REPORT, "if type(v) is float and v", "if type(v) is float",
           ["tests/test_report_cli.py::test_sweep_csv_matches_csv_writer"]),
    Mutant("comma-count-check-dropped", _INGEST, "or np.count_nonzero(codes == 44) != (arity - 1) * n", "or False",
           ["tests/test_ingest.py::test_grouped_tally_matches_record_by_record_reference"]),
    Mutant("carriage-return-count-check-dropped", _INGEST, "cr not in (0, n)", "False",
           ["tests/test_ingest.py::test_block_reader_matches_text_mode_at_chunk_and_block_edges"]),
    Mutant("chunks-of-16384-bytes", _INGEST, "_CHUNK_BYTES = 8192", "_CHUNK_BYTES = 16384",
           ["tests/test_ingest.py::test_block_reader_matches_text_mode_at_chunk_and_block_edges"]),
    Mutant("byte-order-mark-kept", _INGEST, 'b""), "utf-8-sig")', 'b""), "utf-8")',
           ["tests/test_ingest.py::test_byte_order_mark_is_skipped"]),
    Mutant("first-block-not-cut", _INGEST, 'text.find("\\n", text.find("\\n") + 1) + 1', "0",
           ["tests/test_ingest.py::test_plain_records_bypass_csv"]),
    Mutant("open-line-unbounded", _INGEST, "(start := len(text) - window) >= 0", "False",
           ["tests/test_ingest.py::test_open_line_is_rejected_in_bounded_memory"]),
    Mutant("rounded-rate-passes-gate", _INGEST,
           "if not violations and (p := false_omission_rate(counts)) in (0.0, 1.0):", "if False:",
           ["tests/test_ingest.py::test_gate_refuses_a_rate_that_rounds_to_zero_or_one"]),
    Mutant("nul-check-dropped", _INGEST, 'if "\\0" in line:', "if False:",
           ["tests/test_ingest.py::test_nul_is_a_parse_error_on_every_python"]),
    Mutant("unreadable-input-not-mapped", "src/sdpbounds/cli.py", "except (OSError, UnicodeDecodeError) as exc:",
           "except UnicodeDecodeError as exc:", ["tests/test_report_cli.py::test_cli_unreadable_input_path_is_exit_2"]),
]


def _copy_tree(into: Path) -> Path:
    copy = into / "tree"
    shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".work",
                                                              "*.egg-info", "build"))
    return copy


def _pytest(copy: Path, tests: List[str]) -> int:
    """pytest's exit code for the tests, run against the copy's sources: 0 all passed, 1 some failed."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src")}
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main(names: List[str]) -> int:
    mutants = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in mutants}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}")
        return 1
    failed = False
    with tempfile.TemporaryDirectory() as scratch:
        copy = _copy_tree(Path(scratch))
        tests = sorted({test for m in mutants for test in m.tests})
        if _pytest(copy, tests) != 0:
            print("the named tests fail on the unmutated tree")
            return 1
        for mutant in mutants:
            shutil.rmtree(copy)
            copy = _copy_tree(Path(scratch))
            target = copy / mutant.path
            text = target.read_text(encoding="utf-8")
            if text.count(mutant.anchor) != 1:
                print(f"ANCHOR   {mutant.name}: found {text.count(mutant.anchor)} times in {mutant.path}")
                failed = True
                continue
            target.write_text(text.replace(mutant.anchor, mutant.replacement), encoding="utf-8")
            code = _pytest(copy, mutant.tests)
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (pytest exit {code})")
            print(f"{verdict:8} {mutant.name}")
            failed |= code != 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
