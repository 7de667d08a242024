"""sdpbounds benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The workload's inputs are made from
the seed first; then the workload's CLI command runs again and again, each
time in a fresh worker process (worker.py), until S seconds have passed.
Every written report is checked (checks.py).  The last stdout line is a JSON
object with the metrics BENCHMARK.json names: its end_to_end metrics with
--trace 0, its per_layer metrics with --trace 1.  The traced run alternates
untraced and traced commands, so tracing overhead is measured in one run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import checks
import tracing
import workloads

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK = Path(os.path.relpath(HERE / ".work", ROOT))  # relative, so reports do not name the checkout

MIN_COMMANDS = 2  # per kind of command, so two same-seed reports are compared
MIN_SETUPS = 8  # set-up samples behind the setup_s median
IMPORT_PROFILES = 3  # -X importtime runs behind the setup.import.* medians
WORKER_TIMEOUT_S = 120
# Bytecode writing stays on, so the warm-up leaves compiled modules for every
# later import, as an installed package has, whatever the caller's environment.
ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}


class Tally:
    """Operations attempted and failed: commands run and output checks made."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {what}: {'; '.join(problems[:3])}", file=sys.stderr)


def spawn(argv: List[str], spans: Optional[Path] = None) -> Dict:
    """Run worker.py once; raise RuntimeError if it fails."""
    cmd = [sys.executable, str(HERE / "worker.py"), str(SRC), json.dumps(argv)]
    if spans is not None:
        cmd.append(str(spans))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"worker timed out after {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def import_breakdown() -> Dict[str, float]:
    """Import time of sdpbounds.cli split into numpy, scipy and the rest.

    -X importtime prints one line per module, children before parents, each
    name indented by its depth.  A module's self time goes to the nearest of
    itself and its importers whose top-level package is numpy, scipy or
    sdpbounds, so stdlib modules that sdpbounds pulls in count as sdpbounds.
    """
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import sdpbounds.cli"],
                          cwd=ROOT, env=dict(ENV, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=WORKER_TIMEOUT_S, check=True)
    totals = {"numpy": 0.0, "scipy": 0.0, "sdpbounds": 0.0}
    pending: List[tuple] = []  # (depth, name, self_us, children)
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        depth = len(name) - len(name.lstrip())
        children = []
        while pending and pending[-1][0] > depth:
            children.append(pending.pop())
        pending.append((depth, name.strip(), int(self_us), children))

    def walk(node: tuple, category: Optional[str]) -> None:
        top = node[1].split(".")[0]
        category = top if top in totals else category
        if category is not None:
            totals[category] += node[2] / 1e6
        for child in node[3]:
            walk(child, category)

    for node in pending:
        walk(node, None)
    return totals


def exact_outside_ci_frac(text: str, fmt: str) -> float:
    """Share of points with a positive hazard cutoff whose exact tail lies
    outside the Monte Carlo Wilson 95% interval (about 0.05 expected)."""
    if fmt != "json":
        return 0.0
    pairs = [(pt["hazard_exact_tail"], pt["hazard_tail_mc"]) for pt in json.loads(text)["points"]
             if pt["hazard_tail_mc"] and pt["hazard_bound"]["event_threshold"] > 0.0]
    outside = sum(not (mc["ci_low"] <= exact <= mc["ci_high"]) for exact, mc in pairs)
    return outside / len(pairs) if pairs else 0.0


class Bench:
    """The commands of one run: their results, the first report and the tally."""

    def __init__(self, workload: workloads.Workload) -> None:
        self.workload = workload
        self.tally = Tally()
        self.first_report: Optional[bytes] = None
        self.plain: List[Dict] = []
        self.traced: List[Dict] = []

    def command(self, traced: bool) -> None:
        """Run the workload's command once and check what it wrote."""
        wl = self.workload
        wl.out_path.unlink(missing_ok=True)
        spans = WORK / "spans.json" if traced else None
        try:
            rec = spawn(wl.argv, spans)
        except RuntimeError as exc:
            self.tally.record("command", [str(exc)])
            return
        self.tally.record("exit code", [] if rec["exit_code"] == 0 else [f"exit code {rec['exit_code']}"])
        if traced:
            trace = json.loads(spans.read_text())
            if trace["missing"]:
                print(f"not traced, absent from the program: {trace['missing']}", file=sys.stderr)
            rec["layers"] = tracing.layer_metrics(trace["spans"])
            self.traced.append(rec)
        else:
            self.plain.append(rec)
        self.check(rec)

    def check(self, rec: Dict) -> None:
        wl = self.workload
        try:
            data = wl.out_path.read_bytes()
            report = checks.parse_report(data.decode("utf-8"), wl.out_format, rec["stdout"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self.tally.record("report", [f"unreadable report: {exc!r}"])
            return
        self.tally.record("point count", checks.check_points(report, wl.points))
        self.tally.record("verdict tallies", checks.check_tallies(report))
        self.tally.record("reference audit", checks.check_reference(report))
        self.tally.record("exact tails", checks.check_tails(report))
        if self.first_report is None:
            self.first_report = data
        else:
            self.tally.record("same-seed bytes", [] if data == self.first_report else ["report bytes differ"])


def end_to_end(bench: Bench) -> Dict[str, float]:
    setups = [rec["setup_s"] for rec in bench.plain]
    while len(setups) < MIN_SETUPS:
        setups.append(spawn([])["setup_s"])
    run_s = statistics.median(rec["run_s"] for rec in bench.plain)
    return {
        "setup_s": statistics.median(setups),
        "run_s": run_s,
        "points_per_s": bench.workload.points / run_s,
        "peak_rss_mb": statistics.median(rec["peak_rss_mb"] for rec in bench.plain),
    }


def per_layer(bench: Bench, imports: List[Dict[str, float]]) -> Dict[str, float]:
    wl = bench.workload
    layers = [rec["layers"] for rec in bench.traced]
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    for package in ("numpy", "scipy", "sdpbounds"):
        metrics[f"setup.import.{package}_s"] = statistics.median(b[package] for b in imports)
    text = bench.first_report.decode("utf-8")
    metrics["report.bytes_out"] = len(bench.first_report)
    metrics["report.nonfinite_tokens"] = checks.nonfinite_tokens(text, wl.out_format)
    metrics["montecarlo.exact_outside_ci_frac"] = exact_outside_ci_frac(text, wl.out_format)
    metrics["trace.overhead_frac"] = (
        statistics.median(rec["run_s"] for rec in bench.traced)
        / statistics.median(rec["run_s"] for rec in bench.plain) - 1.0
    )
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "sdpbounds" / "cli.py").is_file():
        print(f"error: {SRC / 'sdpbounds' / 'cli.py'} not found; run from the root of an "
              "sdpbounds source checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    workload = workloads.build(args.workload, args.seed, WORK)
    spawn([])  # warm-up: bytecode written, files in the page cache
    imports = [import_breakdown() for _ in range(IMPORT_PROFILES)] if args.trace else []

    bench = Bench(workload)
    kinds = (False, True) if args.trace else (False,)
    rounds = 0
    start = time.monotonic()
    while not bench.tally.failed and (rounds < MIN_COMMANDS or time.monotonic() - start < args.seconds):
        for traced in kinds:
            bench.command(traced)
        rounds += 1

    if bench.tally.failed:
        values: Dict[str, float] = {}
    elif args.trace:
        values = per_layer(bench, imports)
    else:
        values = end_to_end(bench)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    print(json.dumps({
        "correct": bench.tally.failed == 0 and len(metrics) == len(wanted),
        "attempted": bench.tally.attempted,
        "failed": bench.tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
