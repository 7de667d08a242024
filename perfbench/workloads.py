"""Seeded command lines and input files for the benchmark workloads.

The program sees only the argv and files made here.  The same workload name
and seed always give the same argv and byte-identical input files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List

import numpy as np

# The shipped 972-point DEFAULT_AUDIT_AXES grid, written out so that a change
# to the program's defaults cannot change what the benchmark measures.
GRID_ARGS = [
    "--l", "10,100,1000",
    "--p", "0.01,0.1,0.5",
    "--K", "0.5,2.0,19.99",
    "--m", "0.0,0.5",
    "--K-hat", "0.5,1.0,10.0",
    "--m-hat", "0.0,0.5",
    "--t", "0.25,1.0,4.0",
]
GRID_POINTS = 972

# records-large-l: a test-set CSV (actual labels present) of RECORD_ROWS rows.
# About 80% are predicted clean, so l stays near 8e5 and never above 1e6,
# the largest l the current exact oracle sums; about 10% of those hide a
# defect, so each tail sum runs over tens of thousands of terms.
RECORD_ROWS = 1_000_000
CLEAN_SHARE = 0.8
CLEAN_DEFECT_RATE = 0.1
FLAGGED_DEFECT_RATE = 0.6
T_COUNT = 8
RESIDUAL_K = 1.0

WORKLOADS = ("grid-exact", "grid-mc", "records-large-l")


@dataclass(frozen=True)
class Workload:
    argv: List[str]
    out_path: Path
    out_format: str  # "csv" or "json"
    points: int


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Write the inputs of one workload under workdir and return its argv."""
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "grid-exact":
        out = workdir / "grid-exact.csv"
        argv = ["sweep", *GRID_ARGS, "--samples", "0", "--seed", str(seed),
                "--workers", "1", "--out", str(out)]
        return Workload(argv, out, "csv", GRID_POINTS)
    if name == "grid-mc":
        out = workdir / "grid-mc.json"
        argv = ["sweep", *GRID_ARGS, "--samples", "10000", "--seed", str(seed),
                "--workers", "1", "--out", str(out)]
        return Workload(argv, out, "json", GRID_POINTS)
    if name == "records-large-l":
        records = workdir / "records.csv"
        fn = write_records(records, seed)
        out = workdir / "records-large-l.json"
        argv = ["analyze", "--records", str(records), *records_shape_args(fn),
                "--samples", "0", "--seed", str(seed), "--workers", "1", "--out", str(out)]
        return Workload(argv, out, "json", T_COUNT)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")


def write_records(path: Path, seed: int) -> int:
    """Write the seeded records CSV; return its false-negative count (l*p)."""
    rng = np.random.default_rng(seed)
    clean = rng.random(RECORD_ROWS) < CLEAN_SHARE
    u = rng.random(RECORD_ROWS)
    defective = np.where(clean, u < CLEAN_DEFECT_RATE, u < FLAGGED_DEFECT_RATE)
    labels = np.array(["defective", "clean"])
    predicted = labels[clean.astype(np.intp)].tolist()
    actual = labels[(~defective).astype(np.intp)].tolist()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("module_id,predicted,actual\n")
        fh.write("".join(f"m{i},{a},{b}\n" for i, (a, b) in enumerate(zip(predicted, actual))))
    return int(np.count_nonzero(clean & defective))


def records_shape_args(fn: int) -> List[str]:
    """Shapes m = m_hat = 0.5 and K set from l*p = fn.

    With equal shapes the hazard cutoff is (K - K_hat)*sqrt(t) and the
    reliability cutoff is that over 1.5.  sqrt(t) runs from 1 to 2, and K puts
    the largest hazard cutoff at 0.99*l*p, so every cutoff lies between
    l*p/3 and just under l*p: long tail sums, all on the exact path.
    """
    t_values = [(1.0 + i / (T_COUNT - 1)) ** 2 for i in range(T_COUNT)]
    k = RESIDUAL_K + 0.99 * fn / 2.0
    return ["--K", repr(k), "--m", "0.5", "--K-hat", repr(RESIDUAL_K), "--m-hat", "0.5",
            "--t", ",".join(repr(t) for t in t_values)]
