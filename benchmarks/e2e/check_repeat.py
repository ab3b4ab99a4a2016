#!/usr/bin/env python3
"""Do two sets of runs of the same code agree within the benchmark's bounds?

    python3 benchmarks/e2e/check_repeat.py A.json B.json
    python3 benchmarks/e2e/check_repeat.py --seed 1 --repeats 10   # runs the suite twice

Each file is a ``run.py`` suite result.  Per workload x end-to-end metric it
prints both medians, how much worse B is than A, the spread of the runs
(distance between first and third quartile as a share of the median, the
larger of the two sets), the bound, and a verdict:

* ``ok``         — B is not worse than A by more than the bound;
* ``unresolved`` — the spread is wider than the bound, so the comparison
  cannot tell a regression from noise (raise the run length before widening
  the bound);
* ``WORSE``      — B is worse than A by more than the bound.

Exact metrics (counts, the cost model) must repeat exactly, run by run.
Exits non-zero on any ``unresolved``, ``WORSE`` or exact mismatch.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import contract  # noqa: E402


def spread(runs: list[float]) -> float:
    """Interquartile distance as a share of the median (range, under 4 runs)."""
    if len(runs) < 2:
        return 0.0
    if len(runs) < 4:
        low, high = min(runs), max(runs)
    else:
        low, _, high = statistics.quantiles(runs, n=4)
    return (high - low) / abs(statistics.median(runs))


def worse_by(a: float, b: float, better: str) -> float:
    """By what share of ``a`` the second median is worse (negative: better)."""
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def compare(a: dict, b: dict) -> int:
    problems = 0
    print(f"{'workload':18s}{'metric':24s}{'A':>14s}{'B':>14s}{'B worse by':>12s}"
          f"{'spread':>9s}{'bound':>8s}  verdict")
    for name in a["workloads"]:
        for m in contract.END_TO_END:
            runs_a = a["workloads"][name]["end_to_end"][m.name]["runs"]
            runs_b = b["workloads"][name]["end_to_end"][m.name]["runs"]
            med_a, med_b = statistics.median(runs_a), statistics.median(runs_b)
            worse = worse_by(med_a, med_b, m.better)
            wide = max(spread(runs_a), spread(runs_b))
            verdict = "unresolved" if wide > m.bound else "WORSE" if worse > m.bound else "ok"
            problems += verdict != "ok"
            print(f"{name:18s}{m.name:24s}{med_a:>14.6g}{med_b:>14.6g}{worse:>+12.2%}"
                  f"{wide:>9.2%}{m.bound:>8.2%}  {verdict}")
        for metric in contract.EXACT:
            layer_a = a["workloads"][name]["per_layer"].get(metric)
            layer_b = b["workloads"][name]["per_layer"].get(metric)
            if layer_a is None or layer_b is None:
                continue
            same = layer_a["runs"] == layer_b["runs"]
            problems += not same
            print(f"{name:18s}{metric:24s}{layer_a['value']:>14.6g}{layer_b['value']:>14.6g}"
                  f"{'':12s}{'':9s}{'exact':>8s}  {'ok' if same else 'MISMATCH'}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="*", help="two suite result files (else: run twice)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--workload", choices=contract.ALL_WORKLOAD_NAMES)
    args = parser.parse_args(argv)
    if len(args.files) not in (0, 2):
        parser.error("give two result files, or none to run the suite twice")
    files = [Path(f) for f in args.files]
    if not files:
        for label in "AB":
            files.append(HERE / "out" / f"repeat-{label}.json")
            command = [sys.executable, str(HERE / "run.py"), "--seed", str(args.seed),
                       "--repeats", str(args.repeats), "--out", str(files[-1])]
            if args.workload:
                command += ["--workload", args.workload]
            subprocess.run(command, check=True)
    problems = compare(*(json.loads(f.read_text()) for f in files))
    print(f"{problems} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
