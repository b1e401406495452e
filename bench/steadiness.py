"""Steadiness report: run the benchmark several times per workload, each time
with another seed, and compare each end-to-end metric's run-to-run spread
with its bound in BENCHMARK.json.

    python3 bench/steadiness.py --runs 10
    python3 bench/steadiness.py --runs 5 --workloads poly --seconds 30

For every workload and metric it prints the median, the quartiles and the
spread (q3 - q1) / median of the per-run values, as Python's
``statistics.quantiles(values, n=4)`` gives them, next to the bound, and
flags a spread above the bound (setup_s is exempt: its bound limits drift
between medians, not spread).  With ``--against`` it also compares each
median with an earlier report's and flags one worse by more than the bound.
The report is written to bench/out/steadiness.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def worse_by(new: float, old: float, better: str) -> float:
    """How much worse ``new`` is than ``old``, as a share of ``old``."""
    change = (new - old) / old
    return change if better == "lower" else -change


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--against", type=Path,
                        help="an earlier steadiness.json to compare medians with")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")
    earlier = json.loads(args.against.read_text()) if args.against else None

    report: dict = {"runs": args.runs, "seconds": args.seconds, "workloads": {}}
    flagged = 0
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        failed = 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result = run_once(workload, seed, args.seconds)
            failed += result["failed"]
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v[-1]:.4f}" for k, v in values.items()), flush=True)
        rows = report["workloads"][workload] = {"failed": failed, "metrics": {}}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            q1, med, q3 = statistics.quantiles(values[name], n=4)
            spread = (q3 - q1) / med
            row = {"values": values[name], "median": med, "q1": q1, "q3": q3,
                   "spread": spread, "bound": bound,
                   "over": name != "setup_s" and spread > bound}
            if earlier:
                old = earlier["workloads"][workload]["metrics"][name]["median"]
                row["worse_than_earlier"] = worse_by(med, old, metric["better"])
                row["over"] = row["over"] or row["worse_than_earlier"] > bound
            rows["metrics"][name] = row
            flagged += row["over"]
            drift = (f"  vs earlier {row['worse_than_earlier']:+.3f}"
                     if earlier else "")
            print(f"  {workload:7s} {name:12s} median {med:.4f} {metric['unit']:4s}"
                  f" q1 {q1:.4f} q3 {q3:.4f} spread {spread:.3f}"
                  f" (bound {bound}, third {bound / 3:.3f}){drift}"
                  f"{'  OVER' if row['over'] else ''}", flush=True)
    OUT.mkdir(exist_ok=True)
    (OUT / "steadiness.json").write_text(json.dumps(report, indent=1) + "\n")
    print(f"{flagged} metric(s) over their bound; report in "
          f"{(OUT / 'steadiness.json').relative_to(ROOT)}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
