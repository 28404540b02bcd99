"""Check that two traced runs of the same inputs give identical exact counts.

    python3 perfbench/selfcheck.py                      # every workload, seed 42
    python3 perfbench/selfcheck.py --workload tree-sweep --seed 7

Compares every per-layer metric that is a count (calls, solver nodes, spans)
and the two count ratios, solvers.auto.oracle_share and
campaign.solver_calls_per_graph. Times are not compared. Exits 1 on any
difference, so a later change may cite these figures as exact counts.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXACT_RATIOS = ("solvers.auto.oracle_share", "campaign.solver_calls_per_graph")


def traced_counts(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload}: outputs failed their checks")
    return {k: m["value"] for k, m in result["metrics"].items()
            if m["unit"] == "count" or k in EXACT_RATIOS}


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), action="append")
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args(argv)

    bad = 0
    for workload in args.workload or list(WORKLOADS):
        first = traced_counts(workload, args.seed)
        second = traced_counts(workload, args.seed)
        diff = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
        nonzero = sum(1 for v in first.values() if v)
        print(f"{workload}: {len(first)} exact counts ({nonzero} nonzero), "
              + ("identical" if not diff else "DIFFERENT: " + ", ".join(
                  f"{k} {first.get(k)} vs {second.get(k)}" for k in diff)))
        bad += bool(diff)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
