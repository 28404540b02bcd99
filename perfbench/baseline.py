"""Run every workload over several seeds and record medians and spreads.

    python3 perfbench/baseline.py --out perfbench/baseline.json
    python3 perfbench/baseline.py --workload solve-sparse --seeds 1,2,3,4,5

Each run is `run.py --trace 0` with BENCHMARK.json's run_seconds. For every
end-to-end metric it prints the median, the quartiles (statistics.quantiles,
n=4) and the spread, (q3 - q1) / median, next to the metric's bound. With
--out it also makes one traced run per workload and writes everything,
with the context of the runs, to a JSON file.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["context"] = json.loads(next(ln for ln in lines if ln.startswith("context: "))[9:])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: wrong outputs\n{proc.stdout[-2000:]}")
    return result


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=names, action="append")
    ap.add_argument("--seeds", default="42,1,2,3,4,5,6,7,8,9")
    ap.add_argument("--out", type=Path, help="write the record here, with one traced run each")
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    record = {"seeds": seeds, "run_seconds": bench["run_seconds"], "workloads": {}}
    worst = 0.0
    for workload in args.workload or names:
        runs = [run(workload, s, bench["run_seconds"], 0) for s in seeds]
        metrics = {}
        for name, bound in bounds.items():
            metrics[name] = summary([r["metrics"][name]["value"] for r in runs])
            share = metrics[name]["spread"] / bound
            if name != "setup_s":
                worst = max(worst, share)
            print(f"{workload:13s} {name:12s} median {metrics[name]['median']:12.6g}  "
                  f"spread {metrics[name]['spread']:.3f}  bound {bound}  "
                  f"{'OK' if share <= 1 / 3 else 'WIDE' if share <= 1 else 'OVER'}", flush=True)
        entry = {"metrics": metrics, "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs)}
        if args.out:
            traced = run(workload, seeds[0], bench["run_seconds"], 1)
            entry["traced_seed"] = seeds[0]
            entry["per_layer"] = {k: m["value"] for k, m in traced["metrics"].items()}
        ctx = dict(runs[0]["context"])
        for key in ("seed", "utc", "trace", "workload"):
            ctx.pop(key)
        record["context"] = ctx
        record["workloads"][workload] = entry
    print(f"largest spread / bound, setup_s aside: {worst:.2f}")
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
