"""limpack benchmark: end-to-end timings per workload, or a traced per-layer run.

    python3 perfbench/run.py --workload campaign-ref --seed 42 --seconds 27 --trace 0

Runs from a source checkout: limpack is imported from `src/` next to this
directory, never from an installed copy. One process, one thread, one
operation at a time (a closed loop).

--trace 0  Set-up is timed in fresh child processes, five before the
           passes and five after them, and their median is reported.
           Then the workload's fixed input set is run in passes until the
           next pass would end after --seconds (at least one pass), and the
           median pass is reported. Every time is scaled to the reference
           speed of `speed.SpeedClock`; raw pass times are printed too.
--trace 1  One untraced pass, then one pass with every public limpack
           function of interest wrapped in spans. Reports per-layer counts
           and raw times, and the tracing overhead (traced minus untraced
           raw wall). Spans go to .perfbench_out/trace-<workload>-s<seed>/.

Outputs are checked on every pass. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Exit code 2, with no
result line, when limpack or the reference data cannot be loaded.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = HERE / "data" / "reference.json"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5   # before the passes, and as many again after them

sys.path.insert(0, str(HERE))
from speed import SpeedClock  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class SetupError(RuntimeError):
    pass


def load_limpack() -> SimpleNamespace:
    if not (SRC / "limpack" / "__init__.py").is_file():
        raise SetupError(f"no limpack sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import limpack
    from limpack import bounds, campaign, cli, corpus, extremal, graphs, solvers
    if Path(limpack.__file__).resolve().parent != SRC / "limpack":
        raise SetupError(f"imported limpack from {limpack.__file__}, not from {SRC}")
    return SimpleNamespace(bounds=bounds, campaign=campaign, cli=cli, corpus=corpus,
                           extremal=extremal, graphs=graphs, solvers=solvers)


def set_up(workload: str, seed: int):
    lp = load_limpack()
    if not DATA.is_file():
        raise SetupError(f"reference data {DATA} is missing")
    data = json.loads(DATA.read_text())
    return WORKLOADS[workload](lp, seed, data)


def time_setup(args, count: int) -> list[float]:
    """Seconds from spawning a fresh interpreter until its set-up is done.

    Each sample is scaled to the reference speed by the probes run in this
    process just before and after it.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    clock = SpeedClock()
    clock.probe()
    spans = []
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SetupError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
        spans.append((t0, float(proc.stdout.split()[-1])))
        clock.probe()
    return [clock.scaled(t0, done) for t0, done in spans]


# ---------------------------------------------------------------------------
# metrics

def quantile_hd(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A mean of all order statistics, weighted by the Beta(q(n+1), (1-q)(n+1))
    mass of ((i-1)/n, i/n], rather than one or two order statistics. With a
    hundred operations of uneven cost a single order statistic jumps between
    neighbouring operations from run to run; this estimate moves smoothly.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x: float) -> float:
        if not 0.0 < x < 1.0:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)

    steps = 8   # Simpson's rule on each interval
    weights = []
    for i in range(n):
        lo, h = i / n, 1 / (n * steps)
        ys = [density(lo + j * h) for j in range(steps + 1)]
        weights.append(h / 3 * (ys[0] + ys[-1] + 4 * sum(ys[1:-1:2]) + 2 * sum(ys[2:-1:2])))
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def tail(values: list[float]) -> float:
    """The highest percentile with at least ten samples above it: (n - 10) / n."""
    n = len(values)
    return quantile_hd(values, (n - 10) / n) if n > 10 else max(values)


def summarize(p) -> dict:
    """Per-pass latency figures; the pass's latency list is dropped to spare memory."""
    stats = {"p50": quantile_hd(p.op_s, 0.5), "tail": tail(p.op_s), "count": len(p.op_s)}
    p.op_s = None
    return stats


def end_to_end(passes, stats: list[dict], setup_samples: list[float]) -> dict:
    wall = statistics.median(p.wall_s for p in passes)
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (wall, "s"),
        "items_per_s": (passes[0].items / wall, "1/s"),
        "op_p50_ms": (statistics.median(s["p50"] for s in stats) * 1e3, "ms"),
        "op_tail_ms": (statistics.median(s["tail"] for s in stats) * 1e3, "ms"),
        "op_count": (stats[0]["count"], "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


# (span name, module, function, generator) for every wrapped public function
TRACED = [
    ("solvers.oracle", "solvers", "limited_packing_oracle", False),
    ("solvers.bb", "solvers", "limited_packing_bb", False),
    ("solvers.auto", "solvers", "limited_packing_number", False),
    ("solvers.gamma", "solvers", "domination_number", False),
    ("solvers.rho0", "solvers", "open_packing_number", False),
    ("solvers.gamma_t", "solvers", "total_domination_number", False),
    ("corpus.canon_key", "corpus", "tree_canonical_key", False),
    ("corpus.prufer_decode", "corpus", "prufer_decode", False),
    ("corpus.all_labeled", "corpus", "enumerate_labeled_graphs", True),
    ("corpus.trees", "corpus", "enumerate_tree_classes", False),
    ("corpus.random_connected", "corpus", "random_connected", False),
    ("graphs.profile", "graphs", "profile", False),
    ("graphs.complement", "graphs", "complement", False),
    ("graphs.emit_graph6", "graphs", "emit_graph6", False),
    ("graphs.parse_graph6", "graphs", "parse_graph6", False),
    ("extremal.lk_eq_k", "extremal", "check_Lk_equals_k", False),
    ("extremal.class_g", "extremal", "recognize_class_G", False),
    ("extremal.class_t", "extremal", "recognize_class_T", False),
    ("extremal.spider", "extremal", "is_spider_below_max_degree", False),
    ("bounds.bound_report", "bounds", "bound_report", False),
    ("bounds.nordhaus_gaddum", "bounds", "nordhaus_gaddum", False),
    ("bounds.ng_eq_condition", "bounds", "ng_lower_equality_condition", False),
    ("cli.main", "cli", "main", False),
]
SOLVER_LEAVES = ("solvers.oracle", "solvers.bb", "solvers.gamma", "solvers.rho0",
                 "solvers.gamma_t")
BENCH_SPANS = ("campaign.run", "campaign.term.all_labeled", "campaign.term.trees",
               "campaign.term.random_connected", "campaign.standalone", "campaign.to_json")
RESULT_HOOKS = {
    "solvers.oracle": lambda tr, res: tr.count("solvers.oracle.nodes", res.nodes_explored),
    "solvers.bb": lambda tr, res: tr.count("solvers.bb.nodes", res.nodes_explored),
    "solvers.auto": lambda tr, res: tr.count("solvers.auto.to_oracle", res.method == "oracle"),
}


def install(tracer: Tracer, lp: SimpleNamespace) -> None:
    for name, module, attr, generator in TRACED:
        tracer.install(getattr(lp, module), attr, name, RESULT_HOOKS.get(name), generator)


def per_layer(tracer: Tracer, traced_wall: float, untraced_wall: float,
              corpus_graphs: int) -> dict:
    layers = tracer.layers()
    empty = {"s": 0.0, "self_s": 0.0}
    out = {}
    for name, *_ in TRACED:
        out[f"{name}.calls"] = (tracer.calls.get(name, 0), "count")
        out[f"{name}.s"] = (layers.get(name, empty)["s"], "s")
    for key in ("solvers.oracle.nodes", "solvers.bb.nodes"):
        out[key] = (tracer.counters.get(key, 0), "count")
    auto_calls = tracer.calls.get("solvers.auto", 0)
    out["solvers.auto.oracle_share"] = (
        tracer.counters.get("solvers.auto.to_oracle", 0) / auto_calls if auto_calls else 0.0,
        "ratio")
    for name in BENCH_SPANS[1:]:
        out[f"{name}.s"] = (layers.get(name, empty)["s"], "s")
    out["campaign.self_s"] = (sum(layers.get(n, empty)["self_s"] for n in BENCH_SPANS[:-1]), "s")
    solver_calls = sum(tracer.calls.get(n, 0) for n in SOLVER_LEAVES)
    out["campaign.solver_calls_per_graph"] = (
        solver_calls / corpus_graphs if corpus_graphs else 0.0, "ratio")
    out["cli.self_s"] = (layers.get("cli.main", empty)["self_s"], "s")
    out["trace.spans"] = (len(tracer.start), "count")
    out["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    out["trace.overhead_share"] = ((traced_wall - untraced_wall) / untraced_wall, "ratio")
    return out


# ---------------------------------------------------------------------------
# context

def context(args) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        body = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + body)
        lines += body.count(b"\n")
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": platform.machine(), "cpu": cpu,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "commit": git_commit(), "src_sha256": digest.hexdigest(), "src_lines": lines,
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def git_commit() -> str | None:
    """HEAD read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="limpack benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=27.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    try:
        if args.setup_only:
            set_up(args.workload, args.seed)
            print(repr(time.perf_counter()))
            return 0
        workload = set_up(args.workload, args.seed)
        setup_samples = [] if args.trace else time_setup(args, SETUP_SAMPLES)
    except (SetupError, ImportError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        untraced = workload.run_pass()
        tracer = Tracer()
        install(tracer, workload.lp)
        try:
            traced = workload.run_pass(tracer)
        finally:
            tracer.uninstall()
        passes = [untraced, traced]
        graphs = traced.items if args.workload == "campaign-ref" else 0
        metrics = per_layer(tracer, traced.wall_s, untraced.wall_s, graphs)
        tracer.write(OUT / f"trace-{args.workload}-s{args.seed}")
    else:
        passes, stats = [], []
        started = time.perf_counter()
        while True:
            passes.append(workload.run_pass(clock=SpeedClock()))
            stats.append(summarize(passes[-1]))
            elapsed = time.perf_counter() - started
            if elapsed + max(p.raw_wall_s for p in passes) > args.seconds:
                break
        # sampling set-up on both sides of the passes spreads it over the
        # machine's slow and fast spells instead of one moment
        setup_samples += time_setup(args, SETUP_SAMPLES)
        metrics = end_to_end(passes, stats, setup_samples)

    attempted = sum(p.items for p in passes)
    failed = sum(p.failed for p in passes)
    ctx = context(args)
    print("context: " + json.dumps(ctx))
    print(f"passes: {len(passes)}  attempted: {attempted}  failed: {failed}  "
          f"error_rate: {failed / attempted:.6g}  ({workload.item})")
    for p in passes:
        for err in p.errors:
            print(f"CHECK FAILED: {err}")
    if not args.trace:
        print("raw pass wall (s): " + " ".join(f"{p.raw_wall_s:.4g}" for p in passes))
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value:.6g} {unit}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    record = dict(result, context=ctx, pass_wall_s=[p.wall_s for p in passes],
                  pass_raw_wall_s=[p.raw_wall_s for p in passes])
    (OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
