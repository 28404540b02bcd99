"""Independent reference values for the limpack benchmark.

Builds the stored graph pools of the `solve-sparse` and `query-mid`
workloads and solves every parameter the benchmark checks with
`scipy.optimize.milp` (HiGHS), never with limpack's own solvers:

    L_k      max sum x   s.t.  sum_{u in N[v]} x_u <= k   for every v
    rho0     max sum x   s.t.  sum_{u in N(v)} x_u <= 1   for every v
    gamma    min sum x   s.t.  sum_{u in N[v]} x_u >= 1   for every v
    gamma_t  min sum x   s.t.  sum_{u in N(v)} x_u >= 1   (None with an isolated vertex)

It also records the SHA-256 of the `campaign-ref` report for CAMPAIGN_SEEDS.

    python3 perfbench/reference.py --write            # rebuild data/reference.json
    python3 perfbench/reference.py --check            # recompute, compare with the file
    python3 perfbench/reference.py --check --campaign # also recompute campaign digests

Needs numpy and scipy; the benchmark itself only reads the stored file.
"""
from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from workloads import KS, campaign_spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DATA = HERE / "data" / "reference.json"

POOL_SEED = 20181004
SPARSE_ORDERS = range(24, 41)   # average degree about 2.5
SPARSE_PER_ORDER = 2
MID_ORDERS = range(14, 22)      # G(n, 0.2), connected
MID_PER_ORDER = 3
MID_EDGE_PROB = 0.2
CAMPAIGN_SEEDS = (42, *range(11))   # the default seed, and 0..10


# ---------------------------------------------------------------------------
# graphs as adjacency bitmasks, graph6 without limpack

def gnp(rng: random.Random, n: int, p: float) -> list[int]:
    adj = [0] * n
    for v in range(1, n):
        for u in range(v):
            if rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return adj


def connected(adj: list[int]) -> bool:
    seen = frontier = 1
    while frontier:
        nxt = 0
        for v in range(len(adj)):
            if frontier >> v & 1:
                nxt |= adj[v]
        frontier = nxt & ~seen
        seen |= frontier
    return seen == (1 << len(adj)) - 1


def to_graph6(adj: list[int]) -> str:
    """graph6 for n <= 62: upper triangle, column-major, six bits per byte."""
    n = len(adj)
    flat = [adj[u] >> v & 1 for v in range(1, n) for u in range(v)]
    flat += [0] * (-len(flat) % 6)
    body = [63 + int("".join(map(str, flat[i:i + 6])), 2) for i in range(0, len(flat), 6)]
    return bytes([n + 63] + body).decode("ascii")


def complement(adj: list[int]) -> list[int]:
    full = (1 << len(adj)) - 1
    return [full & ~nb & ~(1 << v) for v, nb in enumerate(adj)]


# ---------------------------------------------------------------------------
# exact values by integer programming

def _rows(adj: list[int], closed: bool) -> np.ndarray:
    n = len(adj)
    a = np.zeros((n, n))
    for v, nb in enumerate(adj):
        for u in range(n):
            if nb >> u & 1 or (closed and u == v):
                a[v, u] = 1
    return a


def _solve(adj: list[int], closed: bool, maximize: bool, cap: int) -> int:
    n = len(adj)
    rows = _rows(adj, closed)
    cons = (LinearConstraint(rows, -np.inf, cap) if maximize
            else LinearConstraint(rows, 1, np.inf))
    res = milp(-np.ones(n) if maximize else np.ones(n), constraints=cons,
               integrality=np.ones(n), bounds=Bounds(0, 1))
    if res.status != 0:
        raise RuntimeError(f"milp failed on {to_graph6(adj)}: {res.message}")
    return int(round(abs(res.fun)))


def limited_packing(adj: list[int], k: int) -> int:
    return _solve(adj, closed=True, maximize=True, cap=k)


def open_packing(adj: list[int]) -> int:
    return _solve(adj, closed=False, maximize=True, cap=1)


def domination(adj: list[int]) -> int:
    return _solve(adj, closed=True, maximize=False, cap=1)


def total_domination(adj: list[int]) -> int | None:
    if any(nb == 0 for nb in adj):
        return None
    return _solve(adj, closed=False, maximize=False, cap=1)


# ---------------------------------------------------------------------------
# pools and digests

def build_pools() -> dict:
    rng = random.Random(POOL_SEED)
    sparse = []
    for _ in range(SPARSE_PER_ORDER):
        for n in SPARSE_ORDERS:
            adj = gnp(rng, n, 2.5 / (n - 1))
            sparse.append({"graph6": to_graph6(adj), "n": n,
                           "L": [limited_packing(adj, k) for k in KS]})
    mid = []
    for _ in range(MID_PER_ORDER):
        for n in MID_ORDERS:
            adj = gnp(rng, n, MID_EDGE_PROB)
            while not connected(adj):
                adj = gnp(rng, n, MID_EDGE_PROB)
            bar = complement(adj)
            mid.append({"graph6": to_graph6(adj), "n": n,
                        "m": sum(nb.bit_count() for nb in adj) // 2,
                        "L": [limited_packing(adj, k) for k in KS],
                        "L_bar": [limited_packing(bar, k) for k in KS],
                        "gamma": domination(adj), "rho0": open_packing(adj),
                        "gamma_t": total_domination(adj)})
    return {"solve_sparse": sparse, "query_mid": mid}


def campaign_digest(seed: int) -> str:
    """SHA-256 of the report `limpack verify --json` writes for this seed."""
    import hashlib
    sys.path.insert(0, str(ROOT / "src"))
    from limpack.campaign import ALL_THEOREM_IDS, run_campaign
    from limpack.corpus import parse_corpus_spec
    spec = campaign_spec(seed)
    report = run_campaign(ALL_THEOREM_IDS, parse_corpus_spec(spec), list(KS))
    return hashlib.sha256(report.to_json().encode()).hexdigest()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="rebuild the reference file")
    mode.add_argument("--check", action="store_true", help="recompute and compare")
    ap.add_argument("--campaign", action="store_true",
                    help="with --check: also recompute the recorded campaign digests")
    args = ap.parse_args(argv)

    pools = build_pools()
    if args.write:
        digests = {str(s): campaign_digest(s) for s in sorted(set(CAMPAIGN_SEEDS))}
        payload = {"pool_seed": POOL_SEED, **pools, "campaign_digests": digests}
        DATA.parent.mkdir(parents=True, exist_ok=True)
        DATA.write_text(json.dumps(payload, indent=1) + "\n")
        print(f"wrote {DATA.relative_to(ROOT)}: {len(pools['solve_sparse'])} sparse, "
              f"{len(pools['query_mid'])} mid graphs, {len(digests)} campaign digests")
        return 0

    stored = json.loads(DATA.read_text())
    bad = [name for name in pools if pools[name] != stored[name]]
    if args.campaign:
        bad += [f"campaign seed {s}" for s, d in stored["campaign_digests"].items()
                if campaign_digest(int(s)) != d]
    print("reference check: " + ("ok" if not bad else "MISMATCH in " + ", ".join(bad)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
