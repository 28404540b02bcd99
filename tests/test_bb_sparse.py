"""Branch and bound on sparse graphs: a golden file and a MILP cross-check.

`tests/golden/bb_sparse.json` records, for n = 24, 28, ..., 48 and k = 1..3,
the value, the witness and the `nodes_explored` of `limited_packing_bb` as it
stood before the residual cover bound: a search that pruned only on the
packing so far plus the count of still-eligible vertices.  The test asserts
that the current search returns the same values and the same witnesses (the
lexicographically greatest optimum in branching order), that it explores
at most a tenth of the recorded nodes in total, and at most 19,997 nodes, the
count the search reached once it started from a first-fit incumbent.

The recorded node counts are the reference for that ratio, so the file must
not be regenerated with the current search.  To recreate it, run

    PYTHONPATH=src python tests/test_bb_sparse.py

with `src/` of commit 425212e, the eligible-count search.  The MILP cross-check solves
seeded sparse graphs with 25 to 64 vertices with scipy's `milp` (HiGHS) and
is skipped when scipy is missing.
"""
import json
import random
from pathlib import Path

import pytest

from limpack import Graph, emit_graph6, is_k_limited_packing, limited_packing_bb

GOLDEN_PATH = Path(__file__).parent / "golden" / "bb_sparse.json"
ORDERS = range(24, 49, 4)
KS = (1, 2, 3)


def sparse_graph(n: int, seed: int) -> Graph:
    """G(n, 2.5/(n-1)) from random.Random(seed), pairs u < v in lexicographic order."""
    rng = random.Random(seed)
    p = 2.5 / (n - 1)
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                if rng.random() < p])


def solve_all() -> list[dict]:
    rows = []
    for n in ORDERS:
        g = sparse_graph(n, n)
        for k in KS:
            res = limited_packing_bb(g, k)
            rows.append({"graph6": emit_graph6(g), "n": n, "k": k, "value": res.value,
                         "witness": res.witness_vertices(),
                         "nodes_explored": res.nodes_explored})
    return rows


def test_bb_sparse_golden():
    golden = json.loads(GOLDEN_PATH.read_text())
    rows = solve_all()
    assert len(rows) == len(golden)
    for got, want in zip(rows, golden):
        assert got["graph6"] == want["graph6"]
        key = (got["n"], got["k"])
        assert (got["value"], got["witness"]) == (want["value"], want["witness"]), key
        g = sparse_graph(got["n"], got["n"])
        mask = sum(1 << v for v in got["witness"])
        assert is_k_limited_packing(g, got["k"], mask), key
    total = sum(r["nodes_explored"] for r in rows)
    reference = sum(r["nodes_explored"] for r in golden)
    assert 10 * total <= reference, (total, reference)
    # the first-fit incumbent and the falling bound reach 19,997 nodes
    assert total <= 19_997, total


def milp_limited_packing(g: Graph, k: int) -> int:
    """L_k by scipy's MILP solver (HiGHS): max sum x, sum over N[v] <= k, x binary."""
    np = pytest.importorskip("numpy")
    opt = pytest.importorskip("scipy.optimize")
    rows = np.array([[(cn >> u) & 1 for u in range(g.n)] for cn in g.closed], dtype=float)
    res = opt.milp(-np.ones(g.n), constraints=opt.LinearConstraint(rows, -np.inf, k),
                   integrality=np.ones(g.n), bounds=opt.Bounds(0, 1))
    assert res.status == 0, res.message
    return round(-res.fun)


def test_bb_matches_milp_sparse():
    for n in (25, 40, 52, 64):
        for seed in (1000 + n, 2000 + n):
            g = sparse_graph(n, seed)
            for k in KS:
                res = limited_packing_bb(g, k)
                assert res.value == milp_limited_packing(g, k), (n, seed, k)
                assert is_k_limited_packing(g, k, res.witness)
                assert res.witness.bit_count() == res.value


if __name__ == "__main__":
    GOLDEN_PATH.write_text("[\n" + ",\n".join(json.dumps(r) for r in solve_all()) + "\n]\n")
