"""Branch and bound on sparse graphs: a golden file and a MILP cross-check.

`tests/golden/bb_sparse.json` records, for n = 24, 28, ..., 48 and k = 1..3,
the value and the `nodes_explored` of `limited_packing_bb` as it stood
before the residual cover bound: a search that pruned only on the packing so
far plus the count of still-eligible vertices.  The test asserts that the
current search returns the same values and the recorded witnesses, that it
explores at most a tenth of the recorded nodes in total, and at most 14,953
nodes, the count the search reached once its incumbent became the first fit
itself.

The recorded node counts are the reference for that ratio, so only the
witnesses follow the current search: when its witness rule changes on
purpose,

    PYTHONPATH=src python tests/test_bb_sparse.py

rewrites the `witness` field of each row and leaves every other field as
recorded.  The first witness rewrite came when the incumbent became the
first fit: 8 of the 21 rows changed.  The rows themselves came from `src/`
of commit 425212e, the eligible-count search.  The MILP cross-check solves
seeded sparse graphs with 25 to 64 vertices with scipy's `milp` (HiGHS) and
is skipped when scipy is missing.
"""
import json
from pathlib import Path

import pytest

from limpack import Graph, emit_graph6, is_k_limited_packing, limited_packing_bb

from sample_graphs import sparse_graph

GOLDEN_PATH = Path(__file__).parent / "golden" / "bb_sparse.json"
ORDERS = range(24, 49, 4)
KS = (1, 2, 3)


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
    # the first-fit incumbent and the falling bound reach 14,953 nodes
    assert total <= 14_953, total


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


def rewrite_witnesses() -> None:
    """Each row's witness from the current search; every other field as recorded."""
    golden = json.loads(GOLDEN_PATH.read_text())
    for row, got in zip(golden, solve_all(), strict=True):
        assert (got["graph6"], got["k"], got["value"]) == (row["graph6"], row["k"], row["value"])
        row["witness"] = got["witness"]
    GOLDEN_PATH.write_text("[\n" + ",\n".join(json.dumps(r) for r in golden) + "\n]\n")


if __name__ == "__main__":
    rewrite_witnesses()
