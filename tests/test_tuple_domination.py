"""L_k of the complement from the graph's own rows, and the demand-j cover search.

For n > k and j >= 1, a set of k + j vertices is a k-limited packing of the
complement iff it is a j-tuple total dominating set of G, so GraphFacts.lk_bar
answers sparse graphs from demand-j cover searches on G's open rows.  These
tests check the demand search against a brute force and scipy's `milp`, and
lk_bar against the packing search on the complement, on both of its routes.
The MILP checks are skipped without scipy.
"""
import random
from itertools import combinations

import pytest

from limpack import Graph, complement, construct_family, disjoint_union
from limpack.corpus import (enumerate_tree_classes, labeled_class, parse_corpus_spec,
                            random_connected)
from limpack.solvers import GraphFacts, _Packing, _cover

from sample_graphs import grid, hypercube


def class_representatives() -> list[Graph]:
    first = {}
    for g in parse_corpus_spec("all_labeled(6)"):
        first.setdefault(labeled_class(g), g)
    return list(first.values())


def brute_cover(rows: list[int], demand: int) -> int:
    """The least |S| meeting every row in at least demand vertices, n + 1 if none does."""
    n = len(rows)
    for size in range(n + 1):
        for combo in combinations(range(n), size):
            s = sum(1 << v for v in combo)
            if all((row & s).bit_count() >= demand for row in rows):
                return size
    return n + 1


def test_demand_search_matches_brute_force():
    graphs = class_representatives()
    graphs += [g for n in (7, 8) for g in random_connected(n, 6, 40 + n, 0.4)]
    for g in graphs:
        for rows in (g.adj, g.closed):
            for demand in (1, 2, 3):
                want = brute_cover(rows, demand)
                res = _cover(rows, demand)
                assert res.value == want, (g, demand)
                if want <= g.n:
                    assert res.witness.bit_count() == want
                    assert all((row & res.witness).bit_count() >= demand for row in rows)
                for limit in range(g.n + 1):
                    # a cap returns the optimum when it fits, else limit + 1
                    got = _cover(rows, demand, limit).value
                    assert got == (want if want <= limit else limit + 1), (g, demand, limit)


def test_demand_bound_sums_needs():
    # on C_40 every vertex needs both neighbours at j = 2: twenty vertices
    # with pairwise disjoint candidate pairs need 40 members, so a cap of 30
    # dies at the root (counting 1 per vertex would give only 20)
    rows = construct_family("cycle", 40).adj
    res = _cover(rows, 2, 30)
    assert (res.value, res.nodes_explored) == (31, 1)
    assert _cover(rows, 2).value == 40


def boundary_graphs() -> list[Graph]:
    """K_0, K_1, isolated vertices and pendant vertices on dense and sparse graphs,
    and orders k and k + 1 for k = 1..4."""
    out = [Graph.empty(0), Graph.empty(1)]
    k12 = construct_family("complete", 12)
    out += [disjoint_union(k12, Graph.empty(1)),
            disjoint_union(construct_family("path", 9), Graph.empty(2)),
            Graph.from_edges(13, k12.edges() + [(11, 12)]),  # dense, one pendant vertex
            construct_family("star", 9), construct_family("path", 11)]
    for n in range(1, 6):
        out += [Graph.empty(n), construct_family("complete", n), construct_family("path", n)]
        out += random_connected(n, 3, 70 + n, 0.5) if n >= 2 else []
    return out


def test_lk_bar_matches_complement_packing():
    graphs = class_representatives() + boundary_graphs()
    graphs += [g for n in range(1, 13) for g in enumerate_tree_classes(n)]
    graphs += [g for n in range(8, 17) for p in (0.2, 0.5, 0.8)
               for g in random_connected(n, 3, 1000 * n + int(10 * p), p)]
    routes = set()
    boundaries = set()
    for g in graphs:
        log = []
        facts = GraphFacts(g, log)
        bar = _Packing(complement(g).closed)
        for k in (1, 2, 3, 4):
            assert facts.lk_bar(k) == bar.solve(k).value, (g, k)
            if g.n in (k, k + 1):
                boundaries.add((g.n - k, log[-1]["route"]))
        routes |= {rec["route"] for rec in log}
    assert routes == {"tuple-domination", "complement"}
    # n <= k needs no search; n = k + 1 is reached on both routes
    assert boundaries == {(0, "tuple-domination"), (1, "tuple-domination"), (1, "complement")}


def test_lk_bar_shares_tuple_searches_across_k():
    # each demand j is searched again only with a larger cap, and a known
    # gamma_t answers j = 1 without a search
    for g in [g for n in range(8, 17) for g in random_connected(n, 3, 2000 + n, 0.2)]:
        log = []
        facts = GraphFacts(g, log)
        for k in (1, 2, 3, 4):
            facts.lk_bar(k)
        assert all(rec["route"] == "tuple-domination" for rec in log), g
        caps = {}
        for s in (s for rec in log for s in rec["searches"]):
            assert s["cap"] > caps.get(s["j"], 0), g
            caps[s["j"]] = s["cap"]
        log = []
        facts = GraphFacts(g, log)
        facts.gamma_t
        facts.lk_bar(2)
        assert all(s["j"] >= 2 for s in log[0]["searches"]), g


# ---------------------------------------------------------------------------
# MILP cross-checks

def milp(rows: list[int], lo: float, hi: float, sense: int):
    """Optimum of sense * sum x over binary x with lo <= sum_{u in row} x_u <= hi
    for every row, or None when infeasible."""
    np = pytest.importorskip("numpy")
    opt = pytest.importorskip("scipy.optimize")
    n = len(rows)
    a = np.array([[(row >> u) & 1 for u in range(n)] for row in rows], dtype=float)
    res = opt.milp(sense * np.ones(n), constraints=opt.LinearConstraint(a, lo, hi),
                   integrality=np.ones(n), bounds=opt.Bounds(0, 1))
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    return abs(round(res.fun))


def cycles_plus_chords(n: int, seed: int, cycles: int, chords: int) -> Graph:
    """The union of seeded Hamiltonian cycles (so min degree >= 2) and random chords."""
    rng = random.Random(seed)
    edges = set()
    for _ in range(cycles):
        order = list(range(n))
        rng.shuffle(order)
        edges |= {tuple(sorted((order[i], order[(i + 1) % n]))) for i in range(n)}
    target = len(edges) + chords
    while len(edges) < target:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return Graph.from_edges(n, sorted(edges))


def test_tuple_total_domination_matches_milp():
    pytest.importorskip("scipy.optimize")
    cases = []
    for n in (25, 32, 40, 48, 56, 64):
        cases += [(cycles_plus_chords(n, 300 + n, 1, n // 2), 2),
                  (cycles_plus_chords(n, 300 + n, 2, 0), 3)]
        if n <= 40:  # the unlimited demand-2 search grows fast past 40 here
            cases.append((cycles_plus_chords(n, 300 + n, 2, 0), 2))
    for g, demand in cases:
        want = milp(g.adj, demand, float("inf"), 1)
        got = _cover(g.adj, demand).value
        assert got == (g.n + 1 if want is None else want), (g, demand)
        assert min(map(int.bit_count, g.adj)) >= 2


def test_lk_bar_matches_milp_on_structured_graphs():
    pytest.importorskip("scipy.optimize")
    for g in (construct_family("cycle", 40), grid(6, 6), grid(8, 8), hypercube(6)):
        facts = GraphFacts(g)
        bar = complement(g)
        for k in (4, 5):
            assert facts.lk_bar(k) == milp(bar.closed, -float("inf"), k, -1), (g, k)
