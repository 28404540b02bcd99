"""Exact solvers: subset oracle, branch and bound, companion parameters."""
import random

import pytest

from limpack import (Graph, OracleLimitError, UndefinedParameterError,
                     complement, construct_family, disjoint_union,
                     domination_number, is_dominating_set, is_k_limited_packing,
                     is_open_packing, is_total_dominating_set,
                     limited_packing_bb, limited_packing_number,
                     limited_packing_oracle, mask_of, open_packing_number,
                     parse_graph6, total_domination_number)
from limpack.corpus import (enumerate_labeled_graphs, labeled_class, parse_corpus_spec,
                            random_connected)
from limpack.solvers import GraphFacts

from sample_graphs import petersen


# ---------------------------------------------------------------------------
# feasibility predicates

def test_is_k_limited_packing():
    c6 = construct_family("cycle", 6)
    assert is_k_limited_packing(c6, 2, mask_of([0, 1, 3, 4]))
    assert not is_k_limited_packing(c6, 2, mask_of([0, 1, 2, 3]))
    assert is_k_limited_packing(c6, 1, mask_of([0, 3]))
    assert is_k_limited_packing(c6, 1, 0)


def test_companion_predicates():
    p4 = construct_family("path", 4)
    assert is_open_packing(p4, mask_of([0, 1]))
    assert not is_open_packing(p4, mask_of([0, 2]))   # vertex 1 sees both
    assert is_dominating_set(p4, mask_of([1, 3]))
    assert not is_dominating_set(p4, mask_of([0]))
    assert is_total_dominating_set(p4, mask_of([1, 2]))
    assert not is_total_dominating_set(p4, mask_of([0, 3]))


# ---------------------------------------------------------------------------
# fixed values

def test_small_family_values():
    assert limited_packing_oracle(construct_family("path", 5), 1).value == 2
    assert limited_packing_oracle(construct_family("cycle", 9), 2).value == 6
    assert limited_packing_oracle(construct_family("complete", 7), 3).value == 3
    assert limited_packing_oracle(
        construct_family("complete_bipartite", (3, 4)), 3).value == 4


def test_petersen_values_frozen():
    pet = petersen()
    assert limited_packing_oracle(pet, 1).value == 1
    assert limited_packing_oracle(pet, 2).value == 4
    assert limited_packing_oracle(pet, 3).value == 7
    assert limited_packing_oracle(pet, 4).value == 10
    assert open_packing_number(pet).value == 2
    assert domination_number(pet).value == 3
    assert total_domination_number(pet).value == 4


def test_companion_values():
    assert domination_number(construct_family("cycle", 7)).value == 3
    assert open_packing_number(construct_family("path", 4)).value == 2
    assert total_domination_number(construct_family("cycle", 6)).value == 4
    assert domination_number(Graph.empty(3)).value == 3
    assert open_packing_number(Graph.empty(3)).value == 3
    assert domination_number(Graph.empty(0)).value == 0
    assert open_packing_number(Graph.empty(0)).value == 0
    assert total_domination_number(Graph.empty(0)).value == 0


def test_total_domination_undefined_with_isolated_vertex():
    with pytest.raises(UndefinedParameterError):
        total_domination_number(Graph.empty(1))
    with pytest.raises(UndefinedParameterError):
        total_domination_number(disjoint_union(construct_family("path", 3),
                                               Graph.empty(1)))


# ---------------------------------------------------------------------------
# guards

def test_guards():
    big = Graph.empty(25)
    with pytest.raises(OracleLimitError):
        limited_packing_oracle(big, 1)
    # the companions go through branch and bound, which has no order guard
    assert domination_number(big).value == 25
    assert open_packing_number(big).value == 25
    with pytest.raises(UndefinedParameterError):
        total_domination_number(big)
    with pytest.raises(ValueError):
        limited_packing_oracle(Graph.empty(2), 0)
    with pytest.raises(ValueError):
        limited_packing_bb(Graph.empty(2), -1)
    with pytest.raises(ValueError):
        limited_packing_number(Graph.empty(2), 1, method="magic")
    # bb has no order guard below the container limit
    assert limited_packing_bb(Graph.empty(30), 1).value == 30


# ---------------------------------------------------------------------------
# oracle vs branch and bound

def test_oracle_matches_bb_exhaustive():
    for n in range(1, 6):
        for g in enumerate_labeled_graphs(n):
            for k in (1, 2, 3):
                a = limited_packing_oracle(g, k)
                b = limited_packing_bb(g, k)
                assert a.value == b.value, (g.edges(), k)
                assert is_k_limited_packing(g, k, b.witness)
                assert b.witness.bit_count() == b.value


def test_oracle_matches_bb_random_mid_size():
    for n in (13, 14, 15, 16):
        for g in random_connected(n, 3, seed=900 + n, edge_prob=0.35):
            for k in (1, 2, 3):
                a = limited_packing_oracle(g, k)
                b = limited_packing_bb(g, k)
                assert a.value == b.value
                assert is_k_limited_packing(g, k, b.witness)


def test_bb_saturation_shortcut():
    g = construct_family("star", 6)    # max degree 5
    res = limited_packing_bb(g, 6)
    assert res.value == 6 and res.witness == g.full_mask
    assert res.nodes_explored == 0


# ---------------------------------------------------------------------------
# witness contracts

def test_oracle_witness_is_lexicographically_least():
    for g in enumerate_labeled_graphs(4):
        for k in (1, 2):
            res = limited_packing_oracle(g, k)
            optimal = [m for m in range(1 << g.n)
                       if m.bit_count() == res.value
                       and is_k_limited_packing(g, k, m)]
            assert res.witness == min(optimal)


def first_fit(rows: list[int], cap: int) -> int:
    """Each vertex in reverse branching order (descending row size, ties by
    index), taken when every row keeps at most cap members."""
    order = sorted(range(len(rows)), key=lambda v: (-rows[v].bit_count(), v))
    fit = 0
    for v in reversed(order):
        if all((row & (fit | 1 << v)).bit_count() <= cap for row in rows):
            fit |= 1 << v
    return fit


def test_bb_witness_is_a_maximum_packing_and_keeps_an_optimal_first_fit():
    rng = random.Random(77)
    for _ in range(60):
        n = rng.randint(1, 10)
        p = rng.choice((0.2, 0.4, 0.7))
        g = Graph.from_edges(n, [(i, j) for j in range(n) for i in range(j) if rng.random() < p])
        for k in (1, 2, 3):
            res = limited_packing_bb(g, k)
            best = max(m.bit_count() for m in range(1 << n) if is_k_limited_packing(g, k, m))
            assert res.value == res.witness.bit_count() == best, (g, k)
            assert is_k_limited_packing(g, k, res.witness), (g, k)
            fit = first_fit(g.closed, k)
            if fit.bit_count() == best:
                assert res.witness == fit, (g, k)


def test_open_packing_witness_is_a_maximum_and_keeps_an_optimal_first_fit():
    # the same search over open rows, with cap 1
    rng = random.Random(78)
    for _ in range(60):
        n = rng.randint(1, 10)
        p = rng.choice((0.2, 0.4, 0.7))
        g = Graph.from_edges(n, [(i, j) for j in range(n) for i in range(j) if rng.random() < p])
        res = open_packing_number(g)
        best = max(m.bit_count() for m in range(1 << n) if is_open_packing(g, m))
        assert res.value == res.witness.bit_count() == best, g
        assert is_open_packing(g, res.witness), g
        fit = first_fit(g.adj, 1)
        if fit.bit_count() == best:
            assert res.witness == fit, g


def test_bb_witness_is_not_the_first_fit_incumbent():
    # on the path 3-1-2-0-4 at k = 2 the first fit in reverse branching order
    # takes {2, 3, 4}, one short of the optimum, so the witness is the larger
    # packing the search finds, not the incumbent it started from
    g = parse_graph6("DY_")
    fit = first_fit(g.closed, 2)
    assert fit == mask_of([2, 3, 4])
    res = limited_packing_bb(g, 2)
    assert res.value == 4
    assert res.witness_vertices() == [0, 1, 3, 4]
    assert res.witness != fit


def test_value_only_search_keeps_the_first_fit():
    # on P_3 at k = 1 the branching order is 1, 0, 2; the first fit in reverse
    # order takes vertex 2 and is already optimal, so the search keeps it, as
    # the value-only search did before it became the only one
    g = construct_family("path", 3)
    assert first_fit(g.closed, 1) == mask_of([2])
    res = limited_packing_bb(g, 1)
    assert res.value == 1
    assert res.witness_vertices() == [2]


def test_bb_closes_branch_once_every_free_vertex_fits():
    # on the path 0-1-4-2-3 at k = 2 the rule fires below the root; the search
    # without it, which took each free vertex in its own include branch,
    # explored 10 nodes
    res = limited_packing_bb(parse_graph6("D`W"), 2)
    assert res.value == 4
    assert res.witness_vertices() == [0, 1, 2, 3]
    assert res.nodes_explored < 10


def test_min_problem_witnesses_are_feasible():
    for g in enumerate_labeled_graphs(4):
        r = domination_number(g)
        assert is_dominating_set(g, r.witness)
        assert r.witness.bit_count() == r.value
        o = open_packing_number(g)
        assert is_open_packing(g, o.witness)
        assert o.witness.bit_count() == o.value


def test_solve_result_fields():
    res = limited_packing_oracle(construct_family("path", 3), 1)
    assert res.method == "oracle"
    assert res.nodes_explored == 8
    assert res.witness_vertices() == [0]    # vertex 0 alone is optimal first
    res = limited_packing_bb(construct_family("path", 13), 1)
    assert res.method == "branch-and-bound"
    assert res.nodes_explored > 0


def test_dispatch_policy():
    # auto is branch and bound at every order; the oracle runs only on request
    small = construct_family("path", 12)
    large = construct_family("path", 13)
    assert limited_packing_number(small, 1).method == "branch-and-bound"
    assert limited_packing_number(large, 1).method == "branch-and-bound"
    assert limited_packing_number(small, 1, method="bb").method == "branch-and-bound"
    for g in (small, large):
        res = limited_packing_number(g, 1, method="oracle")
        assert res.method == "oracle" and res.nodes_explored == 2 ** g.n
    assert limited_packing_number(large, 1, method="oracle").value == 5
    with pytest.raises(ValueError):
        limited_packing_number(small, 1, method="milp")


def test_auto_returns_branch_and_bound_result():
    graphs = [g for n in range(1, 6) for g in enumerate_labeled_graphs(n)]
    graphs += [g for n in range(6, 13) for g in random_connected(n, 6, 1200 + n, 0.4)]
    for g in graphs:
        for k in (1, 2, 3):
            assert limited_packing_number(g, k) == limited_packing_bb(g, k), (g, k)


def test_graph_facts_lk_matches_oracle_on_class_representatives():
    # GraphFacts solves L_k by branch and bound; the oracle checks every value
    # the campaign reads for the 208 classes of order <= 6
    first = {}
    for g in parse_corpus_spec("all_labeled(6)"):
        first.setdefault(labeled_class(g), g)
    assert len(first) == 208
    for g in first.values():
        facts = GraphFacts(g)
        for k in (1, 2, 3):
            assert facts.lk(k) == limited_packing_oracle(g, k).value, (g, k)
            assert facts.lk_bar(k) == limited_packing_oracle(complement(g), k).value, (g, k)


def test_graph_facts_reads_every_k_from_one_prepared_search(monkeypatch):
    from limpack import solvers
    builds = []

    class CountingPacking(solvers._Packing):
        __slots__ = ()

        def __init__(self, rows):
            builds.append(len(rows))
            super().__init__(rows)

    monkeypatch.setattr(solvers, "_Packing", CountingPacking)
    first = {}
    for g in parse_corpus_spec("all_labeled(6)"):
        first.setdefault(labeled_class(g), g)
    graphs = list(first.values()) + [petersen(), Graph.empty(0), construct_family("cycle", 9)]
    graphs += [g for n in range(8, 17) for g in random_connected(n, 4, 1500 + n, 0.3)]
    for g in graphs:
        log = []
        facts = GraphFacts(g, log)
        del builds[:]
        ks = (4, 1, 3, 2)   # not in order: the prepared search keeps no per-k state
        got = [(facts.lk(k), facts.lk_bar(k)) for k in ks]
        # one search for G, and one for its complement once lk_bar takes that route
        assert len(builds) == 1 + any(rec["route"] == "complement" for rec in log)
        assert got == [(limited_packing_bb(g, k).value, limited_packing_bb(complement(g), k).value)
                       for k in ks], g
        prepared = solvers._Packing(g.closed)
        for k in (4, 1, 3, 2, 4):
            # value, witness and nodes_explored, as a fresh search gives them
            assert prepared.solve(k) == limited_packing_bb(g, k), (g, k)


# ---------------------------------------------------------------------------
# structural properties on random graphs

def test_monotone_in_k_and_capped():
    rng = random.Random(4242)
    for _ in range(40):
        n = rng.randint(1, 9)
        g = Graph.from_edges(n, [(i, j) for j in range(n) for i in range(j)
                                 if rng.random() < 0.4])
        vals = [limited_packing_oracle(g, k).value for k in range(1, n + 3)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        assert all(v <= n for v in vals)
        dmax = max(g.degrees(), default=0)
        assert vals[-1] == n
        if dmax >= 1:
            assert vals[0] < n


def test_complement_of_empty_and_complete():
    for n in range(1, 8):
        empty = Graph.empty(n)
        comp = complement(empty)
        for k in (1, 2, 3):
            assert limited_packing_oracle(empty, k).value == n
            assert limited_packing_oracle(comp, k).value == min(k, n)
