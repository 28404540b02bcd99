"""Closed formulas, bound reports, and Nordhaus-Gaddum analysis."""
import json
import random
from itertools import combinations

import pytest

from limpack import (Graph, bound_report, check_Lk_equals_k, closed_form, complement,
                     construct_family, limited_packing_oracle, ng_lower_equality_condition,
                     nordhaus_gaddum, open_packing_number, profile,
                     regular_equality_check, small_order_value)
from limpack.bounds import bounds_for
from limpack.campaign import CAMPAIGN_ROWS, PASS, POSITIVE, REGISTRY, SKIP, Outcome
from limpack.corpus import (enumerate_labeled_graphs, labeled_class, random_connected,
                            tree_classes_by_order)
from limpack.graphs import mask_of
from limpack.solvers import GraphFacts

from sample_graphs import petersen


def entry(report, eid):
    matches = [e for e in report.entries if e.id == eid]
    assert len(matches) == 1, f"entry {eid} missing"
    return matches[0]


# ---------------------------------------------------------------------------
# closed formulas

def test_closed_form_matches_oracle():
    for n in range(1, 11):
        for k in range(1, 5):
            assert closed_form("path", n, k) == \
                limited_packing_oracle(construct_family("path", n), k).value
    for n in range(3, 11):
        for k in range(1, 5):
            assert closed_form("cycle", n, k) == \
                limited_packing_oracle(construct_family("cycle", n), k).value
    for n in range(1, 9):
        for k in range(1, 5):
            assert closed_form("complete", n, k) == \
                limited_packing_oracle(construct_family("complete", n), k).value
    for m in range(1, 8):
        for n in range(m, 8):
            if m + n > 8:
                continue
            for k in range(1, 5):
                got = limited_packing_oracle(
                    construct_family("complete_bipartite", (m, n)), k).value
                assert closed_form("complete_bipartite", (m, n), k) == got


def test_closed_form_spot_values():
    assert closed_form("path", 7, 2) == 5            # ceil(14/3)
    assert closed_form("cycle", 9, 2) == 6           # floor(18/3)
    assert closed_form("cycle", 7, 3) == 7           # k >= 3 saturates a cycle
    assert closed_form("complete", 9, 3) == 3
    assert closed_form("complete_bipartite", (3, 4), 1) == 1
    assert closed_form("complete_bipartite", (3, 4), 3) == 4


def test_closed_form_errors():
    with pytest.raises(ValueError):
        closed_form("hypercube", 3, 1)
    with pytest.raises(ValueError):
        closed_form("cycle", 2, 1)
    with pytest.raises(ValueError):
        closed_form("path", 3, 0)


@pytest.mark.parametrize("family, params, message", [
    ("path", 0, "path needs n >= 1"),
    ("complete", 0, "complete graph needs n >= 1"),
    ("complete_bipartite", (0, 2), "complete bipartite graph needs both parts >= 1"),
])
def test_closed_form_rejects_empty_orders(family, params, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        closed_form(family, params, 2)


def test_small_order_value():
    assert small_order_value(construct_family("complete", 3), 3) == 3
    assert small_order_value(construct_family("path", 4), 3) == 4     # max degree 2 != 3
    assert small_order_value(construct_family("star", 4), 3) == 3     # max degree 3 == 3
    assert small_order_value(construct_family("path", 5), 3) is None


# ---------------------------------------------------------------------------
# bound report entries

def test_report_path10_k2():
    rep = bound_report(construct_family("path", 10), 2, with_exact=True)
    assert rep.exact == 7
    assert entry(rep, "diam-lower").value == 7
    assert entry(rep, "diam-lower").applicable
    assert entry(rep, "diam-lower").citation == "lem-diam-lower-k12"
    assert entry(rep, "improved-diam-upper").value == 8
    assert rep.best_lower() == 7 and rep.best_upper() == 8


def test_report_path12_improved_diam():
    rep = bound_report(construct_family("path", 12), 2)
    assert entry(rep, "improved-diam-upper").value == 9
    assert entry(rep, "four-fifths-upper").value == 9    # floor(48/5)


def test_report_c6_mindeg_ratio():
    rep = bound_report(construct_family("cycle", 6), 2)
    e = entry(rep, "mindeg-ratio-upper")
    assert e.applicable and e.value == 4
    assert entry(rep, "deg-ratio-upper").applicable      # connected, min degree 2 >= 2
    assert entry(rep, "deg-ratio-upper").value == 4


def test_report_petersen_girth():
    rep = bound_report(petersen(), 3, with_exact=True)
    e = entry(rep, "girth-lower")
    assert e.applicable and e.value == 5
    assert e.citation == "th-girth-l2-lk"
    rep1 = bound_report(petersen(), 1)
    e1 = entry(rep1, "girth-lower")
    assert e1.applicable and e1.value == 1 and e1.citation == "th-girth-l1"
    assert entry(rep1, "maxdeg-sq-lower").value == 1     # ceil(10/10)


def test_report_small_order_exact_entries():
    rep = bound_report(construct_family("complete", 3), 3, with_exact=True)
    e = entry(rep, "exact-order-le-k")
    assert e.applicable and e.value == 3 and rep.exact == 3
    rep = bound_report(construct_family("star", 4), 3)
    e = entry(rep, "exact-order-k-plus-1")
    assert e.applicable and e.value == 3


def test_report_solves_aux_values_only_when_read(monkeypatch):
    from limpack import solvers
    calls = []

    def counting(name):
        solver = getattr(solvers, name)
        return lambda *args: calls.append(name) or solver(*args)

    for name in ("domination_number", "open_packing_number"):
        monkeypatch.setattr(solvers, name, counting(name))
    cycle = construct_family("cycle", 12)
    rep = bound_report(cycle, 3)
    assert calls == ["domination_number"]              # rho0 is read only at k <= 2
    assert entry(rep, "kgamma-upper").value == 12
    calls.clear()
    rep = bound_report(cycle, 2)
    assert calls == ["domination_number"]              # the cycle is not a tree
    calls.clear()
    rep = bound_report(cycle, 1)
    assert sorted(calls) == ["domination_number", "open_packing_number"]
    assert entry(rep, "openpack-upper").value == open_packing_number(cycle).value
    path = construct_family("path", 30)                # above the oracle's order limit
    calls.clear()
    rep = bound_report(path, 1)
    assert sorted(calls) == ["domination_number", "open_packing_number"]
    assert entry(rep, "kgamma-upper").value == 10
    assert entry(rep, "openpack-upper").value == 16
    calls.clear()
    rep = bound_report(path, 3)
    assert calls == ["domination_number"]
    assert entry(rep, "kgamma-upper").value == 30


def test_report_universal_vertex_and_cutvertex():
    rep = bound_report(construct_family("star", 5), 2, with_exact=True)
    assert entry(rep, "universal-vertex-exact").applicable
    assert entry(rep, "universal-vertex-exact").value == 2 == rep.exact
    e = entry(rep, "cutvertex-diam2-exact")
    assert e.applicable and e.value == 2


def test_report_tree_entries():
    rep = bound_report(construct_family("path", 6), 2, with_exact=True)
    assert entry(rep, "openpack-lower").applicable
    assert entry(rep, "openpack-lower").value == 4       # rho0(P_6)
    assert entry(rep, "double-openpack-upper").value == 8
    assert rep.exact == 4
    # non-tree: both inapplicable
    rep = bound_report(construct_family("cycle", 6), 2)
    assert not entry(rep, "openpack-lower").applicable
    assert not entry(rep, "double-openpack-upper").applicable


def test_report_soundness_exhaustive():
    for n in range(0, 6):
        for g in enumerate_labeled_graphs(n) if n else [Graph.empty(0)]:
            for k in (1, 2, 3):
                rep = bound_report(g, k, with_exact=True)
                for e in rep.entries:
                    if not e.applicable:
                        continue
                    if e.direction == "lower":
                        assert e.value <= rep.exact, (g.edges(), k, e.id)
                    elif e.direction == "upper":
                        assert rep.exact <= e.value, (g.edges(), k, e.id)
                    else:
                        assert rep.exact == e.value, (g.edges(), k, e.id)
                assert rep.best_lower() <= rep.exact <= rep.best_upper()


def test_report_json_shape_and_determinism():
    rep = bound_report(construct_family("path", 5), 2, with_exact=True)
    d = rep.as_dict()
    assert list(d) == ["graph6", "k", "n", "exact", "best_lower", "best_upper",
                       "entries"]
    assert list(d["entries"][0]) == ["id", "direction", "applicable", "value",
                                     "raw", "hypothesis", "citation"]
    again = bound_report(construct_family("path", 5), 2, with_exact=True)
    assert json.dumps(d) == json.dumps(again.as_dict())
    ids = [e["id"] for e in d["entries"]]
    assert len(ids) == len(set(ids))


def test_report_lists_rows_at_every_k():
    # a row's k-range is a predicate with no largest k: past 2^63 - 1 the
    # panel lists the rows it lists at any k >= 3
    for g in (construct_family("path", 5), construct_family("cycle", 6),
              construct_family("complete", 4)):
        want = [(e.id, e.applicable) for e in bound_report(g, 65).entries]
        assert len(want) == 21
        for k in (2 ** 63 - 1, 2 ** 63, 10 ** 30):
            assert [(e.id, e.applicable) for e in bound_report(g, k).entries] == want, k


# ---------------------------------------------------------------------------
# the campaign's derived evaluators against the gap rule they replaced

_BROKEN = {"lower": "<", "upper": ">", "exact": "!="}


def derived_by_gap(citation: str, f, k: int) -> Outcome:
    """A derived evaluator that never rounds: L_k is an integer, so it breaks a
    lower bound iff gap = L_k*den - num < 0, breaks an upper bound iff gap > 0,
    and equals the rounded value iff |gap| < den."""
    n, p = f.n, f.profile
    outcome, fails = SKIP, []
    for b in bounds_for(citation):
        if not b.listed(k) or not b.applies(n, p, k, f):
            continue
        num = b.num(n, p, k, f)
        den = 1 if b.den is None else b.den(n, p, k, f)
        lk = f.lk(k)
        gap = lk * den - num
        if gap < 0 and b.direction != "upper" or gap > 0 and b.direction != "lower":
            shown = num if b.den is None else f"{num}/{den}"
            fails.append(f"L_{k}={lk} {_BROKEN[b.direction]} {b.id}={shown}")
        elif b.tie == "any" or (gap == 0 if b.tie == "raw" else abs(gap) < den):
            outcome = POSITIVE
        elif outcome is SKIP:
            outcome = PASS
    return Outcome(True, False, "; ".join(fails)) if fails else outcome


class ShiftedFacts:
    """GraphFacts with every L_k moved by shift, so that rows break and tie."""

    def __init__(self, facts: GraphFacts, shift: int):
        self.facts, self.shift = facts, shift

    def __getattr__(self, name):
        return getattr(self.facts, name)

    def lk(self, k: int) -> int:
        return self.facts.lk(k) + self.shift


def test_derived_evaluators_match_gap_rule():
    derived = {tid: ev for tid, ev in REGISTRY.items()
               if ev.kind != "standalone" and tid not in CAMPAIGN_ROWS}
    assert len(derived) == 18
    classes = {}
    for n in range(1, 7):
        for g in enumerate_labeled_graphs(n):
            classes.setdefault(labeled_class(g), g)
    assert len(classes) == 208
    graphs = list(classes.values())
    graphs += [t for reps in tree_classes_by_order(10) for t in reps]
    rng = random.Random(2020)
    for _ in range(200):
        n, prob = rng.randint(2, 16), rng.random()
        graphs.append(Graph.from_edges(n, [(u, v) for u, v in combinations(range(n), 2)
                                           if rng.random() < prob]))
    for g in graphs:
        facts = GraphFacts(g)
        for shift in (0, -1, 1):
            f = ShiftedFacts(facts, shift)
            for tid, ev in derived.items():
                if ev.kind == "once":
                    assert ev.fn(f) == derived_by_gap(tid, f, ev.k), (tid, g, shift)
                    continue
                for k in range(1, 6):
                    assert ev.fn(f, k) == derived_by_gap(tid, f, k), (tid, g, k, shift)


# ---------------------------------------------------------------------------
# Nordhaus-Gaddum sums

def test_ng_complete_minus_edge_tight():
    for n in range(3, 9):
        g = construct_family("complete_minus_edge", n)
        rep = nordhaus_gaddum(g, 1)
        assert rep.total == n
        assert rep.case == "both-large-delta"
        assert rep.upper_bound == n


def test_ng_mixed_case_tight():
    from limpack import disjoint_union
    g = disjoint_union(construct_family("complete", 2), Graph.empty(1))
    rep = nordhaus_gaddum(g, 2)
    assert rep.total == 5 == 2 * g.n - 1
    assert rep.case == "mixed"
    assert rep.refinement_upper == 5


def test_ng_lower_tight_on_k2():
    rep = nordhaus_gaddum(construct_family("complete", 2), 2)
    assert rep.total == 4 == rep.lower_bound
    assert rep.case == "both-small-delta"
    assert rep.upper_bound == 4
    assert ng_lower_equality_condition(construct_family("complete", 2), 2)


def test_ng_equality_condition_matches_sums():
    for n in range(1, 5):
        for g in enumerate_labeled_graphs(n):
            for k in (1, 2, 3):
                if n < k:
                    continue
                rep = nordhaus_gaddum(g, k)
                assert rep.total >= 2 * k
                cond = ng_lower_equality_condition(g, k)
                assert (rep.total == 2 * k) == cond, (g.edges(), k)


def test_ng_equality_condition_rejects_k_below_one():
    for g in (construct_family("path", 3), construct_family("complete", 4), Graph.empty(3),
              construct_family("cycle", 5)):
        for k in (0, -1, -3):
            with pytest.raises(ValueError, match=f"^k must be >= 1, got {k}$"):
                ng_lower_equality_condition(g, k)


def test_regular_equality_check_rejects_k_below_one():
    # the answer no longer depends on the graph: P_3 used to pass vacuously
    for g in (construct_family("path", 3), construct_family("cycle", 5), Graph.empty(0)):
        for k in (0, -1):
            with pytest.raises(ValueError, match=f"^k must be >= 1, got {k}$"):
                regular_equality_check(g, k)


def paley13() -> Graph:
    # self-complementary with diameter 2, so L_1(G) + L_1(complement) == 2
    squares = {x * x % 13 for x in range(1, 13)}
    return Graph.from_edges(13, [(i, j) for i in range(13) for j in range(i + 1, 13)
                                 if (j - i) % 13 in squares])


def test_subset_scans_share_one_budget(monkeypatch):
    from limpack import graphs
    k14, path14 = construct_family("complete", 14), construct_family("path", 14)
    paley, path13 = paley13(), construct_family("path", 13)
    assert check_Lk_equals_k(k14, 6) and ng_lower_equality_condition(paley, 1)
    monkeypatch.setattr(graphs, "SUBSET_SCAN_LIMIT", 3432)   # C(14, 7): just enough
    assert check_Lk_equals_k(k14, 6)
    monkeypatch.setattr(graphs, "SUBSET_SCAN_LIMIT", 3431)
    with pytest.raises(ValueError, match=r"C\(14, 7\) = 3432.*n = 14, k = 6"):
        check_Lk_equals_k(k14, 6)
    # one scan for both sides: the complement's side fails on the first subset
    assert not ng_lower_equality_condition(k14, 6)
    monkeypatch.setattr(graphs, "SUBSET_SCAN_LIMIT", 20)
    with pytest.raises(ValueError, match=r"C\(13, 2\) = 78.*n = 13, k = 1"):
        ng_lower_equality_condition(paley, 1)
    # a scan that fails early answers as before, whatever the budget
    assert not check_Lk_equals_k(path14, 6)
    assert not ng_lower_equality_condition(path13, 1)


# the subset scans as direct loops over the vertices outside each subset X,
# kept as references for the AND/OR-of-rows tests in src/

def lk_eq_k_by_outside_loop(g: Graph, k: int) -> bool:
    n, adj = g.n, g.adj
    if n <= k:
        return n == k
    if n == k + 1:
        return max(nb.bit_count() for nb in adj) == k
    for combo in combinations(range(n), k + 1):
        x_mask = mask_of(combo)
        if any((adj[v] & x_mask).bit_count() == k for v in combo):
            continue
        if any(adj[u] & x_mask == x_mask for u in range(n) if not x_mask >> u & 1):
            continue
        return False
    return True


def ng_condition_by_outside_loop(g: Graph, k: int) -> bool:
    n, adj = g.n, g.adj
    if n == k:
        return True
    if n < k + 1:
        return False
    for combo in combinations(range(n), k + 1):
        x_mask = mask_of(combo)
        max_deg_k = any((adj[v] & x_mask).bit_count() == k for v in combo)
        isolated = any(adj[v] & x_mask == 0 for v in combo)
        cover = miss = False
        for u in range(n):
            if x_mask >> u & 1:
                continue
            if adj[u] & x_mask == x_mask:
                cover = True
            if adj[u] & x_mask == 0:
                miss = True
        if not ((max_deg_k and miss) or (cover and isolated) or (cover and miss)):
            return False
    return True


def test_subset_scans_match_outside_vertex_loops():
    graphs = [g for n in range(1, 7) for g in enumerate_labeled_graphs(n)]
    randoms = [g for n in range(8, 13) for g in random_connected(n, 40, seed=700 + n)]
    graphs += randoms + [complement(g) for g in randoms]
    verdicts = set()
    for g in graphs:
        for k in (1, 2, 3, 4):
            lk_eq_k = check_Lk_equals_k(g, k)
            assert lk_eq_k == lk_eq_k_by_outside_loop(g, k), (g.edges(), k)
            ng_eq = ng_lower_equality_condition(g, k)
            assert ng_eq == ng_condition_by_outside_loop(g, k), (g.edges(), k)
            assert ng_eq == ng_condition_by_outside_loop(complement(g), k), (g.edges(), k)
            verdicts.add((k, "lk-eq-k", lk_eq_k))
            verdicts.add((k, "ng-eq", ng_eq))
    # each scan answers both ways at every k
    assert len(verdicts) == 4 * 2 * 2


def test_ng_upper_sound_exhaustive():
    for n in range(1, 5):
        for g in enumerate_labeled_graphs(n):
            for k in (1, 2, 3):
                rep = nordhaus_gaddum(g, k)
                assert rep.total <= rep.upper_bound
                if k == 2:
                    assert rep.total <= rep.refinement_upper == g.n + 2


# ---------------------------------------------------------------------------
# regular-graph equality check

def test_regular_equality_examples():
    res = regular_equality_check(construct_family("complete", 4), 2)
    assert res.regular and res.applicable and res.premise_holds
    assert res.conclusion_holds and res.passed and not res.vacuous
    res = regular_equality_check(construct_family("cycle", 5), 1)
    assert res.regular and res.applicable and not res.premise_holds
    assert res.vacuous and res.passed
    res = regular_equality_check(construct_family("path", 3), 1)
    assert not res.regular and not res.applicable and res.passed


# ---------------------------------------------------------------------------
# small equivalences kept alongside the bounds they sharpen

def test_l1_eq_1_iff_diameter_le_2():
    for n in range(1, 6):
        for g in enumerate_labeled_graphs(n):
            l1 = limited_packing_oracle(g, 1).value
            p = profile(g)
            small_diam = p.diameter is not None and p.diameter <= 2
            assert (l1 == 1) == small_diam, g.edges()


def test_open_packing_at_most_2_when_diameter_le_2():
    for n in range(1, 6):
        for g in enumerate_labeled_graphs(n):
            p = profile(g)
            if p.diameter is not None and p.diameter <= 2:
                assert open_packing_number(g).value <= 2


def test_open_packing_eq_1_characterization():
    # connected, n >= 3: rho0 == 1 iff diameter <= 2 and every edge lies on
    # a triangle
    for n in range(3, 6):
        for g in enumerate_labeled_graphs(n):
            p = profile(g)
            if not p.connected:
                continue
            lhs = open_packing_number(g).value == 1
            rhs = p.diameter <= 2 and p.every_edge_on_triangle
            assert lhs == rhs, g.edges()
