"""Verification-campaign registry, report shape, and violation handling."""
import json
from dataclasses import replace

import pytest

import limpack.bounds as bounds_mod
import limpack.campaign as campaign_mod
from limpack import Graph, build_from_spec, emit_graph6, profile
from limpack.bounds import BOUNDS, Bound
from limpack.campaign import (ALL_THEOREM_IDS, CAMPAIGN_ROWS, REGISTRY, SKIP, Evaluator,
                              GraphFacts, Outcome, replay_violation, run_campaign)
from limpack.corpus import (enumerate_labeled_graphs, labeled_class, parse_corpus_spec,
                            tree_classes_by_order)

EXPECTED_IDS = (
    "cor-classG",
    "cor-diam-le-2",
    "cor-regular-half",
    "lem-45-upper",
    "lem-bipartite-formula",
    "lem-complete-formula",
    "lem-cutvertex-diam2",
    "lem-cycle-formula",
    "lem-delta-upper",
    "lem-diam-lower-k12",
    "lem-kgamma",
    "lem-kk1-upper",
    "lem-l1-eq-1-iff-diam2",
    "lem-l1-eq-gamma-trees",
    "lem-l1-maxdeg-lower",
    "lem-maxdeg-n1",
    "lem-monotone-chain",
    "lem-ng-l2-n-plus-2",
    "lem-open-packing-diam2",
    "lem-openpack-sandwich",
    "lem-path-formula",
    "lem-rho-eq-gammat-trees",
    "prop-l1-l2-sandwich",
    "prop-lk-geq-k",
    "prop-ng-lower",
    "prop-order-kplus1",
    "prop-small-order",
    "th-classT-characterization",
    "th-diam-lower-k3",
    "th-diam2-construction",
    "th-girth-l1",
    "th-girth-l2-lk",
    "th-improved-diam-upper",
    "th-lk-eq-k-characterization",
    "th-ng-upper",
    "th-order-degree-upper",
    "th-prescribed-construction",
    "th-spider-characterization",
    "th-tree-deltaprime",
)


def test_registry_roster():
    assert ALL_THEOREM_IDS == EXPECTED_IDS
    assert len(REGISTRY) == 39
    kinds = {ev.kind for ev in REGISTRY.values()}
    assert kinds == {"once", "per_k", "standalone"}


def test_small_campaign_all_pass():
    corpus = parse_corpus_spec("all_labeled(4)+trees(<=7)")
    report = run_campaign(ALL_THEOREM_IDS, corpus, (1, 2, 3))
    assert not report.failed
    assert len(report.verdicts) == 39
    for v in report.verdicts:
        assert v.status == "pass", v.theorem_id
        assert v.violations == []
    by_id = {v.theorem_id: v for v in report.verdicts}
    # characterizations already have many member-side positives at this size
    assert by_id["th-lk-eq-k-characterization"].positive_cases >= 50
    assert by_id["th-classT-characterization"].positive_cases >= 10


def test_report_json_deterministic():
    corpus_spec = "all_labeled(3)+trees(<=6)"
    blobs = []
    for _ in range(2):
        report = run_campaign(ALL_THEOREM_IDS, parse_corpus_spec(corpus_spec), (1, 2))
        blobs.append(report.to_json())
    assert blobs[0] == blobs[1]
    data = json.loads(blobs[0])
    assert list(data) == ["tool_version", "corpus_spec", "k_range", "verdicts"]
    assert data["tool_version"] == "limpack 0.1.0"
    assert data["corpus_spec"] == corpus_spec
    assert data["k_range"] == [1, 2]
    ids = [v["theorem_id"] for v in data["verdicts"]]
    assert ids == sorted(ids)
    for v in data["verdicts"]:
        assert list(v) == ["theorem_id", "status", "graphs_checked",
                           "substantive_checks", "positive_cases", "violations"]


def test_vacuous_detection():
    # min nonleaf degree >= 4 never happens on trees this small
    report = run_campaign(["th-tree-deltaprime"], parse_corpus_spec("trees(<=4)"), (1,))
    assert report.verdicts[0].status == "vacuous"
    # the k >= 3 diameter bound cannot fire when only k=1 is requested
    report = run_campaign(["th-diam-lower-k3"], parse_corpus_spec("all_labeled(3)"), (1,))
    assert report.verdicts[0].status == "vacuous"
    assert not report.failed


def test_injected_failure_and_replay(monkeypatch):
    monkeypatch.setitem(REGISTRY, "fake-id", Evaluator(
        "once", fn=lambda facts: Outcome(True, False, "always broken")))
    corpus = parse_corpus_spec("all_labeled(2)")
    report = run_campaign(["fake-id", "lem-kgamma"], corpus, (1,))
    assert report.failed
    by_id = {v.theorem_id: v for v in report.verdicts}
    assert by_id["lem-kgamma"].status == "pass"
    bad = by_id["fake-id"]
    assert bad.status == "fail"
    assert bad.violations
    first = bad.violations[0]
    assert set(first) == {"graph6", "k", "detail"}
    assert first["k"] is None
    # violations are replayable from their recorded coordinates
    out = replay_violation("fake-id", first["graph6"])
    assert out.detail == "always broken"


def test_standalone_sweep_violations(monkeypatch):
    # a closed formula off by one at k = 2 breaks every path at that k only
    closed_form = bounds_mod.closed_form
    monkeypatch.setattr(bounds_mod, "closed_form",
                        lambda family, size, k: closed_form(family, size, k) + (k == 2))
    v = run_campaign(["lem-path-formula"], [], (1,)).verdicts[0]
    assert v.status == "fail"
    assert (v.graphs_checked, v.substantive_checks, v.positive_cases) == (12, 48, 36)
    assert len(v.violations) == 12
    assert v.violations[0] == {"graph6": emit_graph6(Graph.empty(1)), "k": 2,
                               "detail": "path n=1: L_2=1, formula=2"}


def test_replay_violation_real_id():
    out = replay_violation("lem-kgamma", "BW", k=1)
    assert out.substantive and out.detail is None
    with pytest.raises(ValueError):
        replay_violation("lem-path-formula", "BW")      # standalone: no single graph
    with pytest.raises(ValueError):
        replay_violation("no-such-id", "BW")
    with pytest.raises(ValueError):
        replay_violation("lem-kgamma", "BW")             # per-k id needs k


def test_replay_violation_rejects_k_below_one():
    for tid in ("lem-kgamma", "th-girth-l2-lk", "lem-monotone-chain", "cor-classG",
                "lem-l1-eq-gamma-trees"):
        for k in (0, -1):
            with pytest.raises(ValueError, match=rf"^k must be >= 1, got {k}$"):
                replay_violation(tid, "DhC", k)


def test_replay_violation_takes_only_a_once_ids_own_k():
    # a once evaluator checks one k; any other k is refused, naming the one it checks
    for tid, own, others in (("cor-classG", 2, (1, 3, 10)), ("lem-l1-eq-gamma-trees", 1, (2, 3))):
        assert REGISTRY[tid].k == own
        assert replay_violation(tid, "BW", own) == replay_violation(tid, "BW")
        for k in others:
            with pytest.raises(ValueError, match=rf"^{tid} is checked once, at k = {own}; "
                                                 rf"got k = {k}$"):
                replay_violation(tid, "BW", k)


def test_huge_k_is_checked():
    # a bound row covers every k, also past 2^63 - 1
    path5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    v = run_campaign(["prop-small-order"], [path5], [2 ** 63]).verdicts[0]
    assert (v.status, v.substantive_checks, v.positive_cases) == ("pass", 1, 1)


def test_run_campaign_validation():
    corpus = parse_corpus_spec("all_labeled(2)")
    with pytest.raises(ValueError):
        run_campaign(["no-such-id"], corpus, (1,))
    with pytest.raises(ValueError):
        run_campaign(["lem-kgamma"], corpus, (0,))


def test_supplement_only_class_t():
    report = run_campaign(["th-classT-characterization"], [], (1,),
                          corpus_spec="supplements-only")
    v = report.verdicts[0]
    assert v.status == "pass"
    assert v.graphs_checked == 50
    assert v.positive_cases == 50      # every supplement is a member
    data = json.loads(report.to_json())
    assert data["corpus_spec"] == "supplements-only"


def test_supplement_only_spider():
    report = run_campaign(["th-spider-characterization"], [], (1,))
    v = report.verdicts[0]
    assert v.status == "pass"
    assert v.graphs_checked == 48
    assert v.substantive_checks == 48
    assert v.positive_cases == 43      # the rest exercise the non-member side


def test_theorem_id_dedup_and_order():
    corpus = parse_corpus_spec("all_labeled(2)")
    report = run_campaign(["lem-kgamma", "lem-kgamma", "cor-classG"], corpus, (2, 1))
    assert [v.theorem_id for v in report.verdicts] == ["cor-classG", "lem-kgamma"]
    assert json.loads(report.to_json())["k_range"] == [1, 2]


def test_null_graph_campaign():
    # K_0 counts as connected with diameter 0 in its profile, but no
    # statement about connected graphs may apply to it
    report = run_campaign(ALL_THEOREM_IDS, [Graph.empty(0)], range(1, 4))
    assert not report.failed, [v.violations for v in report.verdicts if v.violations]


def _assert_outcomes_class_invariant(order: int, ks=(1, 2, 3)):
    """Every labeled graph's outcomes equal those of its class's first member.

    run_campaign evaluates only that first member, so this is the check of
    every labeling that the class cache leaves out.
    """
    per_graph = [(tid, ev) for tid, ev in REGISTRY.items() if ev.kind != "standalone"]
    first: dict = {}
    for g in parse_corpus_spec(f"all_labeled({order})"):
        facts = GraphFacts(g)
        outcomes = tuple(ev.fn(facts) if ev.kind == "once" else
                         tuple(ev.fn(facts, k) for k in ks)
                         for _, ev in per_graph)
        expect = first.setdefault(labeled_class(g), outcomes)
        for (tid, _), got, want in zip(per_graph, outcomes, expect):
            assert got == want, (tid, g)


def test_outcomes_class_invariant_order5():
    _assert_outcomes_class_invariant(5)


@pytest.mark.slow
def test_outcomes_class_invariant_order6():
    _assert_outcomes_class_invariant(6)


def test_campaign_class_counts():
    # 1 + 2 + 8 + 64 labeled graphs in 18 classes; trees(<=6) adds 13 class
    # representatives of orders 2..6, which hit the classes above only up to
    # order 4, and random_connected(n=7..8) is above the cached orders
    corpus = parse_corpus_spec("all_labeled(4)+trees(<=6)+random_connected(n=7..8,4,seed=1)")
    report = run_campaign(ALL_THEOREM_IDS, corpus, (1, 2))
    assert report.graphs == 75 + 13 + 4
    assert report.classes_evaluated == 18 + 9 + 4
    assert report.class_hits == report.graphs - report.classes_evaluated


def test_campaign_calls_each_recognizer_once_per_class(monkeypatch):
    calls: dict = {}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(g, *args):
            calls.setdefault(name, []).append((g, *args))
            return fn(g, *args)
        monkeypatch.setattr(module, name, wrapper)

    for name in ("check_Lk_equals_k", "recognize_class_G", "recognize_class_T",
                 "is_spider_below_max_degree"):
        counted(campaign_mod, name)
    counted(bounds_mod, "ng_lower_equality_condition")
    ks = (1, 2, 3)
    report = run_campaign(ALL_THEOREM_IDS, parse_corpus_spec("all_labeled(5)+trees(<=8)"), ks)
    assert not report.failed
    # cor-classG reads every evaluated corpus graph and nothing else
    evaluated = [g for g, in calls["recognize_class_G"]]
    assert len(evaluated) == report.classes_evaluated < report.graphs
    assert sorted(k for _, k in calls["check_Lk_equals_k"]) == \
        sorted(ks * report.classes_evaluated)
    # prop-ng-lower skips n < k and tests the condition only there
    assert sorted(k for _, k in calls["ng_lower_equality_condition"]) == \
        sorted(k for g in evaluated for k in ks if g.n >= k)
    trees = sum(1 for g in evaluated if g.n >= 2 and profile(g).is_tree)
    spiders = REGISTRY["th-spider-characterization"].supplements()
    combs = REGISTRY["th-classT-characterization"].supplements()
    assert len(calls["is_spider_below_max_degree"]) == trees + len(spiders)
    assert len(calls["recognize_class_T"]) == trees + len(combs)


def _four_edges(f: GraphFacts, k: int = None) -> Outcome:
    """Planted: fails every graph with exactly four edges, positive on connected ones."""
    if f.g.edge_count() == 4:
        return Outcome(True, False, f"four edges at k={k}")
    if f.n < (k or 1):
        return SKIP
    return Outcome(True, f.profile.connected)


def test_multiplicity_tally_matches_graph_by_graph(monkeypatch):
    monkeypatch.setitem(REGISTRY, "planted-once", Evaluator("once", fn=_four_edges))
    monkeypatch.setitem(REGISTRY, "planted-per-k", Evaluator("per_k", fn=_four_edges))
    ids = ["planted-once", "planted-per-k", "lem-kgamma", "th-ng-upper", "cor-classG",
           "lem-monotone-chain"]
    spec = "all_labeled(5)+trees(<=7)+random_connected(n=7..8,6,seed=3)"
    ks = (1, 2, 3)
    report = run_campaign(ids, parse_corpus_spec(spec), ks)
    # the reference: every graph evaluated and tallied on its own
    expect = {tid: {"theorem_id": tid, "graphs_checked": 0, "substantive_checks": 0,
                    "positive_cases": 0, "violations": []} for tid in ids}
    for g in parse_corpus_spec(spec):
        facts = GraphFacts(g)
        for tid in ids:
            ev = REGISTRY[tid]
            outs = ([(None, ev.fn(facts))] if ev.kind == "once" else
                    [(k, ev.fn(facts, k)) for k in ks])
            e = expect[tid]
            e["graphs_checked"] += 1
            for k, out in outs:
                e["substantive_checks"] += out.substantive
                e["positive_cases"] += out.substantive and out.positive
                if out.detail is not None:
                    e["violations"].append({"graph6": emit_graph6(g), "k": k,
                                            "detail": out.detail})
    for e in expect.values():
        e["violations"].sort(key=campaign_mod._violation_key)
        e["status"] = ("fail" if e["violations"] else
                       "vacuous" if e["substantive_checks"] == 0 else "pass")
    assert [v.as_dict() for v in report.verdicts] == [expect[tid] for tid in sorted(ids)]
    by_id = {v.theorem_id: v for v in report.verdicts}
    # four edges: 15 labeled graphs of order 4, 210 of order 5 and the 3 trees
    # of order 5, each a member of a cached class
    assert len(by_id["planted-once"].violations) == 15 + 210 + 3
    assert len(by_id["planted-per-k"].violations) == 3 * 228
    # 1,099 labeled graphs in 52 classes, 24 trees of orders 2..7 (the 17 of
    # orders 6 and 7 are new classes) and 6 random graphs above the cached orders
    assert (report.graphs, report.classes_evaluated, report.class_hits) == (1129, 75, 1054)


def test_per_graph_path_makes_no_oracle_call(monkeypatch):
    # no statement reaches the oracle, the formula sweeps included
    def refuse(g, k):
        raise AssertionError("the subset oracle was called")
    monkeypatch.setattr(campaign_mod.solvers, "limited_packing_oracle", refuse)
    ids = ALL_THEOREM_IDS
    corpus = parse_corpus_spec("all_labeled(5)+random_connected(n=8..12,10,seed=1)")
    report = run_campaign(ids, corpus, (1, 2, 3))
    assert not report.failed and report.classes_evaluated == 52 + 10


def test_per_graph_callers_never_reach_the_oracle(monkeypatch):
    # bound_report, nordhaus_gaddum, regular_equality_check and the construction
    # sweeps read GraphFacts, which solves by branch and bound at every order
    from limpack import solvers
    from limpack.corpus import random_connected

    def refuse(*args):
        raise AssertionError("the oracle was called")

    monkeypatch.setattr(solvers, "limited_packing_oracle", refuse)
    graphs = [g for n in range(2, 13) for g in random_connected(n, 3, 900 + n, 0.4)]
    graphs += [Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)]) for n in (5, 12)]
    for g in graphs:
        for k in (1, 2, 3):
            assert bounds_mod.bound_report(g, k, with_exact=True).exact is not None
            rep = bounds_mod.nordhaus_gaddum(g, k)
            assert rep.total == rep.value + rep.value_complement
            assert bounds_mod.regular_equality_check(g, k).passed
    report = run_campaign(["th-diam2-construction", "th-prescribed-construction"],
                          parse_corpus_spec("trees(3)"), (1, 2))
    assert [(v.status, v.graphs_checked) for v in report.verdicts] == [("pass", 4), ("pass", 9)]


def _nine_edges_at_k2(f: GraphFacts, k: int) -> Outcome:
    """Planted: fails at k = 2 on every graph with nine edges, positive on connected ones."""
    if k == 2 and f.g.edge_count() == 9:
        return Outcome(True, False, f"nine edges at k={k}")
    return Outcome(True, f.profile.connected)


def test_repeated_rows_without_class_key_match_graph_by_graph(monkeypatch):
    # order 8 is above every class limit, so each graph is evaluated; the
    # second copy and the relabeling repeat the first one's rows
    monkeypatch.setitem(REGISTRY, "planted-per-k", Evaluator("per_k", fn=_nine_edges_at_k2))
    ids = ["planted-per-k", "lem-kgamma", "th-ng-upper", "cor-classG", "th-girth-l1"]
    g = Graph.from_edges(8, [(i, (i + 1) % 8) for i in range(8)] + [(0, 4)])
    perm = [3, 7, 0, 5, 1, 6, 2, 4]
    relabeled = Graph.from_edges(8, [(perm[u], perm[v]) for u, v in g.edges()])
    path = Graph.from_edges(8, [(i, i + 1) for i in range(7)])
    corpus = [g, path, g, relabeled]
    assert labeled_class(g) is None and emit_graph6(relabeled) != emit_graph6(g)
    ks = (1, 2, 3)
    report = run_campaign(ids, corpus, ks, corpus_spec="planted")
    expect = {tid: {"theorem_id": tid, "graphs_checked": 0, "substantive_checks": 0,
                    "positive_cases": 0, "violations": []} for tid in ids}
    for h in corpus:
        facts = GraphFacts(h)
        for tid in ids:
            ev = REGISTRY[tid]
            outs = ([(None, ev.fn(facts))] if ev.kind == "once" else
                    [(k, ev.fn(facts, k)) for k in ks])
            e = expect[tid]
            e["graphs_checked"] += 1
            for k, out in outs:
                e["substantive_checks"] += out.substantive
                e["positive_cases"] += out.substantive and out.positive
                if out.detail is not None:
                    e["violations"].append({"graph6": emit_graph6(h), "k": k,
                                            "detail": out.detail})
    for e in expect.values():
        e["violations"].sort(key=campaign_mod._violation_key)
        e["status"] = ("fail" if e["violations"] else
                       "vacuous" if e["substantive_checks"] == 0 else "pass")
    assert [v.as_dict() for v in report.verdicts] == [expect[tid] for tid in sorted(ids)]
    planted = {v.theorem_id: v for v in report.verdicts}["planted-per-k"]
    # one record per member of the repeated rows, each under its own graph6
    assert sorted(v["graph6"] for v in planted.violations) == \
        sorted([emit_graph6(g)] * 2 + [emit_graph6(relabeled)])
    assert {v["k"] for v in planted.violations} == {2}
    assert (report.graphs, report.classes_evaluated) == (4, 4)


# ---------------------------------------------------------------------------
# each campaign-only statement's violation texts, reached by one planted fact

def _planted(spec: str, lk=None, lk_bar=None, **values) -> GraphFacts:
    """GraphFacts of a built graph with some values set before any is solved:
    lk and lk_bar seed the per-k caches, values the cached gamma, rho0 or gamma_t."""
    f = GraphFacts(build_from_spec(spec))
    f._lk.update(lk or {})
    f._lk_bar.update(lk_bar or {})
    f.__dict__.update(values)
    return f


PLANTED = [  # id, graph, k (None: a once evaluator), planted facts, violation detail
    ("lem-monotone-chain", "path:3", 1, {"lk": {2: 1}}, "L_{k+1}=1 < step-lower=2"),
    ("lem-monotone-chain", "path:3", 2, {"lk": {2: 1}}, "L_2=1 < chain-lower=2"),
    ("th-lk-eq-k-characterization", "cycle:5", 2, {"lk": {2: 2}},
     "L_2=2 vs lk-eq-k=2 but structural test says False"),
    ("cor-diam-le-2", "path:4", 1, {"lk": {1: 1}}, "diameter=3 > diam-le-2=2"),
    ("cor-regular-half", "cycle:5", 1, {"lk": {1: 3}}, "2*max_degree=4 < regular-half=5"),
    ("prop-ng-lower", "path:3", 2, {"lk": {2: 1}, "lk_bar": {2: 1}},
     "L_2(G)+L_2(complement)=2 < ng-lower=4"),
    ("prop-ng-lower", "path:3", 1, {"lk_bar": {1: 1}},
     "L_1(G)+L_1(complement)=2 vs ng-lower=2 but structural test says False"),
    ("th-ng-upper", "path:3", 2, {"lk": {2: 3}}, "L_2(G)+L_2(complement)=6 > ng-upper=5"),
    ("lem-ng-l2-n-plus-2", "path:3", None, {"lk": {2: 3}},
     "L_2(G)+L_2(complement)=6 > ng-l2-upper=5"),
    ("lem-l1-eq-1-iff-diam2", "path:3", None, {"lk": {1: 2}},
     "L_1=2 vs l1-eq-1=1 but structural test says True"),
    ("lem-open-packing-diam2", "path:3", None, {"rho0": 3}, "rho0=3 > rho0-le-2=2"),
    ("lem-rho-eq-gammat-trees", "path:3", None, {"rho0": 3}, "rho0=3 != rho0-eq-gamma_t=2"),
    ("lem-l1-eq-gamma-trees", "path:3", None, {"gamma": 2}, "L_1=1 != l1-eq-gamma=2"),
    ("cor-classG", "path:3", None, {"lk": {2: 3}},
     "L_2=3 vs class-g=2 but structural test says True"),
    ("prop-l1-l2-sandwich", "path:3", None, {"lk": {2: 1}}, "L_2=1 < chain-lower=2"),
    ("prop-l1-l2-sandwich", "path:3", None, {"lk": {2: 6}}, "L_2=6 > l1-ratio-upper=10/2"),
    ("th-spider-characterization", "path:5", None, {"lk": {2: 5}}, "L_2=5 > double-l1-upper=4"),
    ("th-spider-characterization", "path:4", None, {"lk": {2: 4}},
     "L_2-L_1=2 vs spider=1 but structural test says True"),
    ("th-spider-characterization", "path:4", None, {"lk": {2: 5}},
     "L_2=5 > double-l1-upper=4; L_2-L_1=3 vs spider=1 but structural test says True"),
    ("th-classT-characterization", "path:4", None, {"lk": {2: 5}},
     "L_2=5 > double-openpack-upper=4"),
    ("th-classT-characterization", "path:3", None, {"lk": {2: 3}},
     "L_2=3 vs class-t=2 but structural test says True"),
    ("th-classT-characterization", "path:3", None, {"lk": {2: 5}},
     "L_2=5 > double-openpack-upper=4; L_2=5 vs class-t=2 but structural test says True"),
]


def _planted_outcome(tid: str, spec: str, k, planted: dict) -> Outcome:
    return REGISTRY[tid].fn(_planted(spec, **planted), *(() if k is None else (k,)))


@pytest.mark.parametrize("tid, spec, k, planted, detail", PLANTED)
def test_planted_fact_reaches_violation_branch(tid, spec, k, planted, detail):
    # a campaign finds a bug only through these branches: one wrong solver value
    # must surface as a substantive outcome with its detail
    assert _planted_outcome(tid, spec, k, {}).detail is None
    out = _planted_outcome(tid, spec, k, planted)
    assert out.substantive and out.detail == detail


def test_planted_cases_cover_every_hand_written_evaluator():
    # the statements once written by hand are those with campaign-only rows
    assert {case[0] for case in PLANTED} == set(CAMPAIGN_ROWS)
    assert len(CAMPAIGN_ROWS) == 15


def test_campaign_rows_are_well_formed():
    for tid, rows in CAMPAIGN_ROWS.items():
        assert tid in REGISTRY and REGISTRY[tid].rows == rows, tid
    rows = [b for ev in REGISTRY.values() for b in ev.rows] + list(BOUNDS)
    for b in rows:
        assert b.direction in ("lower", "upper", "exact", "iff"), b.id
        assert b.tie in ("value", "raw", "any", "none"), b.id
        if b.direction == "iff":
            assert b.iff is not None, b.id
        if b.fact is not None:
            assert b.fact_name != Bound.fact_name, b.id      # the default name says L_k


def _shifted(base: GraphFacts, shift: int, shift_bar: int) -> GraphFacts:
    """base's graph with L_k moved by shift and L_k(complement) by shift_bar, k = 1..6."""
    f = GraphFacts(base.g)
    f.__dict__["profile"] = base.profile
    f._lk.update({k: base.lk(k) + shift for k in range(1, 7)})
    f._lk_bar.update({k: base.lk_bar(k) + shift_bar for k in range(1, 6)})
    return f


def _checks():
    """(id, evaluator, facts, k) for every per-graph statement on the 208 classes of
    order <= 6 and the tree classes of order <= 9, with L_k and L_k(complement) each
    shifted by -1, 0 and +1, then on the planted facts: at k = 1..5, or at its own k.
    The star K_{1,4} with L_2 = 4 > 2n/3 is planted here, not in PLANTED, because
    th-tree-deltaprime has only bound-table rows."""
    graphs = [g for n in range(1, 7) for g in enumerate_labeled_graphs(n)]
    graphs = list({labeled_class(g): g for g in reversed(graphs)}.values())
    assert len(graphs) == 208
    graphs += [t for reps in tree_classes_by_order(9) for t in reps]
    cases = [_shifted(base, s, s_bar) for base in map(GraphFacts, graphs)
             for s in (-1, 0, 1) for s_bar in (-1, 0, 1)]
    cases += [_planted(spec, **planted) for _, spec, _, planted, _ in PLANTED]
    cases.append(_planted("star:5", lk={2: 4}))
    statements = [(tid, ev) for tid, ev in REGISTRY.items() if ev.kind != "standalone"]
    assert len(statements) == 33
    for f in cases:
        for tid, ev in statements:
            for k in ((ev.k,) if ev.kind == "once" else range(1, 6)):
                yield tid, ev, f, k


def test_slack_is_negative_exactly_on_a_violation():
    violations = ties = 0
    for tid, ev, f, k in _checks():
        n, p = f.n, f.profile
        out = ev.fn(f, k)
        rows = [b for b in ev.rows if b.listed(k) and b.applies(n, p, k, f)]
        slacks = [b.slack(n, p, k, f) for b in rows]
        assert out.substantive == bool(rows), (tid, f.g, k)
        assert (out.detail is not None) == any(s < 0 for s in slacks), (tid, f.g, k)
        violations += out.detail is not None
        if out.detail is not None:
            continue
        fact = f.lk(k)
        positive = any(b.tie == "any" or b.tie == "value" and s == 0
                       or b.tie == "raw" and fact * b.den(n, p, k, f) == b.num(n, p, k, f)
                       for b, s in zip(rows, slacks))
        assert out.positive == positive, (tid, f.g, k)
        ties += out.positive
    assert violations and ties


_OPS = {"lower": "<", "upper": ">", "exact": "!="}


def test_violation_text_names_only_its_rows():
    # a violation joins, in row order and by "; ", one text per row with a negative
    # slack, built only from that row's fact name, fact, id and value: where the fact
    # breaks the value "<fact_name>=<fact> <op> <id>=<num or num/den>", and else
    # "<fact_name>=<fact> vs <id>=<num or num/den> but structural test says <held>"
    violated = set()
    for tid, ev, f, k in _checks():
        out = ev.fn(f, k)
        if out.detail is None:
            continue
        violated.add(tid)
        n, p = f.n, f.profile
        rows = [b for b in ev.rows if b.listed(k) and b.applies(n, p, k, f)]
        texts = []
        for b in (b for b in rows if b.slack(n, p, k, f) < 0):
            fact = f.lk(k) if b.fact is None else b.fact(n, p, k, f)
            _, num, den = b.value(n, p, k, f)
            name, shown = b.fact_name.format(k=k), num if b.den is None else f"{num}/{den}"
            if b.direction != "iff" and replace(b, iff=None).slack(n, p, k, f) < 0:
                texts.append(f"{name}={fact} {_OPS[b.direction]} {b.id}={shown}")
            else:
                texts.append(f"{name}={fact} vs {b.id}={shown} "
                             f"but structural test says {b.iff(n, p, k, f)}")
        assert out.detail == "; ".join(texts), (tid, f.g, k)
    # every one of the 33 per-graph statements reaches a violation text
    assert violated == {tid for tid, ev in REGISTRY.items() if ev.kind != "standalone"}


if __name__ == "__main__":
    # each planted case's id, k and violation detail, to diff across a text change
    for tid, spec, k, planted, _ in PLANTED:
        print(tid, k, _planted_outcome(tid, spec, k, planted).detail, sep="\t")
