"""Verification-campaign registry, report shape, and violation handling."""
import json

import pytest

import limpack.bounds as bounds_mod
import limpack.campaign as campaign_mod
from limpack import Graph, build_from_spec, emit_graph6, profile
from limpack.campaign import (ALL_THEOREM_IDS, REGISTRY, SKIP, Evaluator, GraphFacts,
                              Outcome, replay_violation, run_campaign)
from limpack.corpus import labeled_class, parse_corpus_spec

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


def test_injected_failure_and_replay():
    registry = dict(REGISTRY)
    registry["fake-id"] = Evaluator(
        "once", fn=lambda facts: Outcome(True, False, "always broken"))
    corpus = parse_corpus_spec("all_labeled(2)")
    report = run_campaign(["fake-id", "lem-kgamma"], corpus, (1,), registry=registry)
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
    out = replay_violation("fake-id", first["graph6"], registry=registry)
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
                               "detail": "path n=1: oracle=1, formula=2"}


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
    for tid in ("lem-kgamma", "th-girth-l2-lk", "lem-monotone-chain"):
        for k in (0, -1):
            with pytest.raises(ValueError, match=rf"^k must be >= 1, got {k}$"):
                replay_violation(tid, "DhC", k)


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


def test_multiplicity_tally_matches_graph_by_graph():
    registry = dict(REGISTRY)
    registry["planted-once"] = Evaluator("once", fn=_four_edges)
    registry["planted-per-k"] = Evaluator("per_k", fn=_four_edges)
    ids = ["planted-once", "planted-per-k", "lem-kgamma", "th-ng-upper", "cor-classG",
           "lem-monotone-chain"]
    spec = "all_labeled(5)+trees(<=7)+random_connected(n=7..8,6,seed=3)"
    ks = (1, 2, 3)
    report = run_campaign(ids, parse_corpus_spec(spec), ks, registry=registry)
    # the reference: every graph evaluated and tallied on its own
    expect = {tid: {"theorem_id": tid, "graphs_checked": 0, "substantive_checks": 0,
                    "positive_cases": 0, "violations": []} for tid in ids}
    for g in parse_corpus_spec(spec):
        facts = GraphFacts(g)
        for tid in ids:
            ev = registry[tid]
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
    def refuse(g, k):
        raise AssertionError("the subset oracle was called")
    monkeypatch.setattr(campaign_mod.solvers, "limited_packing_oracle", refuse)
    ids = [tid for tid, ev in REGISTRY.items() if ev.kind != "standalone"]
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


def test_repeated_rows_without_class_key_match_graph_by_graph():
    # order 8 is above every class limit, so each graph is evaluated; the
    # second copy and the relabeling repeat the first one's rows
    registry = dict(REGISTRY)
    registry["planted-per-k"] = Evaluator("per_k", fn=_nine_edges_at_k2)
    ids = ["planted-per-k", "lem-kgamma", "th-ng-upper", "cor-classG", "th-girth-l1"]
    g = Graph.from_edges(8, [(i, (i + 1) % 8) for i in range(8)] + [(0, 4)])
    perm = [3, 7, 0, 5, 1, 6, 2, 4]
    relabeled = Graph.from_edges(8, [(perm[u], perm[v]) for u, v in g.edges()])
    path = Graph.from_edges(8, [(i, i + 1) for i in range(7)])
    corpus = [g, path, g, relabeled]
    assert labeled_class(g) is None and emit_graph6(relabeled) != emit_graph6(g)
    ks = (1, 2, 3)
    report = run_campaign(ids, corpus, ks, registry=registry, corpus_spec="planted")
    expect = {tid: {"theorem_id": tid, "graphs_checked": 0, "substantive_checks": 0,
                    "positive_cases": 0, "violations": []} for tid in ids}
    for h in corpus:
        facts = GraphFacts(h)
        for tid in ids:
            ev = registry[tid]
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
# each hand-written evaluator's violation branch, reached by one planted fact

def _planted(spec: str, lk=None, lk_bar=None, **values) -> GraphFacts:
    """GraphFacts of a built graph with some values set before any is solved:
    lk and lk_bar seed the per-k caches, values the cached gamma, rho0 or gamma_t."""
    f = GraphFacts(build_from_spec(spec))
    f._lk.update(lk or {})
    f._lk_bar.update(lk_bar or {})
    f.__dict__.update(values)
    return f


PLANTED = [  # id, graph, k (None: a once evaluator), planted facts, violation detail
    ("lem-monotone-chain", "path:3", 1, {"lk": {2: 1}}, "L_2=1 < L_1+1=2"),
    ("lem-monotone-chain", "path:3", 2, {"lk": {2: 1}}, "L_2=1 < L_1+k-1=2"),
    ("th-lk-eq-k-characterization", "cycle:5", 2, {"lk": {2: 2}},
     "L_2=2 but structural test says False"),
    ("cor-diam-le-2", "path:4", 1, {"lk": {1: 1}}, "L_1=k on order 4 but diameter=3"),
    ("cor-regular-half", "cycle:5", 1, {"lk": {1: 3}},
     "2-regular with L_1=n+k-1-d but 2d=4 < n=5"),
    ("prop-ng-lower", "path:3", 2, {"lk": {2: 1}, "lk_bar": {2: 1}},
     "L_2(G)+L_2(complement)=2 < 2k=4"),
    ("prop-ng-lower", "path:3", 1, {"lk_bar": {1: 1}},
     "sum=2 vs 2k=2, structural equality condition=False"),
    ("th-ng-upper", "path:3", 2, {"lk": {2: 3}}, "L_2(G)+L_2(complement)=6 > mixed bound=5"),
    ("lem-ng-l2-n-plus-2", "path:3", None, {"lk": {2: 3}}, "L_2(G)+L_2(complement)=6 > n+2=5"),
    ("lem-l1-eq-1-iff-diam2", "path:3", None, {"lk": {1: 2}}, "L_1=2 but diameter=2"),
    ("lem-open-packing-diam2", "path:3", None, {"rho0": 3}, "rho0=3 > 2 at diameter=2"),
    ("lem-rho-eq-gammat-trees", "path:3", None, {"rho0": 3}, "tree with rho0=3 != gamma_t=2"),
    ("lem-l1-eq-gamma-trees", "path:3", None, {"gamma": 2}, "tree with L_1=1 != gamma=2"),
    ("cor-classG", "path:3", None, {"lk": {2: 3}}, "L_2=3 vs n+1-max_degree=2, witness found"),
    ("prop-l1-l2-sandwich", "path:3", None, {"lk": {2: 1}}, "L_2=1 < L_1+1=2"),
    ("prop-l1-l2-sandwich", "path:3", None, {"lk": {2: 6}},
     "L_2=6 exceeds 2(max_degree^2+1)L_1/(min_degree+1)=10/2"),
    ("th-spider-characterization", "path:5", None, {"lk": {2: 5}},
     "L_2=5 outside [L_1+1, 2L_1]=[3, 4]"),
    ("th-spider-characterization", "path:4", None, {"lk": {2: 4}},
     "L_2-L_1=2 but spider-below-max-degree=True"),
    ("th-spider-characterization", "path:4", None, {"lk": {2: 5}},
     "L_2=5 outside [L_1+1, 2L_1]=[3, 4]; L_2-L_1=3 but spider-below-max-degree=True"),
    ("th-classT-characterization", "path:4", None, {"lk": {2: 5}},
     "L_2=5 outside [rho0, 2*rho0]=[2, 4]"),
    ("th-classT-characterization", "path:3", None, {"lk": {2: 3}},
     "rho0=2, L_2=3 but witness found"),
    ("th-classT-characterization", "path:3", None, {"lk": {2: 5}},
     "L_2=5 outside [rho0, 2*rho0]=[2, 4]; rho0=2, L_2=5 but witness found"),
]


@pytest.mark.parametrize("tid, spec, k, planted, detail", PLANTED)
def test_planted_fact_reaches_violation_branch(tid, spec, k, planted, detail):
    # a campaign finds a bug only through these branches: one wrong solver value
    # must surface as a substantive outcome with its detail
    evaluate = REGISTRY[tid].fn
    args = () if k is None else (k,)
    assert evaluate(_planted(spec), *args).detail is None
    out = evaluate(_planted(spec, **planted), *args)
    assert out.substantive and out.detail == detail


def test_planted_cases_cover_every_hand_written_evaluator():
    hand_written = {tid for tid, ev in REGISTRY.items()
                    if ev.kind != "standalone" and ev.fn.__name__.startswith("_ev_")}
    assert {case[0] for case in PLANTED} == hand_written
