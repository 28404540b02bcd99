"""Acceptance gate: nine independent criteria, one printed verdict line each.

Every test prints "ACCEPTANCE <n> <name>: PASS|FAIL" on the live terminal
(bypassing capture) before asserting, so the gate summary is always visible
in a plain pytest run.
"""
import hashlib
import json
import time
from itertools import product

import pytest

from limpack import (Graph, closed_form, complement, construct_diam2,
                     construct_family, construct_tree_prescribed, disjoint_union,
                     domination_number, limited_packing_number,
                     limited_packing_oracle, open_packing_number, profile,
                     total_domination_number)
from limpack.cli import main as cli_main
from limpack.corpus import (enumerate_labeled_graphs, parse_corpus_spec,
                            prufer_decode, tree_canonical_key)

CAMPAIGN_ARGV = ["verify", "--theorems", "all",
                 "--corpus", "all_labeled(6)+trees(≤9)+random_connected(n=8..12,1000,seed=42)",
                 "--k", "1..3"]
# SHA-256 of the reference campaign report; any change to it must be deliberate
REPORT_SHA256 = "548e58d17a980a04985ae09e43dabfb37b2c03a8833cc3ca9057a2e42a902df2"


def verdict(capsys, num, name, ok, detail=""):
    with capsys.disabled():
        print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="session")
def campaign_run(tmp_path_factory):
    """One full campaign over the reference corpus, shared by criteria 3, 4, 9."""
    path = tmp_path_factory.mktemp("acceptance") / "report1.json"
    t0 = time.monotonic()
    rc = cli_main(CAMPAIGN_ARGV + ["--json", str(path)])
    elapsed = time.monotonic() - t0
    return rc, path, elapsed


def test_criterion_1_closed_forms(capsys):
    """Subset oracle agrees with every closed formula on the named families."""
    t0 = time.monotonic()
    bad = []
    cases = []
    for n in range(3, 13):
        cases.append(("path", n, construct_family("path", n)))
        cases.append(("cycle", n, construct_family("cycle", n)))
    for n in range(1, 11):
        cases.append(("complete", n, construct_family("complete", n)))
    for m in range(1, 10):
        for n in range(m, 11 - m):
            cases.append(("complete_bipartite", (m, n),
                          construct_family("complete_bipartite", (m, n))))
    for family, size, g in cases:
        for k in (1, 2, 3, 4):
            expect = closed_form(family, size, k)
            got = limited_packing_oracle(g, k).value
            if got != expect:
                bad.append((family, size, k, got, expect))
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 10.0
    verdict(capsys, 1, "closed-form-families", ok,
            f"mismatches={bad[:5]} elapsed={elapsed:.1f}s")


def test_criterion_2_oracle_vs_bb_order6(capsys):
    """Oracle and branch-and-bound agree on all 32768 labeled graphs, n=6."""
    t0 = time.monotonic()
    bad = []
    count = 0
    for g in enumerate_labeled_graphs(6):
        count += 1
        for k in (1, 2, 3):
            a = limited_packing_oracle(g, k).value
            b = limited_packing_number(g, k, method="bb").value
            if a != b:
                bad.append((g.edges(), k, a, b))
    elapsed = time.monotonic() - t0
    ok = count == 32768 and not bad and elapsed < 300.0
    verdict(capsys, 2, "oracle-vs-bb-order6", ok,
            f"count={count} mismatches={bad[:3]} elapsed={elapsed:.1f}s")


def test_criterion_3_full_campaign(capsys, campaign_run):
    """Every registered statement holds over the reference corpus."""
    rc, path, elapsed = campaign_run
    data = json.loads(path.read_text())
    failures = [v["theorem_id"] for v in data["verdicts"] if v["status"] == "fail"]
    total_violations = sum(len(v["violations"]) for v in data["verdicts"])
    ok = (rc == 0 and len(data["verdicts"]) == 39 and not failures
          and total_violations == 0 and elapsed < 1800.0)
    verdict(capsys, 3, "full-campaign-zero-violations", ok,
            f"rc={rc} failures={failures} violations={total_violations} "
            f"elapsed={elapsed:.0f}s")


def test_criterion_4_characterizations_substantive(capsys, campaign_run):
    """The four characterizations each pass with at least 50 positive cases."""
    _, path, _ = campaign_run
    data = json.loads(path.read_text())
    by_id = {v["theorem_id"]: v for v in data["verdicts"]}
    bad = []
    for tid in ("th-lk-eq-k-characterization", "cor-classG",
                "th-spider-characterization", "th-classT-characterization"):
        v = by_id.get(tid)
        if v is None or v["status"] != "pass" or v["positive_cases"] < 50 \
                or v["violations"]:
            bad.append((tid, v and v["status"], v and v["positive_cases"]))
    verdict(capsys, 4, "characterizations-substantive", not bad, f"bad={bad}")


def test_criterion_5_constructions(capsys):
    """Certified witnesses: diameter-2 graphs and trees with prescribed values."""
    t0 = time.monotonic()
    bad = []
    for a in range(2, 7):
        g = construct_diam2(a)
        method = "bb" if g.n > 12 else "auto"
        if profile(g).diameter != 2:
            bad.append(("diam2", a, "diameter"))
        if limited_packing_number(g, 2, method=method).value != a:
            bad.append(("diam2", a, "L2"))
    bb_elapsed = time.monotonic() - t0
    pairs = [(a, b) for a in range(2, 6) for b in range(a + 1, 2 * a + 1)]
    pairs.append((8, 12))
    for a, b in pairs:
        g = construct_tree_prescribed(a, b)
        got = (open_packing_number(g).value,
               limited_packing_number(g, 1).value,
               limited_packing_number(g, 2).value)
        if got != (a, a, b):
            bad.append(("prescribed", (a, b), got))
    ok = not bad and bb_elapsed < 60.0
    verdict(capsys, 5, "certified-constructions", ok,
            f"bad={bad} diam2_elapsed={bb_elapsed:.1f}s")


def test_criterion_6_complement_sum_extremes(capsys):
    """Named families attain the graph-plus-complement bounds exactly."""
    bad = []
    for n in range(3, 9):
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if (u, v) != (0, 1)]
        g = Graph.from_edges(n, edges)
        total = (limited_packing_number(g, 1).value
                 + limited_packing_number(complement(g), 1).value)
        if total != n:
            bad.append(("K_n-e", n, total))
    g = Graph.from_edges(3, [(0, 1)])            # K_2 + K_1, complement is P_3
    total = (limited_packing_number(g, 2).value
             + limited_packing_number(complement(g), 2).value)
    if total != 5:
        bad.append(("K2+K1", 2, total))
    g = construct_family("complete", 2)
    total = (limited_packing_number(g, 2).value
             + limited_packing_number(complement(g), 2).value)
    if total != 4:
        bad.append(("K2", 2, total))
    verdict(capsys, 6, "complement-sum-extremes", not bad, f"bad={bad}")


@pytest.mark.slow
def test_criterion_7_tree_identities_exhaustive(capsys):
    """L_1 = domination and open packing = total domination on every labeled
    tree with at most 9 vertices.

    All n^(n-2) Pruefer sequences per order are decoded. The four parameters
    are isomorphism invariants, so each canonical (AHU) key is solved once and
    reused; every labeled tree is still enumerated and classified, and the
    per-order class counts are cross-checked against the known values.
    """
    t0 = time.monotonic()
    known_class_counts = {2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47}
    checked = {}
    bad = []
    tree_count = 0
    for n in range(2, 10):
        per_order = set()
        seqs = [()] if n == 2 else product(range(n), repeat=n - 2)
        for seq in seqs:
            tree_count += 1
            edges = prufer_decode(seq, n)
            adj = [[] for _ in range(n)]
            for u, v in edges:
                adj[u].append(v)
                adj[v].append(u)
            key = tree_canonical_key(n, adj)
            per_order.add(key)
            if key in checked:
                continue
            g = Graph.from_edges(n, edges)
            holds = (limited_packing_number(g, 1).value
                     == domination_number(g).value
                     and open_packing_number(g).value
                     == total_domination_number(g).value)
            checked[key] = holds
            if not holds:
                bad.append((n, edges))
        if len(per_order) != known_class_counts[n]:
            bad.append((n, "class count", len(per_order)))
    elapsed = time.monotonic() - t0
    expect_total = sum(n ** (n - 2) for n in range(2, 10))
    ok = not bad and tree_count == expect_total and all(checked.values())
    verdict(capsys, 7, "tree-identities-exhaustive", ok,
            f"trees={tree_count} classes={len(checked)} bad={bad[:3]} "
            f"elapsed={elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_8_random_invariants(capsys):
    """Saturation, strict growth in k, and additivity on 10000 random graphs.

    All values come from the subset oracle. Saturation is checked at the
    boundary (k equal to the maximum degree and one above); together with
    monotonicity of L_k in k that settles L_k = n exactly when k exceeds
    every degree. Growth is checked at k in {1, 2} (and implicitly at the
    boundary, where L jumps from below n to n). Additivity pairs consecutive
    corpus graphs whose union still fits the oracle.
    """
    t0 = time.monotonic()
    bad = []
    count = 0
    prev = None            # (graph, L1, L2) kept for the additivity pairing
    for g in parse_corpus_spec("random_connected(n=2..12,10000,seed=42)"):
        count += 1
        dmax = max(g.degrees())
        vals = {1: limited_packing_oracle(g, 1).value,
                2: limited_packing_oracle(g, 2).value}
        if dmax >= 2:
            vals[3] = limited_packing_oracle(g, 3).value
        for k in (1, 2):
            if k <= dmax and vals[k + 1] < vals[k] + 1:
                bad.append(("chain", g.edges(), k))
        for k in (dmax, dmax + 1):
            if k not in vals:
                vals[k] = limited_packing_oracle(g, k).value
        if not (vals[dmax] < g.n and vals[dmax + 1] == g.n):
            bad.append(("saturation", g.edges(), dmax))
        if prev is not None and prev[0].n + g.n <= 12:
            u = disjoint_union(prev[0], g)
            for k in (1, 2):
                if limited_packing_oracle(u, k).value != prev[k] + vals[k]:
                    bad.append(("additivity", (prev[0].edges(), g.edges()), k))
            prev = None    # disjoint consecutive pairs
        else:
            prev = (g, vals[1], vals[2])
    elapsed = time.monotonic() - t0
    ok = count == 10000 and not bad
    verdict(capsys, 8, "random-graph-invariants", ok,
            f"count={count} bad={bad[:3]} elapsed={elapsed:.0f}s")


def test_criterion_9_reproducible_reports(capsys, campaign_run, tmp_path):
    """Two runs of the full campaign emit byte-identical JSON."""
    _, first_path, _ = campaign_run
    second_path = tmp_path / "report2.json"
    rc = cli_main(CAMPAIGN_ARGV + ["--json", str(second_path)])
    same = first_path.read_bytes() == second_path.read_bytes()
    digest = hashlib.sha256(first_path.read_bytes()).hexdigest()
    verdict(capsys, 9, "reproducible-reports", rc == 0 and same and digest == REPORT_SHA256,
            f"rc={rc} identical={same} sha256={digest}")
