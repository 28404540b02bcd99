"""Graph enumeration, deterministic RNG, and corpus-spec parsing."""
import os
import random
import subprocess
import sys
import time
from itertools import islice
from pathlib import Path

import pytest

import limpack.corpus as corpus_mod
from limpack import Graph, GraphFormatError, bits, emit_graph6, profile
from limpack.campaign import run_campaign
from limpack.corpus import (RejectionBudgetError,
                            enumerate_labeled_graphs, enumerate_labeled_trees,
                            enumerate_tree_classes, graph_canonical_tree_key,
                            labeled_class, parse_corpus_spec, prufer_decode,
                            random_connected, splitmix64, tree_canonical_key)
from limpack.graphs import GRAPH6_LINE_LIMIT

LABELED_COUNTS = {1: 1, 2: 2, 3: 8, 4: 64, 5: 1024, 6: 32768}
# trees of order n up to isomorphism (OEIS A000055)
TREE_CLASS_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106}


# ---------------------------------------------------------------------------
# exhaustive enumerations

def test_labeled_graph_counts():
    for n, expect in LABELED_COUNTS.items():
        assert sum(1 for _ in enumerate_labeled_graphs(n)) == expect


def test_labeled_graph_limit():
    with pytest.raises(ValueError):
        next(enumerate_labeled_graphs(8))
    for n in (0, -1):
        with pytest.raises(ValueError, match=rf"needs 1 <= n <= 7, got {n}$"):
            next(enumerate_labeled_graphs(n))
    g = next(islice(enumerate_labeled_graphs(7), 1, 2))
    assert g.n == 7 and g.edge_count() == 1


def test_labeled_tree_counts():
    # Cayley: n^(n-2) labeled trees on n vertices
    for n in range(2, 8):
        trees = list(enumerate_labeled_trees(n))
        assert len(trees) == n ** (n - 2)
        assert all(profile(t).is_tree for t in islice(trees, 0, None, 97))


def test_labeled_tree_bounds():
    with pytest.raises(ValueError):
        next(enumerate_labeled_trees(1))
    with pytest.raises(ValueError):
        next(enumerate_labeled_trees(11))


def test_prufer_decode_spot():
    edges = prufer_decode((0,), 3)
    assert sorted(tuple(sorted(e)) for e in edges) == [(0, 1), (0, 2)]
    edges = prufer_decode((3, 3, 3, 3), 6)
    g = Graph.from_edges(6, edges)
    assert g.degrees()[3] == 5          # star centred at 3


def test_prufer_decode_rejects_malformed():
    for seq, n, fault in (((-1,), 3, "entry -1 outside 0..2 for n = 3"),
                          ((7,), 3, "entry 7 outside 0..2 for n = 3"),
                          ((0, 6, 1, 4), 6, "entry 6 outside 0..5 for n = 6"),
                          ((), 1, "needs n >= 2, got n = 1"),
                          ((), 0, "needs n >= 2, got n = 0"),
                          ((0,), 2, "length 1 for n = 2, where n - 2 = 0"),
                          ((0, 0, 0), 3, "length 3 for n = 3, where n - 2 = 1")):
        with pytest.raises(ValueError, match="Pruefer") as err:
            prufer_decode(seq, n)
        assert fault in str(err.value), (seq, n)
    assert prufer_decode((), 2) == [(0, 1)]


def test_tree_class_counts():
    for n, expect in TREE_CLASS_COUNTS.items():
        reps = enumerate_tree_classes(n)
        assert len(reps) == expect
        assert all(r.n == n and profile(r).is_tree for r in reps)
        # representatives are pairwise non-isomorphic
        keys = {graph_canonical_tree_key(r) for r in reps}
        assert len(keys) == expect


def test_tree_classes_cover_all_labeled_trees():
    # AHU keys of the representatives == AHU keys over every labeled tree
    for n in range(2, 8):
        rep_keys = {graph_canonical_tree_key(r) for r in enumerate_tree_classes(n)}
        seen = {graph_canonical_tree_key(t) for t in enumerate_labeled_trees(n)}
        assert rep_keys == seen


def test_tree_canonical_key_invariance():
    a = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    b = Graph.from_edges(5, [(4, 2), (2, 0), (0, 1), (1, 3)])    # relabeled P_5
    star = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    assert graph_canonical_tree_key(a) == graph_canonical_tree_key(b)
    assert graph_canonical_tree_key(a) != graph_canonical_tree_key(star)
    adj = [list(bits(a.adj[v])) for v in range(5)]
    assert tree_canonical_key(5, adj) == graph_canonical_tree_key(a)


def string_ahu_key(n: int, adj_lists: list[list[int]]) -> str:
    """Reference AHU key: peel to the centres, then one parenthesis string per centre."""
    if n == 0:
        return ""
    if n == 1:
        return "()"
    degree = [len(a) for a in adj_lists]
    layer = [v for v in range(n) if degree[v] == 1]
    removed = 0
    alive = [True] * n
    while n - removed > 2:
        nxt = []
        for v in layer:
            alive[v] = False
            removed += 1
            for u in adj_lists[v]:
                if alive[u]:
                    degree[u] -= 1
                    if degree[u] == 1:
                        nxt.append(u)
        layer = nxt
    centers = [v for v in range(n) if alive[v]]

    def encode(root: int, block: int) -> str:
        # iterative post-order; block is the neighbour not to cross
        parent = {root: block}
        order = [root]
        idx = 0
        while idx < len(order):
            v = order[idx]
            idx += 1
            for u in adj_lists[v]:
                if u != parent[v]:
                    parent[u] = v
                    order.append(u)
        label = {}
        for v in reversed(order):
            kids = sorted(label[u] for u in adj_lists[v] if parent.get(u) == v and u != parent[v])
            label[v] = "(" + "".join(kids) + ")"
        return label[root]

    if len(centers) == 1:
        return encode(centers[0], -1)
    a, b = centers
    return "".join(sorted((encode(a, b), encode(b, a))))


def test_tree_key_partition_matches_string_ahu():
    # the integer key and the string key split every labeled tree alike
    for n in range(1, 8):
        trees = [Graph.empty(1)] if n == 1 else enumerate_labeled_trees(n)
        pairs = set()
        for t in trees:
            adj = [list(bits(nb)) for nb in t.adj]
            pairs.add((tree_canonical_key(n, adj), string_ahu_key(n, adj)))
        keys, references = zip(*pairs)
        assert len(set(keys)) == len(set(references)) == len(pairs) == TREE_CLASS_COUNTS[n]


def shuffled_adjacency(g: Graph, rng: random.Random) -> list[list[int]]:
    """Neighbour lists of g under a random relabeling, each in random order."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges():
        adj[perm[u]].append(perm[v])
        adj[perm[v]].append(perm[u])
    for nbrs in adj:
        rng.shuffle(nbrs)
    return adj


def test_tree_key_matches_string_ahu_on_relabeled_classes():
    # every tree class to order 13, three relabelings each: one key per class,
    # distinct within and across orders
    rng = random.Random(1701)
    counts = {**TREE_CLASS_COUNTS, 11: 235, 12: 551, 13: 1301}
    every_key = set()
    for n in range(1, 14):
        keys, references = set(), set()
        for rep in enumerate_tree_classes(n):
            seen = set()
            for _ in range(3):
                adj = shuffled_adjacency(rep, rng)
                seen.add((tree_canonical_key(n, adj), string_ahu_key(n, adj)))
            assert len(seen) == 1, emit_graph6(rep)
            (key, reference), = seen
            keys.add(key)
            references.add(reference)
        assert len(keys) == len(references) == counts[n]
        every_key |= keys
    assert len(every_key) == sum(counts.values())


def test_tree_key_rejects_exactly_the_disconnected():
    # n - 1 edges make a tree exactly when they connect all n vertices
    rng = random.Random(1702)
    outcomes = {True: 0, False: 0}
    for n in range(3, 13):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for _ in range(150):
            g = Graph.from_edges(n, rng.sample(pairs, n - 1))
            adj = shuffled_adjacency(g, rng)
            connected = profile(g).connected
            outcomes[connected] += 1
            if connected:
                assert tree_canonical_key(n, adj) == graph_canonical_tree_key(g)
            else:
                with pytest.raises(ValueError,
                                   match="not a tree: (it is disconnected|the leaf peel stalls)"):
                    tree_canonical_key(n, adj)
    assert min(outcomes.values()) > 300


def test_tree_classes_independent_of_key(monkeypatch):
    # representatives and their order depend only on the partition the key induces
    ours = {n: [emit_graph6(g) for g in enumerate_tree_classes(n)] for n in TREE_CLASS_COUNTS}
    monkeypatch.setattr(corpus_mod, "graph_canonical_tree_key",
                        lambda g: string_ahu_key(g.n, [list(bits(nb)) for nb in g.adj]))
    for n, reps in ours.items():
        assert [emit_graph6(g) for g in enumerate_tree_classes(n)] == reps


def test_tree_classes_order_independent_of_keying_history():
    # interned codes depend on what the process keyed first; the corpus must not
    code = ("from limpack import emit_graph6\n"
            "from limpack.corpus import enumerate_tree_classes\n"
            "print(' '.join(emit_graph6(g) for g in enumerate_tree_classes(9)))\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    fresh = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env=env, timeout=120, check=True).stdout.split()
    rng = random.Random(2024)
    for _ in range(1000):
        n = rng.randint(2, 40)
        seq = tuple(rng.randrange(n) for _ in range(n - 2))
        graph_canonical_tree_key(Graph.from_edges(n, prufer_decode(seq, n)))
    assert [emit_graph6(g) for g in enumerate_tree_classes(9)] == fresh
    assert len(fresh) == TREE_CLASS_COUNTS[9]


def test_tree_key_rejects_non_trees_fast():
    cycle = [(v, (v + 1) % 32) for v in range(32)]
    path = [(v, v + 1) for v in range(32, 63)]
    cases = [
        (4, [(0, 1), (1, 2), (2, 3), (3, 0)], "4 edges on 4 vertices, where a tree has 3"),  # C_4
        (4, [(0, 1), (1, 2), (2, 0), (2, 3)], "4 edges on 4 vertices"),  # cycle with a pendant
        (4, [(0, 1), (2, 3)], "2 edges on 4 vertices"),                  # two-edge forest
        (2, [], "0 edges on 2 vertices, where a tree has 1"),
        # n - 1 edges: the peel has to find the fault
        (5, [(0, 1), (1, 2), (2, 0), (3, 4)], "disconnected"),          # triangle and an edge
        (4, [(0, 1), (1, 2), (2, 0)], "stalls with 4 vertices left"),    # triangle and a vertex
        (64, cycle + path, "disconnected"),                              # C_32 and P_32
        # C_32 with a pendant path, and K_1
        (64, cycle + [(0, 32)] + path[:-1], "stalls with 33 vertices left"),
    ]
    for n, edges, message in cases:
        g = Graph.from_edges(n, edges)
        adj = [list(bits(nb)) for nb in g.adj]
        for call in (lambda: graph_canonical_tree_key(g), lambda: tree_canonical_key(n, adj)):
            t0 = time.perf_counter()
            with pytest.raises(ValueError, match="not a tree: .*" + message):
                call()
            assert time.perf_counter() - t0 < 0.05, edges


# graphs of order n up to isomorphism (OEIS A000088)
GRAPH_CLASS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}


def test_labeled_class_counts():
    for n, expect in GRAPH_CLASS_COUNTS.items():
        assert len({labeled_class(g) for g in enumerate_labeled_graphs(n)}) == expect
    assert labeled_class(Graph.empty(7)) is None


def test_labeled_class_matches_atlas():
    nx = pytest.importorskip("networkx")
    atlas = [Graph.from_edges(h.number_of_nodes(), h.edges())
             for h in nx.graph_atlas_g() if 1 <= h.number_of_nodes() <= 6]
    assert len(atlas) == 208
    keys = [labeled_class(g) for g in atlas]
    assert len(set(keys)) == 208
    for seed, (g, key) in enumerate(zip(atlas, keys)):
        rng = random.Random(seed)
        for _ in range(3):
            perm = list(range(g.n))
            rng.shuffle(perm)
            relabeled = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
            assert labeled_class(relabeled) == key


def test_labeled_class_limit_bounded(monkeypatch):
    def refuse(n):
        raise AssertionError(f"an orbit table of order {n} was built")
    monkeypatch.setattr(corpus_mod, "_class_table", refuse)
    g = Graph.empty(8)
    t0 = time.perf_counter()
    for limit in (8, 9, 64):
        with pytest.raises(ValueError, match=f"limit {limit} above 7"):
            labeled_class(g, limit)
    assert time.perf_counter() - t0 < 0.05


def per_mask_graph(n: int, mask: int) -> Graph:
    """The reference builder: every edge position of mask set on its own."""
    adj = [0] * n
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if mask >> pos & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            pos += 1
    return Graph(n, adj)


def assert_same_build(g: Graph, n: int, mask: int) -> None:
    ref = per_mask_graph(n, mask)
    built = Graph.from_edge_mask(n, mask)
    assert (g.n, g.adj, g.closed) == (ref.n, ref.adj, ref.closed) == \
        (built.n, built.adj, built.closed)
    assert g.edge_mask() == ref.edge_mask() == built.edge_mask() == mask


def test_incremental_enumeration_matches_per_mask_builder():
    for n in range(1, 7):
        count = 0
        for mask, g in enumerate(enumerate_labeled_graphs(n)):
            assert_same_build(g, n, mask)
            count = mask + 1
        assert count == 1 << n * (n - 1) // 2
    sample = set(random.Random(7).sample(range(1 << 21), 3000)) | {0, 1, (1 << 21) - 1}
    for mask, g in enumerate(enumerate_labeled_graphs(7)):
        assert g.edge_mask() == mask
        if mask in sample:
            assert_same_build(g, 7, mask)


@pytest.mark.slow
def test_labeled_class_order7_matches_atlas():
    nx = pytest.importorskip("networkx")
    keys = {labeled_class(g, 7) for g in enumerate_labeled_graphs(7)}
    assert len(keys) == 1044
    atlas = [Graph.from_edges(7, h.edges()) for h in nx.graph_atlas_g() if h.number_of_nodes() == 7]
    assert len(atlas) == 1044
    assert {labeled_class(g, 7) for g in atlas} == keys

    class Order7(list):                      # a corpus keyed like all_labeled(7)
        class_limit = 7
    path = Graph.from_edges(7, [(v, v + 1) for v in range(6)])
    perm = [3, 5, 0, 6, 1, 4, 2]
    relabeled = Graph.from_edges(7, [(perm[u], perm[v]) for u, v in path.edges()])
    report = run_campaign(["cor-diam-le-2"], Order7([path, relabeled]), [1])
    assert (report.classes_evaluated, report.class_hits) == (1, 1)


def test_order7_table_only_for_all_labeled_7(monkeypatch):
    assert parse_corpus_spec("all_labeled(7)").class_limit == 7
    for spec in ("all_labeled(6)+trees(<=9)", "trees(<=9)+random_connected(n=7..8,5,seed=1)",
                 "all_labeled(3)"):
        assert parse_corpus_spec(spec).class_limit == 6
    built = []
    real = corpus_mod._class_table
    monkeypatch.setattr(corpus_mod, "_class_table", lambda n: built.append(n) or real(n))
    report = run_campaign(["cor-diam-le-2"], parse_corpus_spec("all_labeled(3)+trees(<=8)"), [1])
    assert report.graphs == 1 + 2 + 8 + sum(TREE_CLASS_COUNTS[n] for n in range(2, 9))
    assert built and 7 not in built         # trees of order 7 and 8 run graph by graph


# ---------------------------------------------------------------------------
# deterministic RNG

def test_splitmix64_reference_vectors():
    gen = splitmix64(0)
    assert next(gen) == 16294208416658607535
    assert next(gen) == 7960286522194355700
    assert next(gen) == 487617019471545679


def test_random_connected_reproducible():
    a = list(random_connected(9, 25, seed=7))
    b = list(random_connected(9, 25, seed=7))
    assert len(a) == 25
    assert a == b
    assert all(profile(g).connected and g.n == 9 for g in a)
    c = list(random_connected(9, 25, seed=8))
    assert a != c


def test_random_connected_edge_prob():
    sparse = list(random_connected(10, 20, seed=3, edge_prob=0.25))
    dense = list(random_connected(10, 20, seed=3, edge_prob=0.9))
    avg = lambda gs: sum(g.edge_count() for g in gs) / len(gs)
    assert avg(sparse) < avg(dense)


def test_random_connected_budget():
    with pytest.raises(RejectionBudgetError):
        list(random_connected(16, 5, seed=1, edge_prob=0.01, budget=50))
    with pytest.raises(ValueError):
        list(random_connected(1, 5, seed=1))
    with pytest.raises(ValueError):
        list(random_connected(17, 5, seed=1))


# ---------------------------------------------------------------------------
# corpus spec grammar

def test_corpus_labeled_plus_trees():
    corpus = parse_corpus_spec("all_labeled(3)+trees(<=5)")
    graphs = list(corpus)
    # every labeled graph on 1..3 vertices, then tree classes on 2..5 vertices
    assert len(graphs) == (1 + 2 + 8) + (1 + 1 + 2 + 3)
    assert [g.n for g in graphs] == sorted(g.n for g in graphs[:11]) + [2, 3, 4, 4, 5, 5, 5]
    assert corpus.spec == "all_labeled(3)+trees(<=5)"


def test_corpus_trees_in_one_pass_match_per_order_classes():
    # one incremental build over the orders yields each order's enumerate_tree_classes
    expected = [emit_graph6(g) for n in range(2, 11) for g in enumerate_tree_classes(n)]
    assert [emit_graph6(g) for g in parse_corpus_spec("trees(<=10)")] == expected
    assert len(expected) == sum(TREE_CLASS_COUNTS[n] for n in range(2, 11))


def test_corpus_trees_unicode_le():
    assert [g.n for g in parse_corpus_spec("trees(≤4)")] == [2, 3, 4, 4]


def test_corpus_random_range():
    corpus = parse_corpus_spec("random_connected(n=5..7,9,seed=11)")
    orders = [g.n for g in corpus]
    assert orders == [5, 5, 5, 6, 6, 6, 7, 7, 7]
    again = [g.n for g in parse_corpus_spec("random_connected(n=5..7,9,seed=11)")]
    assert orders == again


def test_corpus_random_single_order_and_remainder():
    corpus = parse_corpus_spec("random_connected(n=6..8,10,seed=2)")
    orders = [g.n for g in corpus]
    assert len(orders) == 10
    assert orders == sorted(orders)
    assert {o: orders.count(o) for o in (6, 7, 8)} == {6: 4, 7: 3, 8: 3}
    # fewer graphs than orders: the lowest orders get one each
    assert [g.n for g in parse_corpus_spec("random_connected(n=5..9,2,seed=2)")] == [5, 6]


def test_corpus_default_seed():
    filled = parse_corpus_spec("random_connected(n=5..5,4)", default_seed=99)
    explicit = parse_corpus_spec("random_connected(n=5..5,4,seed=99)")
    assert [emit_graph6(g) for g in filled] == [emit_graph6(g) for g in explicit]
    with pytest.raises(ValueError):
        parse_corpus_spec("random_connected(n=5..5,4)")


def test_corpus_file_term(tmp_path):
    path = tmp_path / "batch.g6"
    path.write_text(">>graph6<<BW\n\nA_\nDhC\n")
    corpus = parse_corpus_spec(f"file({path})")
    assert [g.n for g in corpus] == [3, 2, 5]


def test_corpus_file_lines_bounded_and_numbered(tmp_path):
    path = tmp_path / "batch.g6"
    # the longest valid line: header, extended order and 336 body bytes
    longest = ">>graph6<<" + emit_graph6(Graph.from_edge_mask(64, (1 << 2016) - 1))
    assert len(longest) == GRAPH6_LINE_LIMIT == 350
    path.write_text(f"{longest}\r\n\n  BW \n")
    assert [g.n for g in parse_corpus_spec(f"file({path})")] == [64, 3]
    for lines, lineno, message in (
            (["BW", "", "B!"], 3, "byte 33 outside graph6 range 63..126 (byte 1)"),
            (["BW", "Dé"], 2, "byte 195 outside graph6 range 63..126 (byte 1)"),
            (["BW", ">>graph6<<"], 2, "empty graph6 input (byte 0)"),
            (["BW", longest + " "], 2, "longer than 350 bytes"),
            (["BW", "?" * 5000, "BW"], 2, "longer than 350 bytes")):
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(GraphFormatError) as err:
            list(parse_corpus_spec(f"file({path})"))
        assert str(err.value) == f"{path} line {lineno}: {message}"


def test_corpus_spec_errors():
    for bad in ("", "all_labeled()", "all_labeled(3", "trees()",
                "random_connected(100,seed=1)", "bogus(3)",
                "random_connected(n=9..8,5,seed=1)",
                # bounds are checked when parsed, before any graph is built
                "all_labeled(0)", "all_labeled(8)", "trees(<=1)", "trees(≤11)",
                "random_connected(n=1..5,5,seed=1)", "random_connected(n=8..20,5,seed=1)",
                "random_connected(n=5..6,0,seed=1)", "random_connected(n=5..6,5,seed=1,p=0)",
                "random_connected(n=5..6,5,seed=1,p=1.5)"):
        with pytest.raises(ValueError):
            parse_corpus_spec(bad)


def test_corpus_single_order_shorthand():
    # n=8 with no range means lo == hi == 8
    orders = [g.n for g in parse_corpus_spec("random_connected(n=8,5,seed=1)")]
    assert orders == [8] * 5
