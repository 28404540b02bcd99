"""Extremal-family recognizers and certified constructions."""
import random
import re
from itertools import combinations, product

import pytest

from limpack import (Graph, bits, build_from_spec, check_Lk_equals_k,
                     construct_comb, construct_diam2, construct_family,
                     construct_spider, construct_tree_prescribed,
                     domination_number, is_spider_below_max_degree,
                     limited_packing_number, limited_packing_oracle,
                     open_packing_number, profile, recognize_class_G,
                     recognize_class_T, recognize_spider, spider_shapes)
from limpack.corpus import (enumerate_labeled_graphs, enumerate_labeled_trees,
                            enumerate_tree_classes, prufer_decode, random_connected)
from limpack.extremal import ClassGWitness, SpiderShape, _class_t_witness_ok
from limpack.graphs import mask_of


def l(g, k):
    return limited_packing_number(g, k).value


# ---------------------------------------------------------------------------
# graphs with L_k == k

def test_lk_eq_k_examples():
    assert check_Lk_equals_k(construct_family("complete", 4), 2)
    assert check_Lk_equals_k(construct_family("cycle", 4), 1)
    assert not check_Lk_equals_k(construct_family("cycle", 6), 1)
    assert check_Lk_equals_k(construct_family("complete", 3), 3)        # n == k
    assert not check_Lk_equals_k(construct_family("path", 4), 3)        # n == k+1, max degree 2
    assert check_Lk_equals_k(construct_family("star", 4), 3)


def test_lk_eq_k_matches_solver_exhaustive():
    for n in range(1, 6):
        for g in enumerate_labeled_graphs(n):
            for k in (1, 2, 3):
                assert check_Lk_equals_k(g, k) == (limited_packing_oracle(g, k).value == k), \
                    (g.edges(), k)


def test_lk_eq_k_matches_solver_random():
    for n in (7, 8, 9):
        for g in random_connected(n, 30, seed=500 + n):
            for k in (1, 2, 3):
                assert check_Lk_equals_k(g, k) == (limited_packing_oracle(g, k).value == k)


# ---------------------------------------------------------------------------
# the L_2 == n + 1 - max_degree family

def test_class_g_members():
    k2 = construct_family("complete", 2)
    assert recognize_class_G(k2) is not None
    star5 = construct_family("star", 5)
    w = recognize_class_G(star5)
    assert w is not None
    # witness really is a cover with the stated overlap
    assert (w.a0 | w.b0) == star5.full_mask
    assert (w.a0 & w.b0).bit_count() == 2


def test_class_g_non_members():
    assert recognize_class_G(construct_family("cycle", 6)) is None
    assert recognize_class_G(construct_family("path", 6)) is None
    assert recognize_class_G(Graph.empty(1)) is None


def test_class_g_matches_semantic_exhaustive():
    for n in range(1, 6):
        for g in enumerate_labeled_graphs(n):
            member = recognize_class_G(g) is not None
            semantic = l(g, 2) == g.n + 1 - max(g.degrees(), default=0)
            assert member == semantic, g.edges()


def class_g_witness_ok(g: Graph, a0: int, b0: int) -> bool:
    """Whether (a0, b0) is a class-G witness, by recognize_class_G's four properties."""
    if (a0 | b0) != g.full_mask or (a0 & b0).bit_count() != 2:
        return False
    # spanning star inside A0
    if not any(a0 & ~g.closed[c] == 0 for c in bits(a0)):
        return False
    # components of the induced B0 are single vertices or single edges
    for v in bits(b0):
        if (g.adj[v] & b0).bit_count() > 1:
            return False
    # vertices outside B0 see at most two B0 vertices
    for v in bits(g.full_mask & ~b0):
        if (g.adj[v] & b0).bit_count() > 2:
            return False
    return True


def class_g_by_scan(g):
    """Class-G membership by trying every A0 subset and every pair in it."""
    full = g.full_mask
    return any(class_g_witness_ok(g, a0, (full & ~a0) | mask_of(pair))
               for a0 in range(1, 1 << g.n) for pair in combinations(list(bits(a0)), 2))


def test_class_g_bounded_matches_exhaustive_search():
    for n in range(2, 6):
        for g in enumerate_labeled_graphs(n):
            assert (recognize_class_G(g) is not None) == class_g_by_scan(g), g.edges()
    for n in (7, 8, 9):
        for g in random_connected(n, 20, seed=n):
            assert (recognize_class_G(g) is not None) == class_g_by_scan(g), g.edges()


def class_g_by_pair_walks(g):
    """The recognizer's search with each pair checked by class_g_witness_ok."""
    full = g.full_mask
    degs = g.degrees()
    dmax = max(degs, default=0)
    for v in range(g.n):
        if degs[v] != dmax:
            continue
        a0 = g.closed[v]
        ends = [u for u in bits(a0) if (g.adj[u] & ~a0).bit_count() <= 1]
        for pair in combinations(ends, 2):
            b0 = (full & ~a0) | mask_of(pair)
            if class_g_witness_ok(g, a0, b0):
                return ClassGWitness(a0, b0)
    return None


def test_class_g_mask_test_finds_the_same_witness():
    graphs = [g for n in range(1, 7) for g in enumerate_labeled_graphs(n)]
    rng = random.Random(2324)
    for _ in range(500):
        n = rng.randint(7, 14)
        p = rng.choice((0.2, 0.5, 0.8))
        graphs.append(Graph.from_edges(n, [(i, j) for j in range(n) for i in range(j)
                                           if rng.random() < p]))
    members = 0
    for g in graphs:
        got = recognize_class_G(g)
        assert got == class_g_by_pair_walks(g), g.edges()
        if got is not None:
            assert class_g_witness_ok(g, got.a0, got.b0), g.edges()
            members += 1
    assert 0 < members < len(graphs)


# ---------------------------------------------------------------------------
# spiders

def test_spider_shapes_path3():
    shape = recognize_spider(construct_family("path", 3))
    assert (shape.t, shape.s) == (0, 2)       # canonical reading: star K_{1,2}
    assert shape.center == 1


def test_spider_shapes_path5():
    shape = recognize_spider(construct_family("path", 5))
    assert (shape.t, shape.s, shape.center) == (2, 0, 2)
    assert not is_spider_below_max_degree(construct_family("path", 5))


def test_spider_non_member():
    # double star: two adjacent centres with two leaves each
    ds = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
    assert spider_shapes(ds) == []
    with pytest.raises(ValueError):
        recognize_spider(construct_family("cycle", 4))


def test_spider_construction_and_recognition():
    for t in range(4):
        for s in range(4):
            if 1 + 2 * t + s < 2:
                continue
            g = construct_spider(t, s)
            assert profile(g).is_tree
            shapes = spider_shapes(g)
            assert shapes, (t, s)
            assert any(sh.t <= t for sh in shapes)


def test_spider_equivalence_on_tree_classes():
    for n in range(2, 10):
        for g in enumerate_tree_classes(n):
            gap_is_one = l(g, 2) == l(g, 1) + 1
            assert gap_is_one == is_spider_below_max_degree(g), g.edges()


# ---------------------------------------------------------------------------
# the rho0 == L_2 tree family

def test_class_t_members():
    assert recognize_class_T(construct_family("star", 4)) is not None
    assert recognize_class_T(construct_family("path", 6)) is not None
    w = recognize_class_T(construct_family("path", 2))
    assert w is not None and w.s0 == 0b11


def test_class_t_non_members():
    assert recognize_class_T(construct_family("path", 4)) is None
    assert recognize_class_T(construct_family("path", 5)) is None
    ds = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
    assert recognize_class_T(ds) is None
    with pytest.raises(ValueError):
        recognize_class_T(construct_family("cycle", 4))
    with pytest.raises(ValueError):
        recognize_class_T(Graph.empty(1))


def test_class_t_witness_structure():
    g = construct_comb(3)
    w = recognize_class_T(g)
    assert w is not None
    s0 = w.s0
    assert s0 | w.r0 == g.full_mask and s0 & w.r0 == 0
    # S0 induces a perfect matching and every outside vertex sees exactly one
    for v in bits(s0):
        assert (g.adj[v] & s0).bit_count() == 1
    for r in bits(w.r0):
        assert (g.adj[r] & s0).bit_count() == 1
    assert s0.bit_count() == open_packing_number(g).value


def relabel(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def least_class_t_mask(g):
    """The least S0 that _class_t_witness_ok accepts, by scanning every mask; None if none."""
    return next((s0 for s0 in range(1, 1 << g.n) if _class_t_witness_ok(g, s0)), None)


def test_class_t_bounded_matches_exhaustive_search():
    rng = random.Random(10)
    trees = [g for n in range(2, 7) for g in enumerate_labeled_trees(n)]
    for n in range(2, 11):
        for g in enumerate_tree_classes(n):
            trees += [g] + [relabel(g, rng) for _ in range(3)]
    for g in trees:
        w = recognize_class_T(g)
        assert (None if w is None else w.s0) == least_class_t_mask(g), g.edges()
        assert w is None or w.r0 == g.full_mask & ~w.s0


def test_class_t_equivalence_on_tree_classes():
    trees = [g for n in range(2, 10) for g in enumerate_tree_classes(n)]
    # n = 25..64: Pruefer trees are rarely in class T, relabeled combs always
    # are.  Combs stop at a = 12: branch and bound's L_2 on relabeled combs
    # with pendants grows fast (about 2 s at a = 14, over a minute at a = 18).
    rng = random.Random(64)
    for n in range(25, 65, 3):
        trees.append(Graph.from_edges(n, prufer_decode([rng.randrange(n) for _ in range(n - 2)], n)))
    for a in range(9, 13):
        trees.append(relabel(construct_comb(a, tuple(rng.randrange(2) for _ in range(a))), rng))
    for g in trees:
        member = recognize_class_T(g) is not None
        assert member == (open_packing_number(g).value == l(g, 2)), g.edges()


def test_doubling_coincides_on_trees():
    # on trees, L_2 == 2 L_1 exactly when L_2 == 2 gamma
    for n in range(2, 10):
        for g in enumerate_tree_classes(n):
            l2 = l(g, 2)
            assert (l2 == 2 * l(g, 1)) == (l2 == 2 * domination_number(g).value)


# ---------------------------------------------------------------------------
# constructions

def test_construct_diam2_small():
    g = construct_diam2(2)
    assert g == Graph.from_edges(3, [(0, 2), (1, 2)])
    for a in range(2, 6):
        g = construct_diam2(a)
        assert g.n == a + a * (a - 1) // 2
        assert profile(g).diameter == 2
        assert l(g, 2) == a
    with pytest.raises(ValueError):
        construct_diam2(1)


def test_construct_prescribed_star_case():
    g = construct_tree_prescribed(2, 3)
    assert g.n == 4 and profile(g).is_tree
    assert open_packing_number(g).value == 2
    assert l(g, 1) == 2 and l(g, 2) == 3


def test_construct_prescribed_chain_case():
    g = construct_tree_prescribed(3, 6)
    assert g.n == 9 and profile(g).is_tree
    assert open_packing_number(g).value == 3
    assert l(g, 1) == 3 and l(g, 2) == 6


def test_construct_prescribed_sweep():
    for a in range(2, 6):
        for b in range(a + 1, 2 * a + 1):
            g = construct_tree_prescribed(a, b)
            assert profile(g).is_tree
            assert open_packing_number(g).value == a
            assert l(g, 1) == a
            assert l(g, 2) == b, (a, b)
    with pytest.raises(ValueError):
        construct_tree_prescribed(3, 2)
    with pytest.raises(ValueError):
        construct_tree_prescribed(3, 7)


def test_construct_prescribed_large_instance():
    g = construct_tree_prescribed(8, 12)
    assert g.n == 19
    assert open_packing_number(g).value == 8
    assert l(g, 1) == 8
    assert l(g, 2) == 12


def test_construct_comb_membership():
    for a in range(1, 5):
        assert recognize_class_T(construct_comb(a)) is not None
    for pat in product(range(2), repeat=3):
        g = construct_comb(3, pat)
        assert recognize_class_T(g) is not None
        assert open_packing_number(g).value == l(g, 2) == 6
    with pytest.raises(ValueError):
        construct_comb(2, (1,))


def test_construct_comb_rejects_a_negative_pendant_count():
    # refused before any edge is built, naming the counts rather than an edge
    for pendants in ((-1, 0), (0, -1), (2, -3), (-1,) * 4):
        with pytest.raises(ValueError, match=f"^pendant counts must be >= 0, got "
                                             f"{re.escape(str(pendants))}$"):
            construct_comb(len(pendants), pendants)


@pytest.mark.parametrize("build, args, message", [
    (construct_diam2, (11,), "order 66 exceeds 64 (a <= 10)"),
    (construct_tree_prescribed, (1, 2), "construction needs a >= 2"),
    (construct_tree_prescribed, (22, 44), "order 66 exceeds 64"),       # b == 2a: chained paths
    (construct_tree_prescribed, (30, 36), "order 65 exceeds 64"),       # b < 2a: a star
    (construct_spider, (-1, 0), "spider needs t >= 0 and s >= 0"),
    (construct_spider, (32, 0), "order 65 exceeds 64"),
    (construct_comb, (0,), "comb needs a >= 1"),
    (construct_family, ("complete_bipartite", (0, 3)),
     "complete bipartite graph needs both parts >= 1"),
    (construct_family, ("wheel", 5), "unknown family 'wheel'"),
])
def test_constructions_reject_bad_parameters(build, args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(*args)


def test_spider_shapes_reject_a_triangle():
    # every centre of K_3 sees its second level inside its first
    assert spider_shapes(construct_family("complete", 3)) == []


def test_build_from_spec():
    assert build_from_spec("path:4") == construct_family("path", 4)
    assert build_from_spec("spider:3,2") == construct_spider(3, 2)
    assert build_from_spec("diam2:3") == construct_diam2(3)
    assert build_from_spec("prescribed:2,4") == construct_tree_prescribed(2, 4)
    assert build_from_spec("complete_bipartite:2,3") == \
        construct_family("complete_bipartite", (2, 3))
    with pytest.raises(ValueError):
        build_from_spec("path")
    with pytest.raises(ValueError):
        build_from_spec("path:x")
    with pytest.raises(ValueError):
        build_from_spec("moebius:5")


def test_tree_recognizers_reject_non_trees():
    cycle4 = construct_family("cycle", 4)
    forest = Graph.from_edges(4, [(0, 1), (2, 3)])
    triangle_and_edge = Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (3, 4)])  # m = n - 1
    for g in (Graph.empty(0), cycle4, forest, triangle_and_edge):
        with pytest.raises(ValueError, match="^spider recognition expects a tree$"):
            recognize_spider(g)
    for g in (Graph.empty(0), Graph.empty(1), cycle4, forest, triangle_and_edge):
        with pytest.raises(ValueError,
                           match="^class-T recognition expects a tree with >= 2 vertices$"):
            recognize_class_T(g)
    assert recognize_spider(Graph.empty(1)) == SpiderShape(0, 0, 0)


# ---------------------------------------------------------------------------
# the recognizers are structural: they run with every solver disabled

def test_recognizers_call_no_solver(monkeypatch):
    from limpack import solvers

    def refuse(*args):
        raise AssertionError("a structural recognizer called a solver")

    monkeypatch.setattr(solvers, "_cover", refuse)
    monkeypatch.setattr(solvers, "_Packing", refuse)
    monkeypatch.setattr(solvers, "limited_packing_oracle", refuse)
    with pytest.raises(AssertionError):
        open_packing_number(construct_family("path", 3))
    for n in range(2, 9):
        for g in enumerate_tree_classes(n):
            recognize_class_T(g)
            recognize_class_G(g)
            is_spider_below_max_degree(g)
            for k in (1, 2, 3):
                check_Lk_equals_k(g, k)
