"""Graph container, graph6/edge-list codecs, and structural profile."""
import random

import networkx as nx
import pytest

from limpack import (MAX_VERTICES, Graph, GraphFormatError, bits, complement,
                     disjoint_union, emit_graph6, format_edge_list,
                     induced_subgraph, mask_of, parse_edge_list, parse_graph6,
                     profile)
from limpack.corpus import (enumerate_labeled_graphs, enumerate_tree_classes, labeled_class,
                            prufer_decode)
from limpack.graphs import is_tree


def to_nx(g: Graph) -> nx.Graph:
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges())
    return G


def petersen() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, 5 + i) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, edges)


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    return Graph.from_edges(n, [(i, j) for j in range(n) for i in range(j)
                                if rng.random() < p])


# ---------------------------------------------------------------------------
# container basics

def test_mask_helpers():
    assert mask_of([0, 2, 5]) == 0b100101
    assert list(bits(0b100101)) == [0, 2, 5]
    assert list(bits(0)) == []


def test_graph_construction_and_accessors():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4
    assert g.edge_count() == 3
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]
    assert g.degrees() == [1, 2, 2, 1]
    assert g.has_edge(1, 2) and not g.has_edge(0, 3)
    assert g.closed[1] == mask_of([0, 1, 2])
    assert g == Graph.from_edges(4, [(2, 3), (0, 1), (2, 1)])
    assert hash(g) == hash(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]))


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(65, [0] * 65)
    with pytest.raises(ValueError):
        Graph(2, [0])                      # row count mismatch
    with pytest.raises(ValueError):
        Graph(2, [1, 0])                   # loop at vertex 0
    with pytest.raises(ValueError):
        Graph(2, [2, 0])                   # asymmetric edge
    with pytest.raises(ValueError):
        Graph(2, [4, 0])                   # neighbour out of range
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])


def test_complement_involution_small():
    for n in range(1, 5):
        for g in enumerate_labeled_graphs(n):
            cg = complement(g)
            assert complement(cg) == g
            degs, cdegs = g.degrees(), cg.degrees()
            for v in range(n):
                assert degs[v] + cdegs[v] == n - 1


def test_induced_subgraph():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    sub = induced_subgraph(g, mask_of([0, 1, 2]))
    assert sub == Graph.from_edges(3, [(0, 1), (1, 2)])
    assert induced_subgraph(g, 0) == Graph.empty(0)
    assert induced_subgraph(g, g.full_mask) == g


def test_induced_subgraph_rejects_masks_outside_the_graph():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    for mask in (-1, 1 << g.n, g.full_mask | 1 << g.n):
        with pytest.raises(ValueError) as err:
            induced_subgraph(g, mask)
        assert str(err.value) == f"vertex mask {mask} outside 0..31 for n = 5"


def test_disjoint_union():
    p2 = Graph.from_edges(2, [(0, 1)])
    p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    u = disjoint_union(p2, p3)
    assert u.n == 5
    assert u.edges() == [(0, 1), (2, 3), (3, 4)]
    with pytest.raises(ValueError):
        disjoint_union(Graph.empty(40), Graph.empty(40))


# ---------------------------------------------------------------------------
# builders that skip the row check: each must give what Graph(n, adj) gives

def assert_checked_equal(g: Graph) -> None:
    checked = Graph(g.n, g.adj)   # raises unless the rows pass every check
    assert (g.n, g.adj, g.closed) == (checked.n, checked.adj, checked.closed)
    assert type(g.adj) is type(g.closed) is tuple


def test_trusted_builders_match_checked_constructor():
    rng = random.Random(11)
    for n in range(0, 7):
        for mask in range(1 << n * (n - 1) // 2):
            g = Graph.from_edge_mask(n, mask)
            assert_checked_equal(g)
            cg = complement(g)
            assert_checked_equal(cg)
            assert cg.adj == tuple(g.full_mask & ~nb & ~(1 << v) for v, nb in enumerate(g.adj))
            assert Graph.from_edges(n, g.edges()) == g
            assert_checked_equal(Graph.from_edges(n, g.edges()))
            keep = rng.getrandbits(n) if n else 0
            assert_checked_equal(induced_subgraph(g, keep))
            if mask % 97 == 0:
                assert_checked_equal(disjoint_union(g, cg, Graph.empty(2)))
    for n in range(1, 11):
        for t in enumerate_tree_classes(n):
            assert_checked_equal(t)
    big = random_graph(64, 0.5, rng)
    for g in (big, complement(big), induced_subgraph(big, rng.getrandbits(64)),
              disjoint_union(random_graph(30, 0.3, rng), random_graph(34, 0.3, rng))):
        assert_checked_equal(g)


def rows_mask(g: Graph) -> int:
    """The graph6 edge mask read from the rows alone, pair by pair."""
    return sum(1 << (j * (j - 1) // 2 + i) for i, j in g.edges())


def test_edge_mask_matches_rows_for_every_builder():
    from limpack.corpus import random_connected
    rng = random.Random(29)
    graphs = []
    for n in range(0, 7):
        for mask in rng.sample(range(1 << n * (n - 1) // 2), min(40, 1 << n * (n - 1) // 2)):
            g = Graph.from_edge_mask(n, mask)
            graphs += [g, parse_graph6(emit_graph6(g)), Graph.from_edges(n, g.edges()),
                       Graph(n, g.adj), complement(g),
                       induced_subgraph(g, rng.getrandbits(n) if n else 0),
                       disjoint_union(g, complement(g))]
    graphs += [t for n in range(1, 10) for t in enumerate_tree_classes(n)]
    graphs += list(random_connected(12, 20, seed=5))
    big = random_graph(64, 0.5, rng)
    graphs += [big, complement(big), parse_graph6(emit_graph6(big))]
    for g in graphs:
        assert g.edge_mask() == rows_mask(g), g
        assert g.edge_mask() == rows_mask(g)          # the stored mask, read again
        assert Graph.from_edge_mask(g.n, g.edge_mask()) == g


def test_from_edges_checks_order_after_edges():
    with pytest.raises(ValueError, match="order 65 outside 0..64"):
        Graph.from_edges(65, [(0, 64)])
    with pytest.raises(ValueError, match="order -1 outside 0..64"):
        Graph.from_edges(-1, [])
    with pytest.raises(ValueError, match="loop at vertex 3"):
        Graph.from_edges(70, [(3, 3)])


def test_builders_bound_the_order_before_allocating():
    # rows for 2^62 vertices could never be allocated: a builder that allocates
    # before its order check raises MemoryError, not the order error
    huge = 1 << 62
    for build in (Graph.empty, lambda n: Graph.from_edges(n, []),
                  lambda n: Graph.from_edges(n, [(0, 1), (huge - 1, 5)])):
        with pytest.raises(ValueError, match=f"order {huge} outside 0..64"):
            build(huge)
    with pytest.raises(ValueError, match="loop at vertex 7"):
        Graph.from_edges(huge, [(0, 1), (7, 7)])


# ---------------------------------------------------------------------------
# graph6 codec

def test_graph6_known_small_value():
    # 'B' encodes order 3; 'W' is 010111 -> bits 0,1,1 for pairs
    # (0,1),(0,2),(1,2), so BW is the path 0-2-1.
    g = parse_graph6("BW")
    assert g == Graph.from_edges(3, [(0, 2), (1, 2)])
    assert emit_graph6(g) == "BW"


def test_graph6_round_trip_exhaustive():
    for n in range(1, 6):
        for g in enumerate_labeled_graphs(n):
            assert parse_graph6(emit_graph6(g)) == g


def test_graph6_round_trip_random_and_large_orders():
    rng = random.Random(20240817)
    for n in (13, 30, 62, 63, 64):
        for _ in range(5):
            g = random_graph(n, 0.3, rng)
            text = emit_graph6(g)
            if n <= 62:
                assert len(text) == 1 + (n * (n - 1) // 2 + 5) // 6
            else:
                assert text.startswith("~")
            assert parse_graph6(text) == g


def test_graph6_matches_networkx():
    rng = random.Random(77)
    sample = [g for n in range(1, 6) for g in enumerate_labeled_graphs(n)]
    sample += [random_graph(n, 0.4, rng) for n in (10, 20, 40) for _ in range(3)]
    for g in sample:
        ours = emit_graph6(g)
        theirs = nx.to_graph6_bytes(to_nx(g), header=False).strip().decode()
        assert ours == theirs
        back = nx.from_graph6_bytes(ours.encode())
        assert Graph.from_edges(g.n, list(back.edges())) == g


def test_graph6_accepts_bytes_and_newline():
    assert parse_graph6(b"BW\n") == parse_graph6("BW")


def test_graph6_header_prefix():
    assert parse_graph6(">>graph6<<BW") == parse_graph6(b">>graph6<<BW\n") == parse_graph6("BW")
    # offsets count from after the header
    with pytest.raises(GraphFormatError) as err:
        parse_graph6(">>graph6<<B" + chr(20))
    assert err.value.offset == 1
    with pytest.raises(GraphFormatError, match="empty graph6 input"):
        parse_graph6(">>graph6<<")


def test_edge_mask_order_and_bounds():
    # graph6 order: the edge (i, j), i < j, is bit j(j-1)/2 + i
    for p, edge in enumerate([(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]):
        g = Graph.from_edges(4, [edge])
        assert g.edge_mask() == 1 << p and Graph.from_edge_mask(4, 1 << p) == g
    for n in (0, 1, 2, 7, 63, 64):
        top = n * (n - 1) // 2
        assert Graph.from_edge_mask(n, (1 << top) - 1).edge_count() == top
        with pytest.raises(ValueError, match="at or above"):
            Graph.from_edge_mask(n, 1 << top)
    with pytest.raises(ValueError):
        Graph.from_edge_mask(3, -1)
    for n in (-1, 65):
        with pytest.raises(ValueError, match="outside"):
            Graph.from_edge_mask(n, 1)


def test_graph6_error_offsets():
    with pytest.raises(GraphFormatError):
        parse_graph6("")
    with pytest.raises(GraphFormatError) as err:
        parse_graph6("B" + chr(20))        # body byte below 63
    assert err.value.offset == 1
    with pytest.raises(GraphFormatError):
        parse_graph6("D")                  # truncated body (order 5)
    with pytest.raises(GraphFormatError):
        parse_graph6("BWW")                # trailing garbage
    with pytest.raises(GraphFormatError):
        parse_graph6("~~~~")               # order beyond 64
    with pytest.raises(GraphFormatError):
        parse_graph6("~??")                # truncated extended header
    # order 65 via extended header: 65 = 0b000001000001
    with pytest.raises(GraphFormatError):
        parse_graph6("~?@A")


def test_graph6_rejects_non_ascii_text():
    # a non-ASCII character is never read as a graph6 byte, and its offset
    # counts characters from after a header
    for text, at in (("Aé", 1), ("é", 0), ("A€", 1), (">>graph6<<B\u00e9", 1),
                     ("DhC\U0001F600", 3), (">>grapé", 6)):
        with pytest.raises(GraphFormatError, match="outside graph6 range") as err:
            parse_graph6(text)
        assert err.value.offset == at, text
    with pytest.raises(GraphFormatError) as err:
        parse_graph6("Aé")
    assert str(err.value) == "character U+00E9 outside graph6 range 63..126 (byte 1)"


def test_graph6_rejects_nonzero_padding():
    # K_2 is 'A_' (bit 1 then five zero pads); force a pad bit on
    assert parse_graph6("A_") == Graph.from_edges(2, [(0, 1)])
    with pytest.raises(GraphFormatError):
        parse_graph6("A" + chr(95 + 1))
    # the first padding bit, right after the last edge position
    with pytest.raises(GraphFormatError, match="nonzero padding bits"):
        parse_graph6("A" + chr(63 + 0b110000))


# ---------------------------------------------------------------------------
# edge-list codec

def test_edge_list_round_trip():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    text = format_edge_list(g)
    assert text.splitlines()[0] == "5 4"
    assert parse_edge_list(text) == g
    assert parse_edge_list("2 0\n") == Graph.empty(2)


def test_edge_list_errors():
    with pytest.raises(GraphFormatError):
        parse_edge_list("")
    with pytest.raises(GraphFormatError):
        parse_edge_list("3 2\n0 1\n")        # fewer edges than announced
    with pytest.raises(GraphFormatError):
        parse_edge_list("3 1\n0 7\n")        # endpoint out of range
    with pytest.raises(GraphFormatError, match="^edge-list line 4: loop at 2$"):
        parse_edge_list("3 2\n0 1\n\n2 2\n")
    with pytest.raises(GraphFormatError, match="^edge-list line 2 must be 'n m'$"):
        parse_edge_list("\n3\n")


@pytest.mark.parametrize("text, message", [
    ("1 x\n", "edge-list line 1 must be 'n m'"),
    ("65 0\n", "order 65 outside 0..64"),
    ("3 1\n0 1 2\n", "edge-list line 2 must be 'u v'"),
    ("3 1\n\n0 x\n", "edge-list line 3 must be 'u v'"),
])
def test_edge_list_malformed_lines(text, message):
    with pytest.raises(GraphFormatError, match=f"^{message}$"):
        parse_edge_list(text)


def test_edge_list_repeated_edge_names_both_lines():
    # a line's number counts the blank lines before it
    for text, message in (("3 2\n0 1\n1 0\n", "line 3: edge 0-1 repeats line 2"),
                          ("\n3 2\n1 2\n\n1 2\n", "line 5: edge 1-2 repeats line 3"),
                          ("4 3\n2 0\n1 3\n0 2\n", "line 4: edge 0-2 repeats line 2")):
        with pytest.raises(GraphFormatError) as err:
            parse_edge_list(text)
        assert str(err.value) == f"edge-list {message}"


# ---------------------------------------------------------------------------
# structural profile vs networkx

def test_profile_path6():
    g = Graph.from_edges(6, [(i, i + 1) for i in range(5)])
    p = profile(g)
    assert p.connected and p.is_tree
    assert (p.max_degree, p.min_degree) == (2, 1)
    assert p.min_nonleaf_degree == 2
    assert p.diameter == 5
    assert p.girth is None
    assert list(bits(p.cut_vertices)) == [1, 2, 3, 4]
    assert not p.every_edge_on_triangle


def test_profile_petersen():
    p = profile(petersen())
    assert p.connected and not p.is_tree
    assert (p.max_degree, p.min_degree) == (3, 3)
    assert p.diameter == 2
    assert p.girth == 5
    assert p.cut_vertices == 0
    assert not p.every_edge_on_triangle


def test_profile_k4():
    g = Graph.from_edges(4, [(i, j) for j in range(4) for i in range(j)])
    p = profile(g)
    assert p.diameter == 1
    assert p.girth == 3
    assert p.every_edge_on_triangle
    assert p.min_nonleaf_degree == 3


def test_profile_disconnected_and_tiny():
    p = profile(Graph.empty(3))
    assert not p.connected and p.diameter is None and p.girth is None
    p1 = profile(Graph.empty(1))
    assert p1.connected and p1.is_tree and p1.diameter == 0
    assert p1.min_nonleaf_degree is None
    assert profile(Graph.empty(0)).connected


def test_profile_matches_networkx_exhaustive():
    for n in range(1, 6):
        for g in enumerate_labeled_graphs(n):
            p = profile(g)
            G = to_nx(g)
            assert p.connected == nx.is_connected(G)
            assert p.is_tree == nx.is_tree(G)
            if p.connected:
                assert p.diameter == nx.diameter(G)
            girth = nx.girth(G)
            assert p.girth == (None if girth == float("inf") else girth)
            assert set(bits(p.cut_vertices)) == set(nx.articulation_points(G))
            on_triangle = all(g.adj[u] & g.adj[v] for u, v in g.edges())
            assert p.every_edge_on_triangle == on_triangle


def test_profile_matches_networkx_random():
    rng = random.Random(31337)
    for _ in range(60):
        n = rng.randint(2, 12)
        g = random_graph(n, rng.choice([0.15, 0.3, 0.5]), rng)
        p = profile(g)
        G = to_nx(g)
        assert p.connected == nx.is_connected(G)
        if p.connected:
            assert p.diameter == nx.diameter(G)
        girth = nx.girth(G)
        assert p.girth == (None if girth == float("inf") else girth)
        assert set(bits(p.cut_vertices)) == set(nx.articulation_points(G))


def from_nx(G: nx.Graph) -> Graph:
    G = nx.convert_node_labels_to_integers(G)
    return Graph.from_edges(G.number_of_nodes(), G.edges())


def relabeled(g: Graph, rng: random.Random) -> Graph:
    perm = rng.sample(range(g.n), g.n)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def assert_walk_matches_networkx(g: Graph) -> None:
    p, G = profile(g), to_nx(g)
    assert p.connected == nx.is_connected(G), g
    assert p.diameter == (nx.diameter(G) if p.connected else None), g
    girth = nx.girth(G)
    assert p.girth == (None if girth == float("inf") else girth), g
    assert set(bits(p.cut_vertices)) == set(nx.articulation_points(G)), g
    assert p.is_tree == is_tree(g) == nx.is_tree(G), g
    degrees = [d for _, d in G.degree()]
    nonleaf = [d for d in degrees if d >= 2]
    assert (p.max_degree, p.min_degree, p.min_nonleaf_degree) == \
        (max(degrees), min(degrees), min(nonleaf) if nonleaf else None), g
    assert p.every_edge_on_triangle == all(set(G[u]) & set(G[v]) for u, v in G.edges()), g


def test_profile_walk_matches_networkx_on_classes_up_to_order_6():
    classes = {}
    for n in range(1, 7):
        for g in enumerate_labeled_graphs(n):
            classes.setdefault(labeled_class(g), g)
    assert len(classes) == 208
    for g in classes.values():
        assert_walk_matches_networkx(g)


def test_profile_walk_matches_networkx_on_long_cycles_and_paths():
    rng = random.Random(64)
    for n in range(3, MAX_VERTICES + 1):
        cycle = [(i, (i + 1) % n) for i in range(n)]
        relabel = rng.sample(range(n), n)
        for edges in (cycle, cycle[:-1]):
            assert_walk_matches_networkx(Graph.from_edges(n, edges))
            assert_walk_matches_networkx(
                Graph.from_edges(n, [(relabel[u], relabel[v]) for u, v in edges]))


def test_profile_walk_matches_networkx_on_named_graphs():
    named = [(petersen(), 5), (from_nx(nx.hypercube_graph(6)), 4),
             (from_nx(nx.grid_2d_graph(8, 8)), 4), (from_nx(nx.heawood_graph()), 6)]
    for g, girth in named:
        assert profile(g).girth == girth
        assert_walk_matches_networkx(g)
    # several components, interleaved by a relabeling of the whole union: each
    # component's connectivity and cut vertices are its own
    rng = random.Random(1812)
    parts = [t for n in range(1, 11) for t in enumerate_tree_classes(n)]
    parts += [Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)]) for n in range(3, 13)]
    parts += [Graph.empty(1)] * 20
    for _ in range(60):
        target, union = rng.randint(2, MAX_VERTICES), relabeled(rng.choice(parts), rng)
        while True:
            part = relabeled(rng.choice(parts), rng)
            if union.n + part.n > target:
                break
            union = disjoint_union(union, part)
        assert_walk_matches_networkx(relabeled(union, rng))


def test_profile_walk_matches_networkx_on_sparse_random_graphs():
    rng = random.Random(1978)
    for n in range(13, MAX_VERTICES + 1):
        for c in (1.5, 2.5, 4.0):
            assert_walk_matches_networkx(random_graph(n, c / n, rng))


def test_is_tree_matches_networkx():
    assert not is_tree(Graph.empty(0)) and not profile(Graph.empty(0)).is_tree
    rng = random.Random(2718)
    graphs = [g for n in range(1, 7) for g in enumerate_labeled_graphs(n)]
    for _ in range(200):
        n = rng.randint(3, 64)
        tree = Graph.from_edges(n, prufer_decode(tuple(rng.randrange(n) for _ in range(n - 2)), n))
        # moving one edge keeps m = n - 1 but usually closes a cycle and cuts the tree
        u, v = rng.sample(range(n), 2)
        moved = tree.edges()[1:]
        if not tree.has_edge(u, v):
            moved.append((u, v))
        graphs += [tree, Graph.from_edges(n, moved)]
    verdicts = set()
    for g in graphs:
        verdict = is_tree(g)
        assert verdict == nx.is_tree(to_nx(g)), g
        verdicts.add((verdict, g.edge_count() == g.n - 1))
    assert verdicts == {(True, True), (False, True), (False, False)}
