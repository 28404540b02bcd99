"""Property tests (hypothesis) for every exact solver, the graph6 codec and tree keys.

Feasible witnesses for every method and parameter, invariance under
relabeling, additivity over disjoint unions, graph6 and edge-mask round trips,
graph6 parsing of arbitrary input, and AHU tree keys against relabeling and
networkx isomorphism.  Skipped without hypothesis.
"""
import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from limpack import (Graph, GraphFormatError, UndefinedParameterError,  # noqa: E402
                     bits, complement, disjoint_union, domination_number, emit_graph6,
                     is_dominating_set, is_k_limited_packing,
                     is_open_packing, is_total_dominating_set,
                     limited_packing_bb, limited_packing_number,
                     limited_packing_oracle, open_packing_number,
                     parse_graph6, total_domination_number)
from limpack.corpus import (graph_canonical_tree_key, prufer_decode,  # noqa: E402
                            tree_canonical_key)
from limpack.solvers import GraphFacts  # noqa: E402


@st.composite
def graphs(draw, max_n: int = 9) -> Graph:
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for v in range(n) for u in range(v)]
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, keep in zip(pairs, present) if keep])


def parameters(g: Graph) -> tuple:
    try:
        gamma_t = total_domination_number(g).value
    except UndefinedParameterError:
        gamma_t = None
    return (tuple(limited_packing_number(g, k).value for k in (1, 2, 3)),
            domination_number(g).value, gamma_t, open_packing_number(g).value)


PROPERTY = settings(max_examples=150, deadline=None, database=None)


@PROPERTY
@given(graphs(max_n=11))
def test_witnesses_feasible(g):
    for k in (1, 2, 3):
        for solve in (limited_packing_oracle, limited_packing_bb, limited_packing_number):
            res = solve(g, k)
            assert is_k_limited_packing(g, k, res.witness)
            assert res.witness.bit_count() == res.value
    for solve, feasible in ((domination_number, is_dominating_set),
                            (open_packing_number, is_open_packing),
                            (total_domination_number, is_total_dominating_set)):
        if solve is total_domination_number and not all(g.adj):
            continue
        res = solve(g)
        assert feasible(g, res.witness) and res.witness.bit_count() == res.value


@PROPERTY
@given(graphs(), st.randoms(use_true_random=False))
def test_relabeling_invariant(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    relabeled = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    assert parameters(relabeled) == parameters(g)


@PROPERTY
@given(graphs(max_n=6), graphs(max_n=6))
def test_disjoint_union_additive(g, h):
    union = disjoint_union(g, h)
    (lg, gamma_g, tg, rho_g), (lh, gamma_h, th, rho_h) = parameters(g), parameters(h)
    lu, gamma_u, tu, rho_u = parameters(union)
    assert lu == tuple(a + b for a, b in zip(lg, lh))
    assert (gamma_u, rho_u) == (gamma_g + gamma_h, rho_g + rho_h)
    assert tu == (None if None in (tg, th) else tg + th)


@PROPERTY
@given(graphs(max_n=8), st.integers(1, 4), st.data())
def test_complement_packing_is_tuple_total_domination(g, k, data):
    # a set of k + j vertices packs the complement iff every vertex has at
    # least j neighbours of it in G; GraphFacts.lk_bar rests on this
    s = data.draw(st.integers(0, g.full_mask))
    j = s.bit_count() - k
    bar = complement(g)
    assert is_k_limited_packing(bar, k, s) == all((nb & s).bit_count() >= j for nb in g.adj)
    assert GraphFacts(g).lk_bar(k) == limited_packing_oracle(bar, k).value


@st.composite
def graphs_of_order(draw, orders) -> Graph:
    """A seeded G(n, p): n = 64 has 2,016 edge positions, too many to draw one by one."""
    n = draw(orders)
    p = draw(st.sampled_from((0.0, 0.1, 0.5, 0.9, 1.0)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return Graph.from_edges(n, [(u, v) for v in range(n) for u in range(v) if rng.random() < p])


# the extended order header starts at n = 63, so 62..64 are always drawn
@pytest.mark.parametrize("orders", [st.integers(0, 64), st.just(62), st.just(63), st.just(64)],
                         ids=["0..64", "62", "63", "64"])
@PROPERTY
@given(data=st.data())
def test_graph6_and_edge_mask_round_trip(orders, data):
    g = data.draw(graphs_of_order(orders))
    text = emit_graph6(g)
    assert text.startswith("~") == (g.n >= 63)
    assert parse_graph6(text) == parse_graph6(">>graph6<<" + text) == g
    assert Graph.from_edge_mask(g.n, g.edge_mask()) == g


_GRAPH6_LIKE = st.builds(lambda head, body: head + bytes(body),
                         st.sampled_from((b"", b">>graph6<<", b"~", b"~?A", b"~?@")),
                         st.lists(st.integers(58, 130), max_size=400))


@st.composite
def mutated_graph6(draw) -> bytes:
    """Valid graph6 with one bit flipped, or one byte dropped or inserted.

    Small orders, so the last byte with its padding bits is often the one changed.
    """
    data = bytearray(emit_graph6(draw(graphs_of_order(st.integers(0, 16)))).encode())
    i = draw(st.integers(0, len(data) - 1))
    edit = draw(st.sampled_from(("flip", "drop", "insert")))
    if edit == "flip":
        data[i] ^= 1 << draw(st.integers(0, 7))
    elif edit == "drop":
        del data[i]
    else:
        data.insert(i, draw(st.integers(0, 255)))
    return bytes(data)


@PROPERTY
@given(st.one_of(st.binary(max_size=400), st.text(max_size=400), _GRAPH6_LIKE,
                 mutated_graph6()))
def test_parse_graph6_raises_only_format_errors(data):
    try:
        g = parse_graph6(data)
    except GraphFormatError:
        return
    assert parse_graph6(emit_graph6(g)) == g


@st.composite
def pruefer_trees(draw, min_n: int, max_n: int) -> Graph:
    n = draw(st.integers(min_n, max_n))
    if n == 1:
        return Graph.empty(1)
    seq = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    return Graph.from_edges(n, prufer_decode(tuple(seq), n))


@PROPERTY
@given(pruefer_trees(1, 64), st.randoms(use_true_random=False))
def test_tree_key_relabeling_invariant(t, rng):
    perm = list(range(t.n))
    rng.shuffle(perm)
    relabeled = Graph.from_edges(t.n, [(perm[u], perm[v]) for u, v in t.edges()])
    adj = [list(bits(nb)) for nb in relabeled.adj]
    for nbs in adj:
        rng.shuffle(nbs)
    assert tree_canonical_key(t.n, adj) == graph_canonical_tree_key(t)


# the same order for both trees most of the time, so isomorphic pairs are common
TREE_PAIRS = (st.integers(1, 10).flatmap(lambda n: st.tuples(pruefer_trees(n, n),
                                                             pruefer_trees(n, n)))
              | st.tuples(pruefer_trees(1, 10), pruefer_trees(1, 10)))


@PROPERTY
@given(TREE_PAIRS)
def test_tree_key_equal_exactly_for_isomorphic_trees(pair):
    nx = pytest.importorskip("networkx")
    a, b = pair
    nx_a, nx_b = (nx.Graph(t.edges()) for t in pair)
    nx_a.add_nodes_from(range(a.n))
    nx_b.add_nodes_from(range(b.n))
    same_key = graph_canonical_tree_key(a) == graph_canonical_tree_key(b)
    assert same_key == nx.is_isomorphic(nx_a, nx_b)
