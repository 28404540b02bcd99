"""Property tests (hypothesis) for every exact solver.

Feasible witnesses for every method and parameter, invariance under
relabeling, and additivity over disjoint unions.  Skipped without hypothesis.
"""
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from limpack import (Graph, UndefinedParameterError, disjoint_union,  # noqa: E402
                     domination_number, is_dominating_set, is_k_limited_packing,
                     is_open_packing, is_total_dominating_set,
                     limited_packing_bb, limited_packing_number,
                     limited_packing_oracle, open_packing_number,
                     total_domination_number)


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
