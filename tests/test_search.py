"""The shared branch-and-bound engine on the companion parameters rho0, gamma, gamma_t.

Each value is checked against a brute force kept here, independent of the
package: the smallest (or largest) size at which some vertex set of that
size is feasible, by itertools.combinations.  A MILP cross-check (scipy's
`milp`, skipped without scipy) covers orders 14..64.
"""
import random
from itertools import combinations

import pytest

from limpack import (Graph, UndefinedParameterError, domination_number,
                     induced_subgraph, is_dominating_set, is_open_packing,
                     is_total_dominating_set, open_packing_number, profile,
                     total_domination_number)
from limpack.corpus import enumerate_labeled_graphs

ADJ, CLOSED = "adj", "closed"


def brute_force(g: Graph, rows: str, sense: str) -> int | None:
    """min |S| with every row meeting S, or max |S| with every row meeting S at most once."""
    nbrs = g.adj if rows == ADJ else g.closed
    if sense == "min":
        for size in range(g.n + 1):
            for combo in combinations(range(g.n), size):
                s = sum(1 << v for v in combo)
                if all(nb & s for nb in nbrs):
                    return size
        return None
    best = 0
    for size in range(1, g.n + 1):
        # subsets of a packing are packings, so no size-s packing means none larger
        if not any(all((nb & sum(1 << v for v in combo)).bit_count() <= 1 for nb in nbrs)
                   for combo in combinations(range(g.n), size)):
            break
        best = size
    return best


def check_companions(g: Graph) -> None:
    gamma = domination_number(g)
    assert gamma.value == brute_force(g, CLOSED, "min"), g.edges()
    assert is_dominating_set(g, gamma.witness) and gamma.witness.bit_count() == gamma.value
    rho0 = open_packing_number(g)
    assert rho0.value == brute_force(g, ADJ, "max"), g.edges()
    assert is_open_packing(g, rho0.witness) and rho0.witness.bit_count() == rho0.value
    if g.n and all(g.adj):
        gamma_t = total_domination_number(g)
        assert gamma_t.value == brute_force(g, ADJ, "min"), g.edges()
        assert is_total_dominating_set(g, gamma_t.witness)
        assert gamma_t.witness.bit_count() == gamma_t.value
    elif g.n:
        with pytest.raises(UndefinedParameterError):
            total_domination_number(g)


def gnp(n: int, p: float, seed: int) -> Graph:
    """A G(n, p) from random.Random(seed), connected or not."""
    rng = random.Random(seed)
    return Graph.from_edges(n, [(u, v) for v in range(n) for u in range(v) if rng.random() < p])


def connected_gnp(n: int, p: float, seed: int) -> Graph:
    """A connected G(n, p) from random.Random(seed), by rejection."""
    rng = random.Random(seed)
    while True:
        g = Graph.from_edges(n, [(u, v) for v in range(n) for u in range(v) if rng.random() < p])
        if profile(g).connected:
            return g


def test_companions_match_brute_force_labeled():
    for n in range(1, 7):
        for g in enumerate_labeled_graphs(n):
            check_companions(g)


def test_companions_match_brute_force_random():
    for n in range(13, 21):
        for p in (0.2, 0.35):
            check_companions(connected_gnp(n, p, seed=100 * n + int(100 * p)))


# ---------------------------------------------------------------------------
# MILP cross-check

def milp_value(g: Graph, rows: str, sense: str) -> int:
    np = pytest.importorskip("numpy")
    opt = pytest.importorskip("scipy.optimize")
    nbrs = g.adj if rows == ADJ else g.closed
    a = np.array([[(nb >> u) & 1 for u in range(g.n)] for nb in nbrs], dtype=float)
    if sense == "min":
        c, cons = np.ones(g.n), opt.LinearConstraint(a, 1, np.inf)
    else:
        c, cons = -np.ones(g.n), opt.LinearConstraint(a, -np.inf, 1)
    res = opt.milp(c, constraints=cons, integrality=np.ones(g.n), bounds=opt.Bounds(0, 1))
    assert res.status == 0, res.message
    return abs(round(res.fun))


def test_companions_match_milp():
    pytest.importorskip("scipy.optimize")
    graphs = [connected_gnp(n, p, seed=7000 + 10 * n + int(100 * p))
              for n in range(14, 25) for p in (0.15, 0.3)]
    # sparse graphs above the oracle's order limit, isolated vertices included
    graphs += [gnp(n, 2.5 / (n - 1), seed=8000 + n) for n in range(25, 65)]
    for g in graphs:
        assert domination_number(g).value == milp_value(g, CLOSED, "min"), g.edges()
        assert open_packing_number(g).value == milp_value(g, ADJ, "max"), g.edges()
        if not all(g.adj):
            with pytest.raises(UndefinedParameterError):
                total_domination_number(g)
            # gamma_t of the graph without its isolated vertices
            g = induced_subgraph(g, sum(1 << v for v, nb in enumerate(g.adj) if nb))
        assert total_domination_number(g).value == milp_value(g, ADJ, "min"), g.edges()
