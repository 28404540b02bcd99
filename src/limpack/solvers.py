"""Exact solvers for limited packing, open packing, and domination numbers.

Two exact routes for the k-limited packing number: a subset-enumeration oracle
(guarded to n <= 24) and a branch-and-bound search, pruned by the residual
cover bound, that handles any graph the package admits.  Both are
deterministic: the oracle returns the smallest bitmask among maximum
solutions, branch and bound the lexicographically greatest one in its
branching order (descending degree, ties by index).
"""
from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, bits

ORACLE_LIMIT = 24


class OracleLimitError(ValueError):
    """Subset enumeration refused; use limited_packing_bb for larger orders."""


class UndefinedParameterError(ValueError):
    """Requested parameter does not exist for this graph (e.g. gamma_t with isolated vertices)."""


@dataclass(frozen=True)
class SolveResult:
    value: int
    witness: int          # vertex bitmask
    nodes_explored: int
    method: str

    def witness_vertices(self) -> list[int]:
        return list(bits(self.witness))


def is_k_limited_packing(g: Graph, k: int, mask: int) -> bool:
    """True iff every closed neighbourhood meets mask in at most k vertices."""
    for cn in g.closed:
        if (cn & mask).bit_count() > k:
            return False
    return True


def _check_k(k: int) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


def limited_packing_oracle(g: Graph, k: int) -> SolveResult:
    """Maximum k-limited packing by full subset enumeration (n <= 24).

    The witness is the first maximum found scanning masks in increasing
    order, i.e. the smallest bitmask among all maximum packings.
    """
    _check_k(k)
    n = g.n
    if n > ORACLE_LIMIT:
        raise OracleLimitError(
            f"oracle enumerates 2^{n} subsets; capped at n <= {ORACLE_LIMIT}, "
            "use limited_packing_bb instead")
    # scan likely-violated (high degree) neighbourhoods first
    closed = sorted(g.closed, key=lambda cn: -cn.bit_count())
    best = -1
    best_mask = 0
    for m in range(1 << n):
        for cn in closed:
            if (cn & m).bit_count() > k:
                break
        else:
            s = m.bit_count()
            if s > best:
                best = s
                best_mask = m
    return SolveResult(best, best_mask, 1 << n, "oracle")


def limited_packing_bb(g: Graph, k: int) -> SolveResult:
    """Maximum k-limited packing by branch and bound (any n <= 64).

    Branches on vertices in descending-degree order (ties by index), include
    before exclude.  Residual capacities track k minus the hits on each
    closed neighbourhood; once one is exhausted, every vertex of that
    neighbourhood is blocked.  The free vertices are the undecided, unblocked
    ones, and a branch dies when the packing so far plus a bound on how many
    free vertices can join cannot beat the incumbent.  Two bounds are tried
    in turn: the count of free vertices, then the residual cover bound, the
    local form of L_k <= k * gamma.  The cover bound splits the free vertices
    into parts inside closed neighbourhoods N[w], each holding at most
    min(|part|, capacity of w) packing vertices: in branching order, every w
    with more free vertices in N[w] than capacity takes them as a part, and
    each free vertex left over is a part of its own.

    The witness is the first maximum packing in search order, i.e. the
    lexicographically greatest optimum in branching order; no valid bound
    prunes it, so the bounds change only nodes_explored.
    """
    _check_k(k)
    n = g.n
    if n == 0:
        return SolveResult(0, 0, 0, "branch-and-bound")
    degs = g.degrees()
    if k > max(degs):
        # every closed neighbourhood has at most max_degree + 1 <= k vertices
        return SolveResult(n, g.full_mask, 0, "branch-and-bound")

    order = sorted(range(n), key=lambda v: (-degs[v], v))
    closed = g.closed
    # only an N[w] with more than k vertices can hold more free vertices than
    # w's capacity: each packing vertex that spent some of it is not free
    hubs = [(w, closed[w]) for w in order if degs[w] >= k]
    rest = [0] * (n + 1)  # rest[pos]: mask of order[pos:]
    for pos in range(n - 1, -1, -1):
        rest[pos] = rest[pos + 1] | (1 << order[pos])
    best = 0
    best_mask = 0
    nodes = 0
    caps = [k] * n
    blocked = 0  # vertices whose closed neighbourhood meets an exhausted one

    def walk(pos: int, chosen: int, chosen_mask: int) -> None:
        nonlocal best, best_mask, nodes, blocked
        nodes += 1
        if chosen > best:
            best = chosen
            best_mask = chosen_mask
        free = rest[pos] & ~blocked
        if chosen + free.bit_count() <= best:
            return
        bound = chosen
        for w, cw in hubs:
            if (cw & free).bit_count() > caps[w]:
                bound += caps[w]
                free &= ~cw
        if bound + free.bit_count() <= best:
            return
        v = order[pos]
        if not (blocked >> v) & 1:
            saved = blocked
            for u in bits(closed[v]):
                caps[u] -= 1
                if caps[u] == 0:
                    blocked |= closed[u]
            walk(pos + 1, chosen + 1, chosen_mask | (1 << v))
            blocked = saved
            for u in bits(closed[v]):
                caps[u] += 1
        walk(pos + 1, chosen, chosen_mask)

    walk(0, 0, 0)
    return SolveResult(best, best_mask, nodes, "branch-and-bound")


def limited_packing_number(g: Graph, k: int, method: str = "auto") -> SolveResult:
    """Dispatch to the oracle for small orders, branch and bound otherwise."""
    if method == "oracle":
        return limited_packing_oracle(g, k)
    if method == "bb":
        return limited_packing_bb(g, k)
    if method == "auto":
        if g.n <= 12:
            return limited_packing_oracle(g, k)
        return limited_packing_bb(g, k)
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# companion parameters, all by subset enumeration (n <= 24)

def _enumeration_guard(g: Graph, what: str) -> None:
    if g.n > ORACLE_LIMIT:
        raise OracleLimitError(f"{what} enumerates 2^{g.n} subsets; capped at n <= {ORACLE_LIMIT}")


def is_open_packing(g: Graph, mask: int) -> bool:
    """True iff every open neighbourhood meets mask in at most one vertex."""
    for nb in g.adj:
        if (nb & mask).bit_count() > 1:
            return False
    return True


def is_dominating_set(g: Graph, mask: int) -> bool:
    cover = mask
    for v in bits(mask):
        cover |= g.adj[v]
    return cover == g.full_mask


def is_total_dominating_set(g: Graph, mask: int) -> bool:
    cover = 0
    for v in bits(mask):
        cover |= g.adj[v]
    return cover == g.full_mask


def open_packing_number(g: Graph) -> SolveResult:
    """Maximum open packing (|N(v) & S| <= 1 for every v)."""
    _enumeration_guard(g, "open packing")
    n = g.n
    adj = sorted(g.adj, key=lambda nb: -nb.bit_count())
    best = -1
    best_mask = 0
    for m in range(1 << n):
        for nb in adj:
            if (nb & m).bit_count() > 1:
                break
        else:
            s = m.bit_count()
            if s > best:
                best = s
                best_mask = m
    return SolveResult(best, best_mask, 1 << n, "oracle")


def domination_number(g: Graph) -> SolveResult:
    """Minimum dominating set (closed neighbourhoods of the set cover V)."""
    _enumeration_guard(g, "domination")
    n = g.n
    closed = g.closed
    full = g.full_mask
    best = n + 1
    best_mask = full
    for m in range(1 << n):
        if m.bit_count() >= best:
            continue
        cover = 0
        mm = m
        while mm:
            low = mm & -mm
            cover |= closed[low.bit_length() - 1]
            mm ^= low
        if cover == full:
            best = m.bit_count()
            best_mask = m
    if n == 0:
        best, best_mask = 0, 0
    return SolveResult(best, best_mask, 1 << n, "oracle")


def total_domination_number(g: Graph) -> SolveResult:
    """Minimum total dominating set; undefined when the graph has an isolated vertex."""
    _enumeration_guard(g, "total domination")
    n = g.n
    if n == 0:
        return SolveResult(0, 0, 1, "oracle")
    if any(nb == 0 for nb in g.adj):
        raise UndefinedParameterError("total domination undefined: graph has an isolated vertex")
    adj = g.adj
    full = g.full_mask
    best = n + 1
    best_mask = full
    for m in range(1 << n):
        if m.bit_count() >= best:
            continue
        cover = 0
        mm = m
        while mm:
            low = mm & -mm
            cover |= adj[low.bit_length() - 1]
            mm ^= low
        if cover == full:
            best = m.bit_count()
            best_mask = m
    return SolveResult(best, best_mask, 1 << n, "oracle")
