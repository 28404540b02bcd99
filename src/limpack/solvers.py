"""Exact solvers for limited packing, open packing, and domination numbers.

Two exact routes for the k-limited packing number: branch and bound, which
handles any graph the package admits, and a subset-enumeration oracle (guarded
to n <= 24), kept as the independent reference.  The companion parameters
rho0, gamma and gamma_t go through the same branch-and-bound engine, at every
order.  All are deterministic: the oracle returns the smallest bitmask among
maximum solutions, branch and bound the first optimum in its search order.
limited_packing_number's default ("auto") is branch and bound at every order;
the oracle runs only on request.  GraphFacts caches these values for one
graph, for the bound panel, the Nordhaus-Gaddum sums and the campaign.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .graphs import Graph, GraphProfile, bits, complement, profile

ORACLE_LIMIT = 24


class OracleLimitError(ValueError):
    """Order above ORACLE_LIMIT for the subset oracle; use limited_packing_bb
    for larger orders."""


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


def _search(rows: list[int], cap: int, sense: str) -> SolveResult:
    """Branch and bound over vertex sets S, given symmetric rows (v in rows[u] iff u in rows[v]).

    sense "max" (packing): the largest S meeting every row in at most cap
    vertices, by a _Packing over the rows (see there), prepared and solved once.

    sense "min" (cover; cap is 1): the smallest S meeting every row.  Each
    node branches on the uncovered vertex with the fewest candidates (row
    vertices not yet excluded; ties by index), choosing each candidate in
    turn by descending number of uncovered vertices it covers (ties by
    index) and excluding it from the later branches, so the first descent is
    a greedy cover and the first incumbent.  The packing lower bound prunes:
    uncovered vertices with pairwise disjoint candidate sets, taken greedily
    by fewest candidates, each need their own vertex of S (the local form of
    gamma >= rho).

    The witness is the first optimum in search order; no valid bound prunes
    it, so the bounds change only nodes_explored.
    """
    n = len(rows)
    nodes = 0
    if sense == "min":
        best = n + 1
        best_mask = 0

        def cover(chosen: int, chosen_mask: int, uncovered: int, excluded: int) -> None:
            nonlocal best, best_mask, nodes
            nodes += 1
            if not uncovered:
                best, best_mask = chosen, chosen_mask
                return
            allowed = ~excluded
            cands = sorted((rows[u] & allowed for u in bits(uncovered)), key=int.bit_count)
            if not cands[0]:
                return
            need = 0
            used = 0
            for c in cands:
                if not c & used:
                    need += 1
                    used |= c
            if chosen + need >= best:
                return
            for x in sorted(bits(cands[0]), key=lambda x: -(rows[x] & uncovered).bit_count()):
                cover(chosen + 1, chosen_mask | (1 << x), uncovered & ~rows[x], excluded)
                excluded |= 1 << x

        cover(0, 0, (1 << n) - 1, 0)
        return SolveResult(best, best_mask, nodes, "branch-and-bound")

    return _Packing(rows).solve(cap)


class _Packing:
    """_search's packing sense over one row family: the set-up once, then
    solve(cap) for any number of caps.  GraphFacts keeps one per graph.

    solve(cap) finds the largest S meeting every row in at most cap
    vertices.  It branches on vertices by descending row size (ties by
    index), include before exclude.  Residual capacities track cap minus the
    hits on each row; once one is exhausted, every vertex of that row is
    blocked.  The free vertices are the undecided, unblocked ones, and a
    branch dies when the set so far plus a bound on how many free vertices
    can join cannot beat the incumbent.  Two bounds are tried in turn: the
    count of free vertices, then the residual cover bound (with closed rows,
    the local form of L_k <= k * gamma).  It splits the free vertices into
    parts inside rows, each holding at most min(|part|, capacity of the
    row): in branching order, every row with more free vertices than
    capacity takes them as a part, and each free vertex left over is a part
    of its own.  When no row takes a part, every free vertex fits at once:
    the branch closes with all of them chosen, the leaf its include-first
    descent would reach, since a row's capacity runs out only as its last
    free vertex joins.
    """

    __slots__ = ("rows", "sizes", "order", "rest", "members")

    def __init__(self, rows: list[int]):
        n = len(rows)
        self.rows = rows
        self.sizes = sizes = [row.bit_count() for row in rows]
        self.order = order = sorted(range(n), key=lambda v: (-sizes[v], v))
        self.rest = rest = [0] * (n + 1)  # rest[pos]: mask of order[pos:]
        for pos in range(n - 1, -1, -1):
            rest[pos] = rest[pos + 1] | (1 << order[pos])
        # lists, not tuples: freed tuples of these sizes collect in CPython's
        # tuple free lists, which added about 1 MB to peak RSS over many searches
        self.members = [list(bits(row)) for row in rows]

    def solve(self, cap: int) -> SolveResult:
        rows, sizes, order, rest, members = self.rows, self.sizes, self.order, self.rest, self.members
        n = len(rows)
        if not order or sizes[order[0]] <= cap:
            # no row can exceed its cap, even with every vertex chosen
            return SolveResult(n, (1 << n) - 1, 0, "branch-and-bound")
        # only a row with more than cap vertices can hold more free vertices than
        # its capacity: each chosen vertex that spent some of it is not free
        hubs = [(w, rows[w]) for w in order if sizes[w] > cap]
        nodes = 0
        best = 0
        best_mask = 0
        caps = [cap] * n
        blocked = 0  # vertices in some exhausted row

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
            for w, rw in hubs:
                if (rw & free).bit_count() > caps[w]:
                    bound += caps[w]
                    free &= ~rw
                    if not free:  # no later row can take a part
                        break
            if bound + free.bit_count() <= best:
                return
            if bound == chosen:  # no row took a part: every free vertex fits
                best = chosen + free.bit_count()
                best_mask = chosen_mask | free
                return
            v = order[pos]
            if not (blocked >> v) & 1:
                saved = blocked
                for u in members[v]:
                    caps[u] -= 1
                    if caps[u] == 0:
                        blocked |= rows[u]
                walk(pos + 1, chosen + 1, chosen_mask | (1 << v))
                blocked = saved
                for u in members[v]:
                    caps[u] += 1
            walk(pos + 1, chosen, chosen_mask)

        walk(0, 0, 0)
        return SolveResult(best, best_mask, nodes, "branch-and-bound")


def limited_packing_bb(g: Graph, k: int) -> SolveResult:
    """Maximum k-limited packing by branch and bound (any n <= 64).

    The packing search over closed neighbourhoods with cap k: branching in
    descending-degree order, pruned by the residual cover bound.  The
    witness is the first maximum packing in search order, i.e. the
    lexicographically greatest optimum in branching order.
    """
    _check_k(k)
    return _search(g.closed, k, "max")


def limited_packing_number(g: Graph, k: int, method: str = "auto") -> SolveResult:
    """L_k by the oracle on request ("oracle"), else by branch and bound ("bb", "auto")."""
    if method == "oracle":
        return limited_packing_oracle(g, k)
    if method in ("auto", "bb"):
        return limited_packing_bb(g, k)
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# companion parameters, by the same branch and bound

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
    return _search(g.adj, 1, "max")


def domination_number(g: Graph) -> SolveResult:
    """Minimum dominating set (closed neighbourhoods of the set cover V)."""
    return _search(g.closed, 1, "min")


def total_domination_number(g: Graph) -> SolveResult:
    """Minimum total dominating set; undefined when the graph has an isolated vertex."""
    if any(nb == 0 for nb in g.adj):
        raise UndefinedParameterError("total domination undefined: graph has an isolated vertex")
    return _search(g.adj, 1, "min")


# ---------------------------------------------------------------------------
# exact values of one graph, each solved on its first read

class GraphFacts:
    """Lazily computed exact parameters for one graph.

    Every value, L_k of the graph and of its complement included, comes from
    branch and bound at every order; only values are read, so which optimum
    a solver returns does not matter here.  One packing search over the
    closed neighbourhoods is prepared on the first lk read and answers every
    k, and the complement's GraphFacts keeps its own for lk_bar; both live as
    long as this object.  The campaign, the bound table and the
    Nordhaus-Gaddum sums read these attributes; run_campaign evaluates one
    graph per isomorphism class of order <= 6, and of order 7 too in a corpus
    with an all_labeled(7) term, so evaluators read only invariants.
    """

    def __init__(self, g: Graph):
        self.g = g
        self.n = g.n
        self._lk: dict[int, int] = {}

    @cached_property
    def profile(self) -> GraphProfile:
        return profile(self.g)

    @cached_property
    def _packing(self) -> _Packing:
        """The packing search over the closed neighbourhoods, for every k."""
        return _Packing(self.g.closed)

    def lk(self, k: int) -> int:
        if k not in self._lk:
            _check_k(k)
            self._lk[k] = self._packing.solve(k).value
        return self._lk[k]

    @property
    def l1(self) -> int:
        return self.lk(1)

    @cached_property
    def _bar(self) -> GraphFacts:
        """The facts of the complement, built on the first read."""
        return GraphFacts(complement(self.g))

    def lk_bar(self, k: int) -> int:
        """L_k of the complement."""
        return self._bar.lk(k)

    @cached_property
    def gamma(self) -> int:
        return domination_number(self.g).value

    @cached_property
    def rho0(self) -> int:
        return open_packing_number(self.g).value

    @cached_property
    def gamma_t(self) -> int:
        return total_domination_number(self.g).value
