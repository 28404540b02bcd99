"""Exact solvers for limited packing, open packing, and domination numbers.

Two exact routes for the k-limited packing number: branch and bound, which
handles any graph the package admits, and a subset-enumeration oracle (guarded
to n <= 24), kept as the independent reference.  The companion parameters go
through branch and bound too, at every order: rho0 through the packing search
(_Packing), gamma and gamma_t through the cover search (_cover).  All are
deterministic: the oracle returns the smallest bitmask among maximum
solutions; the packing search keeps its first-fit incumbent unless it finds
a larger set, and the cover search returns its first optimum in search order.
limited_packing_number's default ("auto") is branch and bound at every order;
the oracle runs only on request.  The cover search takes a demand j: gamma
and gamma_t are its j = 1 case, and j-tuple total domination gives L_k of the
complement of a sparse graph from the graph's own rows.  GraphFacts caches
these values for one graph, for the bound panel, the Nordhaus-Gaddum
sums and the campaign.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from time import perf_counter

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


def timed(solve) -> tuple[SolveResult, dict]:
    """solve() and its stats record {nodes_explored, elapsed_s}, seconds to 6 places."""
    t0 = perf_counter()
    res = solve()
    return res, {"nodes_explored": res.nodes_explored, "elapsed_s": round(perf_counter() - t0, 6)}


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


def _cover(rows: list[int], need: int, limit: int | None = None) -> SolveResult:
    """The smallest vertex set S meeting every row in at least need vertices,
    by branch and bound; value n + 1 when no S does.  rows must be symmetric
    (v in rows[u] iff u in rows[v]).

    With open rows and need 1 that is a total dominating set, with closed rows
    a dominating set, and with open rows and a larger need j a j-tuple total
    dominating set.  A vertex is needy while its row holds fewer than j
    members of S, its candidates are the row's vertices not yet chosen or
    excluded, and its slack is its candidates minus its need.  Each node
    branches on the needy vertex of least slack (ties by larger need, then by
    index), choosing each candidate in turn by descending number of needy
    vertices it serves (ties by index) and excluding it from the later
    branches; once fewer candidates are left than the need, the later
    branches are empty and are skipped.  So the first descent is a greedy
    cover and the first incumbent.  A negative slack kills the node, and the
    packing lower bound prunes: needy vertices with pairwise disjoint
    candidate sets, taken greedily by need and then fewest candidates, each
    need their own members of S (the local form of gamma >= rho).  limit,
    when given, caps the search: it starts with limit + 1 as the incumbent,
    so the value is the optimum when that is at most limit and limit + 1
    otherwise.  At j = 1 there is one layer and every slack is the candidate
    count less one, so the search is the plain cover search;
    tests/golden/cover_sparse.json pins its witnesses and node counts.

    The witness is the first optimum in search order; no valid bound prunes
    it, so the bounds change only nodes_explored.
    """
    n = len(rows)
    nodes = 0
    best = n + 1 if limit is None else limit + 1
    best_mask = 0
    full = (1 << n) - 1
    # layer t, bits t*n .. t*n + n - 1 of one int, holds the vertices that
    # need more than t further members of S.  Choosing x clears x's row in
    # every layer and moves each layer down one: a neighbour of x needs one less.
    spread = [sum(row << t * n for t in range(need)) for row in rows]
    needs = [(r, (r - 1) * n) for r in range(need, 0, -1)]  # (need, shift of layer r - 1)

    def cover(chosen: int, chosen_mask: int, layers: int, excluded: int) -> None:
        nonlocal best, best_mask, nodes
        nodes += 1
        if not layers:
            best, best_mask = chosen, chosen_mask
            return
        allowed = ~excluded
        bound = 0
        used = 0
        slack = n
        above = 0
        for r, shift in needs:
            layer = layers >> shift & full
            cands = sorted((rows[u] & allowed for u in bits(layer & ~above)), key=int.bit_count)
            above = layer
            if not cands:
                continue
            if cands[0].bit_count() - r < slack:
                slack = cands[0].bit_count() - r
                if slack < 0:
                    return
                first = cands[0]
            for c in cands:
                if not c & used:
                    bound += r
                    used |= c
        if chosen + bound >= best:
            return
        needy = layers & full
        for x in sorted(bits(first), key=lambda x: -(rows[x] & needy).bit_count())[:slack + 1]:
            xm = 1 << x
            cover(chosen + 1, chosen_mask | xm, layers & ~spread[x] | layers >> n,
                  excluded | xm)
            excluded |= xm

    cover(0, 0, sum(full << t * n for t in range(need)), 0)
    return SolveResult(best, best_mask, nodes, "branch-and-bound")


class _Packing:
    """The packing search over one family of symmetric rows: the set-up once,
    then solve(cap) for any number of caps.  GraphFacts keeps one per graph.

    solve(cap) finds the largest S meeting every row in at most cap vertices,
    by branch and bound.  It branches on vertices by descending row size (ties by
    index), include before exclude.  Residual capacities track cap minus the
    hits on each row; once one is exhausted, every vertex of that row is
    blocked.  The free vertices are the undecided, unblocked ones, and a
    branch dies when the set so far plus a bound on how many free vertices
    can join cannot beat the incumbent.  The bound starts at the count of
    free vertices and falls to the residual cover bound (with closed rows,
    the local form of L_k <= k * gamma).  That splits the free vertices into
    parts inside rows, each holding at most min(|part|, capacity of the
    row): in branching order, every row with more free vertices than
    capacity takes them as a part, and each free vertex left over is a part
    of its own.  Each part lowers the bound by its excess over the capacity,
    so the branch dies as soon as the bound reaches the incumbent.  When no
    row takes a part, every free vertex fits at once: the branch closes with
    all of them chosen, the leaf its include-first descent would reach,
    since a row's capacity runs out only as its last free vertex joins.

    The incumbent starts at a first fit in reverse branching order (each
    vertex taken unless blocked), size and set, so the search only proves
    the fit or beats it.  The witness is that fit when it is optimal, and
    otherwise the last larger packing the search finds.
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
        caps = [cap] * n
        blocked = 0  # vertices in some exhausted row
        fit = 0  # first fit in reverse branching order: the incumbent
        for v in reversed(order):
            if not (blocked >> v) & 1:
                fit |= 1 << v
                for u in members[v]:
                    caps[u] -= 1
                    if caps[u] == 0:
                        blocked |= rows[u]
        nodes = 0
        best, best_mask = fit.bit_count(), fit
        caps = [cap] * n
        blocked = 0

        def walk(pos: int, chosen: int, chosen_mask: int) -> None:
            nonlocal best, best_mask, nodes, blocked
            nodes += 1
            if chosen > best:
                best = chosen
                best_mask = chosen_mask
            free = start = rest[pos] & ~blocked
            bound = chosen + free.bit_count()
            if bound <= best:
                return
            for w, rw in hubs:
                hits = (rw & free).bit_count()
                if hits > caps[w]:
                    bound -= hits - caps[w]
                    if bound <= best:
                        return
                    free &= ~rw
                    if not free:  # no later row can take a part
                        break
            if free == start:  # no row took a part: every free vertex fits
                best = bound
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
    witness is the first fit in reverse branching order when that is
    optimal, and otherwise the last larger packing the search finds.
    """
    _check_k(k)
    return _Packing(g.closed).solve(k)


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
    return _Packing(g.adj).solve(1)


def domination_number(g: Graph) -> SolveResult:
    """Minimum dominating set (closed neighbourhoods of the set cover V)."""
    return _cover(g.closed, 1)


def total_domination_number(g: Graph) -> SolveResult:
    """Minimum total dominating set; undefined when the graph has an isolated vertex."""
    if any(nb == 0 for nb in g.adj):
        raise UndefinedParameterError("total domination undefined: graph has an isolated vertex")
    return _cover(g.adj, 1)


# ---------------------------------------------------------------------------
# exact values of one graph, each solved on its first read

class GraphFacts:
    """Lazily computed exact parameters for one graph.

    Every value comes from branch and bound at every order; only values are
    read, so which optimum a solver returns does not matter here.  One packing
    search over the closed neighbourhoods is prepared on the first lk read and
    answers every k, and lk_bar's complement route prepares one over the
    complement's; rho0 goes through open_packing_number.  The campaign, the
    bound table and the Nordhaus-Gaddum sums read these attributes;
    run_campaign evaluates one graph per isomorphism class of order <= 6, and
    of order 7 too in a corpus with an all_labeled(7) term, so evaluators
    read only invariants.

    lk_bar(k), L_k of the complement, takes its route from the graph.  For
    n > k and j >= 1, a set S of k + j vertices is a k-limited packing of the
    complement iff every vertex has at least j neighbours of S in G, that is
    iff S is a j-tuple total dominating set of G (Henning & Kazemi, Discrete
    Appl. Math. 158, 2010), and a superset of one is one too.  So L_k of the
    complement is n when n <= k, k when G has an isolated vertex, and
    otherwise k plus the largest j <= min(delta, n - k) with gamma_{xj,t}(G) <=
    k + j.  When G has at most as many edges as its complement, lk_bar reads
    that off G's own open rows: j = 1 from gamma_t when it is known, and each
    j from a demand-j cover search capped at k + j, kept per j so that later
    k reuse it; gamma_{xj,t} - j never decreases, so the first j that fails ends
    the scan.  A denser G runs the packing search on the complement's closed
    rows, prepared once for every k.  When log is a list, each lk_bar call
    appends {"k", "route", "searches"}: the route ("tuple-domination", also
    for n <= k and an isolated vertex, or "complement") and each search it ran
    with its nodes_explored and elapsed_s.
    """

    def __init__(self, g: Graph, log: list | None = None):
        self.g = g
        self.n = g.n
        self.log = log
        self._lk: dict[int, int] = {}
        self._lk_bar: dict[int, int] = {}
        self._tuple: dict[int, tuple[int, int]] = {}  # j: (search value, its cap)

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
    def _bar_packing(self) -> _Packing:
        """The packing search over the complement's closed neighbourhoods."""
        return _Packing(complement(self.g).closed)

    def lk_bar(self, k: int) -> int:
        """L_k of the complement."""
        if k not in self._lk_bar:
            _check_k(k)
            self._lk_bar[k] = self._solve_lk_bar(k)
        return self._lk_bar[k]

    def _solve_lk_bar(self, k: int) -> int:
        g, n = self.g, self.n
        delta = min(map(int.bit_count, g.adj), default=0)
        dense = 4 * g.edge_count() > n * (n - 1)
        route = "complement" if n > k and delta and dense else "tuple-domination"
        searches: list[dict] = []
        if self.log is not None:
            self.log.append({"k": k, "route": route, "searches": searches})
        if n <= k:
            return n
        if route == "complement":
            return self._timed(searches, {"search": "packing", "rows": "complement", "k": k},
                               lambda: self._bar_packing.solve(k)).value
        j = 0
        while j < min(delta, n - k) and self._tuple_dominated(j + 1, k + j + 1, searches):
            j += 1
        return k + j

    def _tuple_dominated(self, j: int, size: int, searches: list[dict]) -> bool:
        """gamma_{xj,t}(G) <= size, for j <= delta: from gamma_t when j = 1 and it is
        known, else from a demand-j cover of the open rows, capped at size."""
        if j == 1 and "gamma_t" in self.__dict__:
            return self.gamma_t <= size
        value, cap = self._tuple.get(j, (size + 1, -1))
        if value > cap and cap < size:  # not exact, and not known to exceed size
            record = {"search": "tuple-total-domination", "j": j, "cap": size}
            value = self._timed(searches, record,
                                lambda: _cover(self.g.adj, j, size)).value
            self._tuple[j] = value, size
        return value <= size

    def _timed(self, searches: list[dict], record: dict, solve) -> SolveResult:
        if self.log is None:
            return solve()
        res, stats = timed(solve)
        searches.append({**record, **stats})
        return res

    @cached_property
    def gamma(self) -> int:
        return domination_number(self.g).value

    @cached_property
    def rho0(self) -> int:
        return open_packing_number(self.g).value

    @cached_property
    def gamma_t(self) -> int:
        return total_domination_number(self.g).value
