"""Closed formulas and hypothesis-gated bounds for the k-limited packing number.

Each bound is one Bound row of the BOUNDS table: its hypothesis, its value as
a rational, and the statement it belongs to.  bound_report lists the rows as
BoundEntry records whose hypothesis was actually checked against the graph
profile; entries whose hypothesis fails carry applicable=False and no value.
The campaign judges every per-graph statement by rows of the same type: the
statements made only of panel rows by the rows citing them here, the rest
by campaign.CAMPAIGN_ROWS, whose rows may bound another fact than L_k (say
L_k(G) + L_k(complement)), carry a structural iff test, and reuse panel
rows.  A row's slack is how far its fact stands from breaking it.  Bounds
derived from gamma, L_1, or rho0 read them from an aux object: bound_report
and the campaign both pass a solvers.GraphFacts, which solves each on its
first read; bound_report's exact L_k and the Nordhaus-Gaddum sums read the
same cache.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .extremal import _lk_equals_k
from .graphs import Graph, GraphProfile, emit_graph6, profile
from . import solvers


@dataclass(frozen=True)
class BoundEntry:
    id: str
    direction: str          # "lower" | "upper" | "exact"
    applicable: bool
    value: int | None
    raw: str | None         # untruncated rational, when the bound is fractional
    hypothesis: str
    citation: str           # theorem-registry id backing the entry

    def as_dict(self) -> dict:
        return self.__dict__.copy()  # a copy: the record is frozen, the dict is the caller's


# ---------------------------------------------------------------------------
# closed formulas

def closed_form(family: str, params, k: int) -> int:
    """Exact L_k for paths, cycles, complete, and complete bipartite graphs."""
    solvers._check_k(k)
    if family == "path":
        n = int(params)
        if n < 1:
            raise ValueError("path needs n >= 1")
        return n if k >= 3 else -(-k * n // 3)          # ceil(kn/3)
    if family == "cycle":
        n = int(params)
        if n < 3:
            raise ValueError("cycle needs n >= 3")
        return n if k >= 3 else k * n // 3              # floor(kn/3)
    if family == "complete":
        n = int(params)
        if n < 1:
            raise ValueError("complete graph needs n >= 1")
        return min(k, n)
    if family == "complete_bipartite":
        m, n = params
        if m < 1 or n < 1:
            raise ValueError("complete bipartite graph needs both parts >= 1")
        if k == 1:
            return 1
        return min(k - 1, m) + min(k - 1, n)
    raise ValueError(f"no closed formula for family {family!r}")


# ---------------------------------------------------------------------------
# the bound table, shared by the bound panel and the campaign

@dataclass(frozen=True)
class Bound:
    """One hypothesis-gated bound on a fact of the graph, L_k unless fact says.

    applies, num and den take (n, p, k, aux): the order, the GraphProfile, k,
    and an object whose lk, lk_bar, gamma, l1, rho0 and gamma_t give the
    exact values (a solvers.GraphFacts solves each on its first read, so num
    reads one only once applies holds).  value() is the one rounding: num/den
    inward, up for lower bounds and down for the rest; den=None marks an
    integral bound, and only fractional bounds show their raw rational.

    The panel's rows bound L_k.  The campaign's rows may also set:
    - fact, taking (n, p, k, aux): the value bounded, in place of L_k;
    - direction "iff": a row that bounds nothing and only carries iff;
    - iff, taking (n, p, k, aux): a structural test that holds exactly when
      the fact equals the value;
    - text and iff_text, the violation texts when the fact breaks the value
      and when iff disagrees: a format string over the names n, k, p, a (the
      aux), fact, value, num, den, shown (num or num/den), op, id, held (the
      iff test) and witness ("found" or "absent" by held), or a callable
      taking them as attributes where a format string cannot say it.  The
      default text speaks of L_k, so a row whose fact is not L_k has its own.
    tie is the campaign's positive case: "value" (the fact equals the value),
    "raw" (it equals num/den), "any" (every substantive check) or "none".
    """
    id: str
    direction: str          # "lower" | "upper" | "exact" | "iff"
    hypothesis: str
    citation: str           # theorem-registry id of the statement it belongs to
    applies: Callable
    num: Callable
    den: Callable | None = None
    tie: str = "value"
    listed: Callable = lambda k: True   # whether it covers k; panel and campaign skip it elsewhere
    fact: Callable | None = None
    iff: Callable | None = None
    text: str | Callable = "L_{k}={fact} {op} {id}={shown}"
    iff_text: str | Callable | None = None

    def value(self, n: int, p: GraphProfile, k: int, aux) -> tuple[int, int, int]:
        """(value, num, den): the bound once its hypothesis holds."""
        num = self.num(n, p, k, aux)
        den = 1 if self.den is None else self.den(n, p, k, aux)
        return (-(-num // den) if self.direction == "lower" else num // den), num, den

    def slack(self, n: int, p: GraphProfile, k: int, aux) -> int:
        """How far the fact stands from breaking the row, once its hypothesis
        holds: fact - value for a lower row, value - fact for an upper one,
        -|fact - value| for an exact or an iff one.  An iff test, where a row
        has one, also bounds it: by -|fact - value| where the test holds, and
        where it fails, when the fact must differ from the value, by
        |fact - value|, or -1 if they are equal.  Negative exactly on a
        violation, and 0 exactly where the fact equals the value and any iff
        test holds.
        """
        gap = (aux.lk(k) if self.fact is None else self.fact(n, p, k, aux)) \
            - self.value(n, p, k, aux)[0]
        slack = {"lower": gap, "upper": -gap}.get(self.direction, -abs(gap))
        if self.iff is None:
            return slack
        tested = -abs(gap) if self.iff(n, p, k, aux) else abs(gap) or -1
        return tested if self.direction == "iff" else min(slack, tested)

    def entry(self, n: int, p: GraphProfile, k: int, aux) -> BoundEntry:
        if not self.applies(n, p, k, aux):
            return BoundEntry(self.id, self.direction, False, None, None, self.hypothesis,
                              self.citation)
        value, num, den = self.value(n, p, k, aux)
        raw = None if self.den is None else f"{num}/{den}"
        return BoundEntry(self.id, self.direction, True, value, raw, self.hypothesis, self.citation)


def connected(n: int, p: GraphProfile) -> bool:
    """Connected and nonempty.  profile() counts K_0 as connected with
    diameter 0, but no statement about connected graphs covers it."""
    return n >= 1 and p.connected


def _has_girth(n, p, k, a):
    return p.girth is not None


_LOWER = (
    Bound("exact-order-le-k", "exact", "n <= k", "prop-small-order",
          lambda n, p, k, a: n <= k, lambda n, p, k, a: n),
    Bound("exact-order-k-plus-1", "exact", "n == k+1", "prop-order-kplus1",
          lambda n, p, k, a: n == k + 1,
          lambda n, p, k, a: k if p.max_degree == k else k + 1),
    Bound("order-lower", "lower", "n >= k+2", "prop-lk-geq-k",
          lambda n, p, k, a: n >= k + 2, lambda n, p, k, a: k),
    Bound("diam-lower", "lower", "connected and k in {1,2}", "lem-diam-lower-k12",
          lambda n, p, k, a: k <= 2 and connected(n, p),
          lambda n, p, k, a: -(-(k + k * p.diameter) // 3)),
    Bound("diam-lower-k3", "lower", "connected and max_degree >= k >= 3", "th-diam-lower-k3",
          lambda n, p, k, a: k >= 3 and p.max_degree >= k and connected(n, p),
          lambda n, p, k, a: p.diameter + k - 2),
    Bound("girth-lower", "lower", "girth finite and k == 1", "th-girth-l1",
          _has_girth, lambda n, p, k, a: p.girth // 3, listed=lambda k: k == 1),
    Bound("girth-lower", "lower", "girth finite and k == 2", "th-girth-l2-lk",
          _has_girth, lambda n, p, k, a: 2 * p.girth // 3, listed=lambda k: k == 2),
    Bound("girth-lower", "lower", "girth finite and max_degree >= k >= 3", "th-girth-l2-lk",
          lambda n, p, k, a: p.girth is not None and p.max_degree >= k,
          lambda n, p, k, a: p.girth + k - 3, listed=lambda k: k >= 3),
    Bound("maxdeg-sq-lower", "lower", "k == 1", "lem-l1-maxdeg-lower",
          lambda n, p, k, a: n >= 1, lambda n, p, k, a: n,
          lambda n, p, k, a: p.max_degree ** 2 + 1, listed=lambda k: k == 1),
    Bound("chain-lower", "lower", "k >= 2 and max_degree >= k-1, needs exact L_1",
          "lem-monotone-chain",
          lambda n, p, k, a: k >= 2 and p.max_degree >= k - 1,
          lambda n, p, k, a: a.l1 + k - 1),
    Bound("openpack-half-lower", "lower", "k == 1, needs exact rho0", "lem-openpack-sandwich",
          lambda n, p, k, a: k == 1,
          lambda n, p, k, a: a.rho0, lambda *_: 2, tie="raw"),
    Bound("openpack-lower", "lower", "tree and k == 2, needs exact rho0",
          "th-classT-characterization",
          lambda n, p, k, a: k == 2 and p.is_tree,
          lambda n, p, k, a: a.rho0),
)

_UPPER = (
    Bound("kgamma-upper", "upper", "needs exact gamma", "lem-kgamma",
          lambda *_: True, lambda n, p, k, a: k * a.gamma),
    Bound("mindeg-ratio-upper", "upper", "always", "lem-delta-upper",
          lambda n, p, k, a: n >= 1, lambda n, p, k, a: k * n,
          lambda n, p, k, a: p.min_degree + 1, tie="raw"),
    Bound("order-degree-upper", "upper", "always", "th-order-degree-upper",
          lambda n, p, k, a: n >= 1, lambda n, p, k, a: n + k - 1 - p.max_degree),
    Bound("improved-diam-upper", "upper", "connected and k == 2", "th-improved-diam-upper",
          lambda n, p, k, a: k == 2 and connected(n, p),
          lambda n, p, k, a: n + 1 - p.max_degree - (p.diameter - 4) // 3),
    Bound("four-fifths-upper", "upper", "connected, n >= 3, k == 2", "lem-45-upper",
          lambda n, p, k, a: k == 2 and n >= 3 and connected(n, p),
          lambda n, p, k, a: 4 * n, lambda *_: 5, tie="raw"),
    Bound("deg-ratio-upper", "upper", "connected and min_degree >= k", "lem-kk1-upper",
          lambda n, p, k, a: p.min_degree >= k and connected(n, p),
          lambda n, p, k, a: k * n, lambda n, p, k, a: k + 1, tie="raw"),
    Bound("tree-nonleaf-upper", "upper",
          "tree with every internal vertex of degree >= 4, k == 2", "th-tree-deltaprime",
          lambda n, p, k, a: k == 2 and p.is_tree and p.min_nonleaf_degree is not None
          and p.min_nonleaf_degree >= 4,
          lambda n, p, k, a: 2 * n, lambda *_: 3, tie="any"),
    Bound("l1-ratio-upper", "upper", "k == 2 and graph has an edge, needs exact L_1",
          "prop-l1-l2-sandwich",
          lambda n, p, k, a: k == 2 and p.max_degree >= 1,
          lambda n, p, k, a: 2 * (p.max_degree ** 2 + 1) * a.l1,
          lambda n, p, k, a: p.min_degree + 1),
    Bound("openpack-upper", "upper", "k == 1, needs exact rho0", "lem-openpack-sandwich",
          lambda n, p, k, a: k == 1, lambda n, p, k, a: a.rho0),
    Bound("double-openpack-upper", "upper", "tree and k == 2, needs exact rho0",
          "th-classT-characterization",
          lambda n, p, k, a: k == 2 and p.is_tree,
          lambda n, p, k, a: 2 * a.rho0),
    Bound("universal-vertex-exact", "exact", "k == 2, n >= 2, max_degree == n-1",
          "lem-maxdeg-n1",
          lambda n, p, k, a: k == 2 and n >= 2 and p.max_degree == n - 1, lambda *_: 2),
    Bound("cutvertex-diam2-exact", "exact", "k == 2, diameter 2, has a cut vertex",
          "lem-cutvertex-diam2",
          lambda n, p, k, a: k == 2 and p.diameter == 2 and p.cut_vertices != 0,
          lambda *_: 2),
)

# panel order: the lower half by id, then the upper half by id
BOUNDS: tuple[Bound, ...] = (tuple(sorted(_LOWER, key=lambda b: b.id))
                             + tuple(sorted(_UPPER, key=lambda b: b.id)))


def bounds_for(citation: str) -> tuple[Bound, ...]:
    """The table rows backing one registry statement, in panel order."""
    return tuple(b for b in BOUNDS if b.citation == citation)


(_ORDER_DEGREE,) = bounds_for("th-order-degree-upper")


def small_order_value(g: Graph, k: int) -> int | None:
    """Exact L_k for graphs of order at most k+1; None when the order is larger."""
    solvers._check_k(k)
    p = profile(g)
    for b in bounds_for("prop-small-order") + bounds_for("prop-order-kplus1"):
        if b.applies(g.n, p, k, None):
            return b.value(g.n, p, k, None)[0]
    return None


@dataclass(frozen=True)
class BoundReport:
    graph6: str
    k: int
    n: int
    entries: tuple[BoundEntry, ...]
    exact: int | None

    def best_lower(self) -> int | None:
        vals = [e.value for e in self.entries
                if e.applicable and e.direction in ("lower", "exact")]
        return max(vals) if vals else None

    def best_upper(self) -> int | None:
        vals = [e.value for e in self.entries
                if e.applicable and e.direction in ("upper", "exact")]
        return min(vals) if vals else None

    def as_dict(self) -> dict:
        return {
            "graph6": self.graph6,
            "k": self.k,
            "n": self.n,
            "exact": self.exact,
            "best_lower": self.best_lower(),
            "best_upper": self.best_upper(),
            "entries": [e.as_dict() for e in self.entries],
        }


def bound_report(g: Graph, k: int, with_exact: bool = False) -> BoundReport:
    """Assemble every bound entry for (g, k).

    Auxiliary exact values (gamma, L_1, rho0) are solved only when an entry
    whose other hypotheses hold reads them.
    """
    solvers._check_k(k)
    f = solvers.GraphFacts(g)
    entries = tuple(b.entry(g.n, f.profile, k, f) for b in BOUNDS if b.listed(k))
    exact = f.lk(k) if with_exact else None
    return BoundReport(emit_graph6(g), k, g.n, entries, exact)


# ---------------------------------------------------------------------------
# Nordhaus-Gaddum sums

@dataclass(frozen=True)
class NGReport:
    graph6: str
    k: int
    n: int
    value: int
    value_complement: int
    total: int
    lower_bound: int
    lower_applicable: bool
    upper_bound: int
    case: str               # both-small-delta | both-large-delta | mixed
    refinement_upper: int | None  # n+2 when k == 2

    def as_dict(self) -> dict:
        return self.__dict__.copy()


def ng_lower_bound(n: int, k: int) -> tuple[int, bool]:
    """prop-ng-lower: (2k, whether it applies); L_k(G) + L_k(complement) >= 2k once n >= k."""
    return 2 * k, n >= k


def ng_upper_bound(n: int, k: int, max_degree: int, min_degree: int) -> tuple[str, int]:
    """th-ng-upper's case split: (case, bound on L_k(G) + L_k(complement))."""
    max_degree_bar = max(n - 1 - min_degree, 0)
    if k >= max(max_degree, max_degree_bar) + 1:
        return "both-small-delta", 2 * n
    if k <= min(max_degree, max_degree_bar):
        return "both-large-delta", n + 2 * k - 2
    return "mixed", 2 * n - 1


def ng_refinement_bound(n: int, k: int) -> int | None:
    """lem-ng-l2-n-plus-2: L_2(G) + L_2(complement) <= n + 2; None at other k."""
    return n + 2 if k == 2 else None


def nordhaus_gaddum(g: Graph, k: int, stats: dict | None = None) -> NGReport:
    """Exact L_k(G) + L_k(complement) with the matching case-split upper bound.

    stats, when a dict, receives the GraphFacts records of the two solves:
    "L<k>" and "L<k>_bar", the route and searches of L_k(complement).
    """
    f = solvers.GraphFacts(g, stats)
    val, val_bar = f.lk(k), f.lk_bar(k)
    n = g.n
    degs = g.degrees()
    lower, lower_applicable = ng_lower_bound(n, k)
    case, upper = ng_upper_bound(n, k, max(degs, default=0), min(degs, default=0))
    return NGReport(
        graph6=emit_graph6(g), k=k, n=n,
        value=val, value_complement=val_bar, total=val + val_bar,
        lower_bound=lower, lower_applicable=lower_applicable,
        upper_bound=upper, case=case,
        refinement_upper=ng_refinement_bound(n, k))


def ng_lower_equality_condition(g: Graph, k: int) -> bool:
    """Structural test for L_k(G) + L_k(complement) == 2k.

    Either the graph has exactly k vertices, or every (k+1)-subset X satisfies
    one of: (a) some vertex of X is adjacent to the rest of X and some outside
    vertex misses all of X; (b) some outside vertex covers all of X and X has
    an isolated vertex in its induced subgraph; (c) one outside vertex covers
    all of X and another outside vertex misses all of X.

    That is check_Lk_equals_k on G and on its complement, in one scan.  Once
    n >= k both terms are at least k, so the sum is 2k iff both equal k; and
    (a), (b) or (c) holds iff X passes the test on G (a vertex adjacent to the
    rest of X, or a cover) and on the complement (an isolated vertex, or a
    miss), since no X of k + 1 >= 2 vertices has both kinds of vertex.
    """
    full = g.full_mask
    return _lk_equals_k(g.n, k, g.adj, [full ^ cn for cn in g.closed])


# ---------------------------------------------------------------------------
# regular graphs attaining the order/degree upper bound

@dataclass(frozen=True)
class RegularEqualityResult:
    regular: bool
    degree: int | None
    applicable: bool        # regular and k <= degree
    premise_holds: bool     # L_k == n + k - 1 - degree
    conclusion_holds: bool  # 2*degree >= n
    vacuous: bool
    passed: bool


def regular_premise(n: int, p: GraphProfile, k: int, lk: Callable[[int], int]) -> bool:
    """cor-regular-half's premise: the graph is d-regular with k <= d and its
    L_k attains the order/degree bound n+k-1-d (the conclusion is 2d >= n);
    lk(k) is only called once the graph is d-regular with k <= d."""
    d = p.max_degree
    return (n >= 1 and p.min_degree == d and k <= d
            and lk(k) == _ORDER_DEGREE.value(n, p, k, None)[0])


def regular_equality_check(g: Graph, k: int) -> RegularEqualityResult:
    solvers._check_k(k)
    f = solvers.GraphFacts(g)
    n, p = g.n, f.profile
    premise = regular_premise(n, p, k, f.lk)
    regular = n >= 1 and p.min_degree == p.max_degree
    d = p.max_degree if regular else None
    conclusion = regular and 2 * d >= n
    return RegularEqualityResult(regular, d, regular and k <= d, premise, conclusion,
                                 not premise, not premise or conclusion)
