"""Extremal characterizations: structural recognizers and tight constructions.

Recognizers are purely structural (no solver equality inside); the test suite
and campaign cross-validate them against the exact solvers, which is the point
of keeping the two routes independent.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graphs import MAX_VERTICES, Graph, bits, is_tree, mask_of, scan_subsets
from .solvers import _check_k


# ---------------------------------------------------------------------------
# graphs with L_k == k

def check_Lk_equals_k(g: Graph, k: int) -> bool:
    """Structural test for L_k(G) == k.

    Orders at most k demand n == k exactly; order k+1 demands max degree k;
    larger graphs demand that every (k+1)-subset X either has a vertex
    adjacent to the rest of X or an outside vertex adjacent to all of X (a
    scan bounded by graphs.scan_subsets).  With no loops, the vertices
    adjacent to all of X are the AND of its rows, and all lie outside X.
    bounds.ng_lower_equality_condition runs the same scan on G and its
    complement at once.
    """
    return _lk_equals_k(g.n, k, g.adj)


def _lk_equals_k(n: int, k: int, *families: list[int]) -> bool:
    """check_Lk_equals_k on each graph of order n whose open rows are one of
    families, all in one scan that stops at the first subset failing on any."""
    _check_k(k)
    if n <= k:
        return n == k
    if n == k + 1:
        return all(max(map(int.bit_count, adj)) == k for adj in families)
    full = (1 << n) - 1
    for combo in scan_subsets(n, k):
        x_mask = mask_of(combo)
        for adj in families:
            common = full
            for v in combo:
                common &= adj[v]
            if common:
                continue
            for v in combo:
                if (adj[v] & x_mask).bit_count() == k:
                    break
            else:
                return False
    return True


# ---------------------------------------------------------------------------
# the family attaining L_2 == n + 1 - max_degree

@dataclass(frozen=True)
class ClassGWitness:
    a0: int  # bitmask
    b0: int  # bitmask


def recognize_class_G(g: Graph) -> ClassGWitness | None:
    """Find an (A0, B0) witness, or None.

    A witness is a pair of vertex sets with four properties: A0 and B0
    cover V and share exactly two vertices; A0 holds a spanning star (a
    vertex adjacent to the rest of A0); every B0 vertex has at most one
    neighbour in B0; and every vertex outside B0 has at most two.

    The search only tries A0 == N[v] for maximum-degree v: any witness has a
    spanning-star centre of maximum degree whose closed neighbourhood is
    exactly A0, so this is complete.  Each such v, in ascending order, tries
    the pairs {a, b} of A0 in combinations order, B0 = R | {a, b} with
    R = V - N[v], and returns the first that is a witness.  The first two
    properties hold for every such pair (v is the star centre); the last two
    say that a vertex sees at most one B0 vertex if it lies in B0, else at
    most two.  A vertex other than a and b sees its R-neighbours and
    whichever of a and b it is adjacent to, so with ge1, ge2 and ge3 the
    vertices with at least one, two and three R-neighbours (built once per
    v) those conditions read:
    - an R vertex in ge2 or an A0 vertex in ge3 fails every pair: skip v;
    - a and b lie in B0, so outside ge2;
    - tight = (R & ge1) | ge2, the other vertices already at their limit,
      may not be adjacent to a or b (such candidates are dropped before
      pairing);
    - loose = R | ge1, those within one of it, may not be adjacent to both;
    - a sees its R-neighbours and b: adjacent a and b lie outside ge1.
    """
    adj = g.adj
    degs = g.degrees()
    dmax = max(degs, default=0)
    for v in range(g.n):
        if degs[v] != dmax:
            continue
        a0 = g.closed[v]
        r = g.full_mask & ~a0
        ge1 = ge2 = ge3 = 0
        for w in bits(r):
            m = adj[w]
            ge3 |= ge2 & m
            ge2 |= ge1 & m
            ge1 |= m
        if r & ge2 or a0 & ge3:
            continue
        tight = (r & ge1) | ge2
        loose = r | ge1
        ends = [u for u in bits(a0 & ~ge2) if not adj[u] & tight]
        for a, b in combinations(ends, 2):
            if adj[a] & adj[b] & loose or adj[a] >> b & 1 and (ge1 >> a | ge1 >> b) & 1:
                continue
            return ClassGWitness(a0, r | (1 << a) | (1 << b))
    return None


# ---------------------------------------------------------------------------
# spiders (stars with t subdivided edges)

@dataclass(frozen=True)
class SpiderShape:
    center: int
    t: int  # legs of length two
    s: int  # pendant leaves on the centre


def spider_shapes(g: Graph) -> list[SpiderShape]:
    """All ways to read a tree as a spider; empty when it is not one."""
    shapes = []
    n = g.n
    adj = g.adj
    degs = g.degrees()
    for c in range(n):
        level1 = adj[c]
        level2 = 0
        for v in bits(level1):
            level2 |= adj[v] & ~(1 << c)
        if (1 << c) | level1 | level2 != g.full_mask:
            continue
        if level2 & level1 or level2 >> c & 1:
            continue  # trees cannot do this, but keep the check shape-local
        ok = all(degs[v] == 1 for v in bits(level2))
        t = s = 0
        for v in bits(level1):
            if degs[v] == 1:
                s += 1
            elif degs[v] == 2:
                t += 1
            else:
                ok = False
                break
        if ok and 1 + s + 2 * t == n:
            shapes.append(SpiderShape(c, t, s))
    shapes.sort(key=lambda sh: (sh.t, sh.center))
    return shapes


def recognize_spider(g: Graph) -> SpiderShape | None:
    """Canonical spider shape of a tree (smallest t, then smallest centre)."""
    if not is_tree(g):
        raise ValueError("spider recognition expects a tree")
    shapes = spider_shapes(g)
    return shapes[0] if shapes else None


def is_spider_below_max_degree(g: Graph) -> bool:
    """True iff the tree reads as a t-spider for some t < max_degree."""
    dmax = max(g.degrees(), default=0)
    return any(sh.t < dmax for sh in spider_shapes(g))


# ---------------------------------------------------------------------------
# trees whose open packing number equals L_2

@dataclass(frozen=True)
class ClassTWitness:
    s0: int  # bitmask
    r0: int  # bitmask


def _class_t_witness_ok(g: Graph, s0: int) -> bool:
    if s0 == 0:
        return False
    adj = g.adj
    # induced S0 must be a disjoint union of edges
    for v in bits(s0):
        if (adj[v] & s0).bit_count() != 1:
            return False
    # each matched pair needs an endpoint that is a leaf of the whole tree
    seen = 0
    for v in bits(s0):
        if seen >> v & 1:
            continue
        partner = (adj[v] & s0).bit_length() - 1
        seen |= (1 << v) | (1 << partner)
        if adj[v].bit_count() != 1 and adj[partner].bit_count() != 1:
            return False
    # everything outside S0 sees exactly one S0 vertex
    for r in bits(g.full_mask & ~s0):
        if (adj[r] & s0).bit_count() != 1:
            return False
    return True


def recognize_class_T(g: Graph) -> ClassTWitness | None:
    """Find an (S0, R0) partition witness for a tree, or None.

    A valid S0 is forced up to twin leaves.  A leaf sees only its support
    vertex, so every support vertex is in S0; each matched pair needs a leaf
    endpoint, so each support is matched to one of its own leaves.  Leaves of
    one support are twins, so S0 is taken as the support vertices plus the
    least leaf of each, which is also the least valid mask.
    """
    if not is_tree(g) or g.n < 2:
        raise ValueError("class-T recognition expects a tree with >= 2 vertices")
    adj = g.adj
    s0 = 0
    for v in range(g.n):
        if adj[v].bit_count() == 1 and not s0 & adj[v]:
            s0 |= (1 << v) | adj[v]
    if not _class_t_witness_ok(g, s0):
        return None
    return ClassTWitness(s0, g.full_mask & ~s0)


# ---------------------------------------------------------------------------
# constructions

def construct_diam2(a: int) -> Graph:
    """Diameter-2 graph with L_2 == a: an independent set of size a plus a
    clique holding one private common neighbour per pair, in colex order."""
    if a < 2:
        raise ValueError("construction needs a >= 2")
    pairs = a * (a - 1) // 2
    n = a + pairs
    if n > MAX_VERTICES:
        raise ValueError(f"order {n} exceeds {MAX_VERTICES} (a <= 10)")
    edges = []
    y = a
    for j in range(1, a):
        for i in range(j):
            edges.append((i, y))
            edges.append((j, y))
            y += 1
    for y1 in range(a, n):
        for y2 in range(y1 + 1, n):
            edges.append((y1, y2))
    return Graph.from_edges(n, edges)


def construct_tree_prescribed(a: int, b: int) -> Graph:
    """Tree with L_1 == rho0 == a and L_2 == b, for a+1 <= b <= 2a.

    b == 2a chains a paths of length two by their middles; smaller b hangs
    pendants off a star so that exactly b - a - 1 leaves get doubled.
    """
    if a < 2:
        raise ValueError("construction needs a >= 2")
    if not a + 1 <= b <= 2 * a:
        raise ValueError(f"b must satisfy a+1 <= b <= 2a, got a={a}, b={b}")
    if b == 2 * a:
        n = 3 * a
        if n > MAX_VERTICES:
            raise ValueError(f"order {n} exceeds {MAX_VERTICES}")
        edges = []
        for i in range(a):
            x, y, z = 3 * i, 3 * i + 1, 3 * i + 2
            edges.append((x, y))
            edges.append((y, z))
            if i + 1 < a:
                edges.append((y, 3 * (i + 1) + 1))
        return Graph.from_edges(n, edges)
    r = b - a
    n = 2 * a + r - 1
    if n > MAX_VERTICES:
        raise ValueError(f"order {n} exceeds {MAX_VERTICES}")
    edges = [(0, i) for i in range(1, a + 1)]
    nxt = a + 1
    for i in range(1, r):
        edges.append((i, nxt))
        edges.append((i, nxt + 1))
        nxt += 2
    for i in range(r, a):
        edges.append((i, nxt))
        nxt += 1
    return Graph.from_edges(n, edges)


def construct_spider(t: int, s: int) -> Graph:
    """Star K_{1,t+s} with t of its edges subdivided once.  Order 1 + 2t + s."""
    if t < 0 or s < 0:
        raise ValueError("spider needs t >= 0 and s >= 0")
    n = 1 + 2 * t + s
    if n > MAX_VERTICES:
        raise ValueError(f"order {n} exceeds {MAX_VERTICES}")
    edges = []
    for i in range(t):
        mid, leaf = 1 + 2 * i, 2 + 2 * i
        edges.append((0, mid))
        edges.append((mid, leaf))
    edges.extend((0, 1 + 2 * t + j) for j in range(s))
    return Graph.from_edges(n, edges)


def construct_comb(a: int, pendants: tuple[int, ...] = ()) -> Graph:
    """Spine r_1..r_a, each spine vertex carrying a cherry v_i-u_i, plus
    optional extra leaves on the v_i.  Every such tree keeps rho0 == L_2."""
    if a < 1:
        raise ValueError("comb needs a >= 1")
    if pendants and len(pendants) != a:
        raise ValueError("pendants tuple must have one count per spine vertex")
    if any(count < 0 for count in pendants):
        raise ValueError(f"pendant counts must be >= 0, got {pendants}")
    n = 3 * a + sum(pendants)
    if n > MAX_VERTICES:
        raise ValueError(f"order {n} exceeds {MAX_VERTICES}")
    edges, nxt = [(i, i + 1) for i in range(a - 1)], 3 * a     # the spine r_1..r_a: 0..a-1
    for i, count in enumerate(pendants or (0,) * a):
        v = a + 2 * i                                           # v_{i+1}; u_{i+1} is v + 1
        edges += [(i, v), (v, v + 1)] + [(v, leaf) for leaf in range(nxt, nxt + count)]
        nxt += count
    return Graph.from_edges(n, edges)


_SINGLE_PARAMETER_FAMILIES = {  # name -> (least order, edge list of order n)
    "path": (1, lambda n: [(i, i + 1) for i in range(n - 1)]),
    "cycle": (3, lambda n: [(i, (i + 1) % n) for i in range(n)]),
    "complete": (1, lambda n: combinations(range(n), 2)),
    "star": (1, lambda n: [(0, i) for i in range(1, n)]),
    "complete_minus_edge": (2, lambda n: (e for e in combinations(range(n), 2) if e != (0, 1))),
}


def construct_family(name: str, params) -> Graph:
    """Named parametric families with fixed labellings.  Orders are checked
    before any edge is built."""
    if name in _SINGLE_PARAMETER_FAMILIES:
        least, edges = _SINGLE_PARAMETER_FAMILIES[name]
        n = int(params)
        if not least <= n <= MAX_VERTICES:
            raise ValueError(f"{name} needs {least} <= n <= {MAX_VERTICES}, got {n}")
        return Graph.from_edges(n, edges(n))
    if name == "complete_bipartite":
        m, n = params
        if m < 1 or n < 1:
            raise ValueError("complete bipartite graph needs both parts >= 1")
        if m + n > MAX_VERTICES:
            raise ValueError(f"order {m + n} exceeds {MAX_VERTICES}")
        return Graph.from_edges(m + n, [(i, m + j) for i in range(m) for j in range(n)])
    if name == "spider":
        return construct_spider(*params)
    if name == "comb":
        return construct_comb(int(params))
    raise ValueError(f"unknown family {name!r}")


_SPEC_ARITY = {**dict.fromkeys(_SINGLE_PARAMETER_FAMILIES, 1), "comb": 1, "diam2": 1,
               "complete_bipartite": 2, "spider": 2, "prescribed": 2}


def build_from_spec(text: str) -> Graph:
    """Parse a family spec like 'spider:3,2', 'diam2:4', 'prescribed:8,12', 'path:7'."""
    name, sep, arg = text.partition(":")
    name = name.strip()
    if not sep or not arg.strip():
        raise ValueError(f"family spec needs 'name:params', got {text!r}")
    if name not in _SPEC_ARITY:
        raise ValueError(f"unknown family {name!r}")
    try:
        nums = [int(x) for x in arg.split(",")]
    except ValueError:
        raise ValueError(f"family parameters must be integers, got {arg!r}") from None
    arity = _SPEC_ARITY[name]
    if len(nums) != arity:
        raise ValueError(f"family {name!r} takes {arity} integer parameter"
                         f"{'s' if arity > 1 else ''}, got {len(nums)}")
    if name == "diam2":
        return construct_diam2(*nums)
    if name == "prescribed":
        return construct_tree_prescribed(*nums)
    return construct_family(name, nums[0] if arity == 1 else tuple(nums))
