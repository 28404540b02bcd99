"""Graph corpora for the verification campaign.

Three sources: exhaustive labeled graphs in edge-mask order, labeled trees via
the Pruefer bijection (with an isomorphism-class mode for campaign sweeps),
and seeded random connected graphs.  The random stream is splitmix64, fixed
here so reports reproduce bit-for-bit anywhere:

    state += 0x9E3779B97F4A7C15            (mod 2^64)
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    z =  z ^ (z >> 31)

An edge is present when the next draw is below edge_prob * 2^64.
"""
from __future__ import annotations

from array import array
from functools import cache
from itertools import islice, product
from typing import Iterator

from .graphs import (_EDGE_PAIRS, GRAPH6_LINE_LIMIT, Graph, GraphFormatError,
                     _reach, bits, parse_graph6)

LABELED_LIMIT = 7
# the orbit table of order 7 (2^21 masks) is built only for all_labeled(7)
CLASS_LIMIT = 6
TREE_EXHAUSTIVE_LIMIT = 10
RANDOM_LIMIT = 16

_MASK64 = (1 << 64) - 1


class RejectionBudgetError(RuntimeError):
    """Random generation failed to hit a connected graph within budget."""


def splitmix64(seed: int) -> Iterator[int]:
    """Endless stream of 64-bit values from the documented mix function."""
    state = seed & _MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


# ---------------------------------------------------------------------------
# exhaustive labeled graphs

def enumerate_labeled_graphs(n: int) -> Iterator[Graph]:
    """All 2^(n(n-1)/2) labeled simple graphs of order n, in edge-mask order.

    Each graph's rows are the previous graph's with the edge positions where
    mask and mask - 1 differ toggled: positions 0..t for t the lowest set bit
    of mask, two on average.  Each graph carries its mask (Graph.edge_mask).
    """
    if not 1 <= n <= LABELED_LIMIT:
        raise ValueError(f"exhaustive enumeration needs 1 <= n <= {LABELED_LIMIT}, got {n}")
    # flips[t]: (vertex, row bits) toggled by the positions 0..t together
    flips, rows = [], [0] * n
    for i, j in _EDGE_PAIRS[:n * (n - 1) // 2]:
        rows[i] ^= 1 << j
        rows[j] ^= 1 << i
        flips.append(tuple((v, x) for v, x in enumerate(rows) if x))
    adj = [0] * n
    yield Graph._trusted(n, adj, 0)
    for mask in range(1, 1 << n * (n - 1) // 2):
        for v, x in flips[(mask & -mask).bit_length() - 1]:
            adj[v] ^= x
        yield Graph._trusted(n, adj, mask)


# ---------------------------------------------------------------------------
# labeled trees via the Pruefer bijection

def prufer_decode(seq: tuple[int, ...], n: int) -> list[tuple[int, int]]:
    """Edges of the labeled tree on 0..n-1 with Pruefer sequence seq.

    Raises ValueError unless n >= 2 and seq holds n - 2 entries in 0..n-1.
    """
    if len(seq) != n - 2:   # holds for every n < 2
        if n < 2:
            raise ValueError(f"Pruefer decoding needs n >= 2, got n = {n}")
        raise ValueError(f"Pruefer sequence of length {len(seq)} for n = {n}, "
                         f"where n - 2 = {n - 2}")
    degree = [1] * n
    # checked in the count, which reads every entry anyway: on these short
    # sequences a separate min() costs twice as much
    for x in seq:
        if not 0 <= x < n:
            raise ValueError(f"Pruefer entry {x} outside 0..{n - 1} for n = {n}")
        degree[x] += 1
    ptr = 0
    while degree[ptr] != 1:
        ptr += 1
    leaf = ptr
    edges = []
    for x in seq:
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1 and x < ptr:
            leaf = x
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    edges.append((leaf, n - 1))
    return edges


def enumerate_labeled_trees(n: int) -> Iterator[Graph]:
    """All n^(n-2) labeled trees of order n (2 <= n <= 10)."""
    if not 2 <= n <= TREE_EXHAUSTIVE_LIMIT:
        raise ValueError(f"exhaustive tree enumeration needs 2 <= n <= {TREE_EXHAUSTIVE_LIMIT}")
    for seq in product(range(n), repeat=n - 2):
        yield Graph.from_edges(n, prufer_decode(seq, n))


# rooted-tree code -> small int; one entry per rooted tree class keyed so far
_ROOTED_CODES: dict[tuple[int, ...], int] = {(): 0}


def tree_canonical_key(n: int, adj_lists: list[list[int]]) -> tuple[int, ...]:
    """AHU canonical form: equal exactly for isomorphic trees.

    One layered leaf peel to the centre (Aho, Hopcroft & Ullman 1974): a
    peeled vertex's code is the sorted tuple of its children's codes, interned
    to a small int in a table shared by the process, so keys compare only
    within one process.  A leaf's code is 0, so a vertex lists only its other
    children's codes and counts its leaf children from its degree; a peeled
    vertex gets degree 0.  The key is the sorted tuple of the one or two
    centre codes, the last layer's; the null tree's is ().  Raises ValueError
    unless the input is a tree, in O(n): m != n - 1 before peeling, else a
    cycle or a second component when the peel stalls.
    """
    degree = list(map(len, adj_lists))
    ends = sum(degree)
    if n and ends != 2 * (n - 1):
        raise ValueError(f"not a tree: {ends / 2:g} edges on {n} vertices, "
                         f"where a tree has {n - 1}")
    if n < 3:
        return (0,) * n
    more: list[tuple[int, ...]] = [()] * n
    alive = n - degree.count(1)
    layer = []
    for v, a in enumerate(adj_lists):
        if len(a) == 1:
            if degree[v] != 1:
                # its last neighbour went earlier in this layer: a component of its own
                raise ValueError("not a tree: it is disconnected")
            degree[v] = 0
            u = a[0]
            degree[u] -= 1
            if degree[u] == 1:
                layer.append(u)
    while True:
        if not layer:
            raise ValueError(f"not a tree: the leaf peel stalls with {alive} vertices left, "
                             "so it has a cycle")
        centres = alive <= 2
        alive -= len(layer)
        nxt = []
        for v in layer:
            below = more[v]
            kids = len(adj_lists[v]) - degree[v]
            if below:
                shape = (0,) * (kids - len(below)) + tuple(sorted(below))
            else:
                shape = (0,) * kids
            code = _ROOTED_CODES.setdefault(shape, len(_ROOTED_CODES))
            if centres:
                nxt.append(code)
                continue
            if degree[v] != 1:
                raise ValueError("not a tree: it is disconnected")
            degree[v] = 0
            for u in adj_lists[v]:
                if degree[u]:
                    break
            more[u] += (code,)
            degree[u] -= 1
            if degree[u] == 1:
                nxt.append(u)
        if centres:
            return tuple(sorted(nxt))
        layer = nxt


@cache
def _class_table(n: int) -> array:
    """Class id of every edge mask of order n, numbered by least member.

    Masks are walked in increasing order; each unseen one starts a class whose
    orbit is flooded under the adjacent transpositions (v v+1), which generate
    S_n.  A transposition permutes edge positions; it maps a mask through two
    lookup tables, one per half of the mask.
    """
    pairs = [Graph.from_edge_mask(n, 1 << p).edges()[0] for p in range(n * (n - 1) // 2)]
    half = len(pairs) // 2
    moves = []
    for v in range(n - 1):
        swap = {v: v + 1, v + 1: v}
        image = [Graph.from_edges(n, [(swap.get(i, i), swap.get(j, j))]).edge_mask()
                 for i, j in pairs]
        chunks = []
        for part in (image[:half], image[half:]):
            chunk = [0]
            for bit in part:
                chunk += [x | bit for x in chunk]
            chunks.append(chunk)
        moves.append(chunks)
    unseen, low_bits, classes = 0xFFFF, (1 << half) - 1, 0
    table = array("H", [unseen]) * (1 << len(pairs))
    for mask in range(len(table)):
        if table[mask] == unseen:
            table[mask] = classes
            stack = [mask]
            while stack:
                x = stack.pop()
                for lo, hi in moves:
                    y = lo[x & low_bits] | hi[x >> half]
                    if table[y] == unseen:
                        table[y] = classes
                        stack.append(y)
            classes += 1
    return table


def labeled_class(g: Graph, limit: int = CLASS_LIMIT) -> tuple[int, int] | None:
    """(n, class id), equal exactly for isomorphic graphs; None above limit.

    Read from an orbit table of all edge masks of order n, built on first use:
    on two Intel Xeon cores it takes about 35 ms and 64 KB at n = 6 and about
    3 s and 4 MB at n = 7, which pays only for a corpus holding every labeled
    graph of order 7 (Corpus.class_limit).  The index is g.edge_mask(), which
    a graph from enumerate_labeled_graphs or from_edge_mask already holds.
    A limit above LABELED_LIMIT raises ValueError before any work: the table
    of order 8 would hold 2^28 entries.
    """
    if limit > LABELED_LIMIT:
        raise ValueError(f"labeled_class limit {limit} above {LABELED_LIMIT}")
    if g.n > limit:
        return None
    return g.n, _class_table(g.n)[g.edge_mask()]


def graph_canonical_tree_key(g: Graph) -> tuple[int, ...]:
    """tree_canonical_key of a Graph; ValueError unless g is a tree."""
    adj_lists = [list(bits(nb)) for nb in g.adj]
    return tree_canonical_key(g.n, adj_lists)


def tree_classes_by_order(n: int) -> Iterator[list[Graph]]:
    """The enumerate_tree_classes lists of orders 1..n, each as soon as it is built."""
    if n < 1:
        raise ValueError("tree classes need n >= 1")
    reps = [Graph.empty(1)]
    yield reps
    for size in range(2, n + 1):
        nxt: dict[tuple[int, ...], Graph] = {}
        for g in reps:
            for v in range(g.n):
                adj = list(g.adj)
                adj[v] |= 1 << (size - 1)
                adj.append(1 << v)
                grown = Graph._trusted(size, adj)
                key = graph_canonical_tree_key(grown)
                if key not in nxt:
                    nxt[key] = grown
        reps = list(nxt.values())
        yield reps


def enumerate_tree_classes(n: int) -> list[Graph]:
    """One representative per isomorphism class of trees of order n.

    Built by attaching a leaf everywhere on each (n-1)-class representative
    and deduplicating with the AHU form; every tree arises from a smaller one
    by deleting a leaf, so this is exhaustive.  Each class is represented by
    its first tree in generation order, and the output keeps that order: it
    depends only on which trees are isomorphic, not on the interned codes,
    which depend on what the process keyed before.
    """
    for reps in tree_classes_by_order(n):
        pass
    return reps


# ---------------------------------------------------------------------------
# seeded random connected graphs

def random_connected(n: int, count: int, seed: int, edge_prob: float = 0.5,
                     budget: int = 10_000) -> Iterator[Graph]:
    """Yield count connected graphs of order n drawn from G(n, edge_prob).

    Rejection sampling on one splitmix64 stream, one draw per edge position in
    edge-mask order; raises RejectionBudgetError when budget consecutive draws
    stay disconnected (raise edge_prob), and argument errors on the first next().
    """
    if not 2 <= n <= RANDOM_LIMIT:
        raise ValueError(f"random corpus supports 2 <= n <= {RANDOM_LIMIT}")
    if not 0.0 < edge_prob <= 1.0:
        raise ValueError("edge_prob must be in (0, 1]")
    threshold = int(edge_prob * (1 << 64))
    positions = range(n * (n - 1) // 2)
    stream = splitmix64(seed)
    for _ in range(count):
        for _ in range(budget):
            mask = 0
            for p in positions:
                if next(stream) < threshold:
                    mask |= 1 << p
            g = Graph.from_edge_mask(n, mask)
            if _reach(g, 0, g.full_mask) == g.full_mask:
                yield g
                break
        else:
            raise RejectionBudgetError(
                f"no connected graph on {n} vertices in {budget} draws at p={edge_prob}")


# ---------------------------------------------------------------------------
# corpus specs

class Corpus:
    """A parsed corpus description; iterating yields graphs deterministically."""

    def __init__(self, spec: str, parts: list):
        self.spec = spec
        self._parts = parts
        self.class_limit = max([CLASS_LIMIT] + [n for kind, n in parts if kind == "all_labeled"])

    def __iter__(self) -> Iterator[Graph]:
        for kind, args in self._parts:
            if kind == "all_labeled":
                for order in range(1, args + 1):
                    yield from enumerate_labeled_graphs(order)
            elif kind == "trees":
                for reps in islice(tree_classes_by_order(args), 1, None):
                    yield from reps
            elif kind == "random_connected":
                lo, hi, count, seed, prob = args
                # orders are cycled lo..hi, so the first count % span get one more
                span = hi - lo + 1
                for j in range(min(span, count)):
                    s = lo + j
                    yield from random_connected(s, count // span + (j < count % span),
                                                seed + s, prob)
            elif kind == "file":
                with open(args, "rb") as fh:
                    # room for a "\r\n" line ending after the longest valid line
                    lines = iter(lambda: fh.readline(GRAPH6_LINE_LIMIT + 2), b"")
                    for lineno, line in enumerate(lines, 1):
                        try:
                            if len(line.rstrip(b"\r\n")) > GRAPH6_LINE_LIMIT:
                                raise GraphFormatError(f"longer than {GRAPH6_LINE_LIMIT} bytes")
                            if line.strip():
                                yield parse_graph6(line.strip())
                        except GraphFormatError as exc:
                            raise GraphFormatError(f"{args} line {lineno}: {exc}") from None
            else:
                raise ValueError(f"unknown corpus part {kind!r}")


def parse_number(text: str, where: str, kind=int):
    """int(text), or float(text) for kind=float; a ValueError says where text came from."""
    try:
        return kind(text)
    except ValueError:
        what = "a number" if kind is float else "an integer"
        raise ValueError(f"{text.strip()!r} is not {what} in {where}") from None


def parse_corpus_spec(text: str, default_seed: int | None = None) -> Corpus:
    """Grammar: terms joined by '+'.

    all_labeled(N)                            orders 1..N, exhaustive, N <= 7
    trees(<=N) or trees(N)                    class representatives, orders 2..N <= 10
    random_connected(n=LO..HI,COUNT,seed=S[,p=P])   2 <= LO <= HI <= 16, 0 < P <= 1
    file(PATH)                                graph6 lines of at most GRAPH6_LINE_LIMIT bytes

    default_seed fills in for a random_connected term that omits seed=.  Every
    bound is checked here, before any graph is built; a field given twice, or
    a number that does not parse, is an error naming its term.
    """
    parts = []
    for term in text.split("+"):
        term = term.strip()
        where = f"corpus term {term!r}"
        if term.startswith("all_labeled(") and term.endswith(")"):
            order = parse_number(term[12:-1], where)
            if not 1 <= order <= LABELED_LIMIT:
                raise ValueError(f"all_labeled needs 1 <= N <= {LABELED_LIMIT}: {term!r}")
            parts.append(("all_labeled", order))
        elif term.startswith("trees(") and term.endswith(")"):
            inner = term[6:-1].replace("≤", "<=").strip()
            if inner.startswith("<="):
                inner = inner[2:]
            order = parse_number(inner, where)
            if not 2 <= order <= TREE_EXHAUSTIVE_LIMIT:
                raise ValueError(f"trees needs 2 <= N <= {TREE_EXHAUSTIVE_LIMIT}: {term!r}")
            parts.append(("trees", order))
        elif term.startswith("random_connected(") and term.endswith(")"):
            inner = term[17:-1]
            lo = hi = count = seed = None
            prob = 0.5
            seen = set()
            for field in inner.split(","):
                name, eq, value = field.strip().partition("=")
                if not eq:
                    name, value = "COUNT", name
                if name in seen:
                    raise ValueError(f"random_connected gives {name} twice: {term!r}")
                seen.add(name)
                if name == "n":
                    lo, dots, hi = value.partition("..")
                    lo = parse_number(lo, where)
                    hi = parse_number(hi, where) if dots else lo
                elif name == "seed":
                    seed = parse_number(value, where)
                elif name == "p":
                    prob = parse_number(value, where, float)
                elif name == "COUNT":
                    count = parse_number(value, where)
                else:
                    raise ValueError(f"random_connected has no field {name!r}: {term!r}")
            if seed is None:
                seed = default_seed
            if lo is None or count is None or seed is None:
                raise ValueError(f"random_connected needs n=, count, seed=: {term!r}")
            if hi < lo or count < 1:
                raise ValueError(f"empty random_connected range: {term!r}")
            if lo < 2 or hi > RANDOM_LIMIT:
                raise ValueError(f"random_connected needs 2 <= LO <= HI <= {RANDOM_LIMIT}: {term!r}")
            if not 0.0 < prob <= 1.0:
                raise ValueError(f"random_connected needs 0 < p <= 1: {term!r}")
            parts.append(("random_connected", (lo, hi, count, seed, prob)))
        elif term.startswith("file(") and term.endswith(")"):
            parts.append(("file", term[5:-1]))
        else:
            raise ValueError(f"cannot parse corpus term {term!r}")
    return Corpus(text, parts)
