"""Bitset graphs: construction, graph6/edge-list codecs, and structural profiles.

Vertices are 0..n-1 with n <= 64.  A vertex set is a plain int bitmask and a
graph stores one adjacency mask per vertex, so neighbourhood queries inside the
solvers are single AND operations.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from math import comb
from operator import or_
from typing import Iterable, Iterator

MAX_VERTICES = 64


class GraphFormatError(ValueError):
    """Malformed graph text.  offset is the 0-based byte position when known."""

    def __init__(self, message: str, offset: int | None = None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (byte {offset})"
        super().__init__(message)


def mask_of(vertices: Iterable[int]) -> int:
    """Pack an iterable of vertex indices into a bitmask."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _byte_tables() -> tuple[tuple[tuple[int, ...], ...], ...]:
    """For each byte of a 64-bit mask, the set positions of every byte value.
    Each bit doubles the table, appending itself above the bits before it, so
    every tuple is in increasing order."""
    tables = []
    for base in range(0, MAX_VERTICES, 8):
        table = [()]
        for v in range(base, base + 8):
            table += [t + (v,) for t in table]
        tables.append(tuple(table))
    return tuple(tables)


_BYTE_BITS = _byte_tables()
_LOW_BITS = _BYTE_BITS[0]


def bits(mask: int) -> tuple[int, ...]:
    """The set bit positions of mask, a tuple in increasing order.  Raises
    ValueError unless 0 <= mask < 2^64.  A mask below 256 returns a shared
    tuple; a larger one joins one table tuple per nonzero byte."""
    if 0 <= mask < 256:
        return _LOW_BITS[mask]
    if mask < 0 or mask >> MAX_VERTICES:
        raise ValueError(f"mask {mask} outside 0..2^{MAX_VERTICES} - 1")
    out = ()
    for table in _BYTE_BITS:
        byte = mask & 255
        if byte:
            out += table[byte]
        mask >>= 8
        if not mask:
            return out


# the most (k+1)-subsets a structural test walks before it gives up: about
# 11 s of scanning on a 2-core Intel Xeon, each subset an AND over its k+1
# rows; far above the C(16, 8) = 12,870 of the largest random_connected
# graph, far below the C(40, 20) of K_40 at k = 19
SUBSET_SCAN_LIMIT = 1 << 22


def scan_subsets(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """The (k+1)-subsets of range(n) in combinations order, for a test that
    stops at its first failing subset.  Raises ValueError when the test
    walks SUBSET_SCAN_LIMIT of them and more remain."""
    subsets = combinations(range(n), k + 1)
    yield from islice(subsets, SUBSET_SCAN_LIMIT)
    if next(subsets, None) is not None:
        raise ValueError(f"no verdict after {SUBSET_SCAN_LIMIT} of the C({n}, {k + 1}) = "
                         f"{comb(n, k + 1)} vertex subsets of size k+1 (n = {n}, k = {k})")


_BIT = tuple(1 << v for v in range(MAX_VERTICES))
# the edge (i, j) of every edge-mask position, in graph6 order: (0,1), (0,2), (1,2), (0,3), ...
_EDGE_PAIRS = tuple((i, j) for j in range(1, MAX_VERTICES) for i in range(j))


class Graph:
    """Immutable simple graph on at most 64 vertices.

    Graph(n, adj) checks its rows: order in 0..64, one row per vertex,
    neighbours inside 0..n-1, no loops, symmetry.  The builders from_edge_mask,
    from_edges, complement, induced_subgraph, disjoint_union and
    corpus.enumerate_tree_classes check their own inputs and make rows that
    pass by construction, so they skip that check through Graph._trusted.

    A graph keeps its edge mask once it is known: from_edge_mask and
    corpus.enumerate_labeled_graphs store the mask they built from (so
    parse_graph6 and random_connected graphs carry it too), and edge_mask()
    stores the one it computes.  Equality and hashing read only n and adj.
    """

    __slots__ = ("n", "adj", "closed", "_mask")

    def __init__(self, n: int, adj: Iterable[int]):
        adj = tuple(adj)
        if not 0 <= n <= MAX_VERTICES:
            raise ValueError(f"order {n} outside 0..{MAX_VERTICES}")
        if len(adj) != n:
            raise ValueError(f"adjacency has {len(adj)} rows for order {n}")
        full = (1 << n) - 1
        for v, nb in enumerate(adj):
            if nb & ~full:
                raise ValueError(f"vertex {v} has neighbours outside 0..{n - 1}")
            if nb >> v & 1:
                raise ValueError(f"vertex {v} has a loop")
            for u in bits(nb):
                if not adj[u] >> v & 1:
                    raise ValueError(f"edge {v}-{u} is not symmetric")
        self.n = n
        self.adj = adj
        # closed neighbourhoods N[v]; the solvers' hot loops index these
        self.closed = tuple(map(or_, adj, _BIT))
        self._mask = None

    @classmethod
    def _trusted(cls, n: int, adj: Iterable[int], mask: int | None = None) -> "Graph":
        """Graph(n, adj) without the row checks, for n rows that are symmetric,
        loop-free and inside 0..n-1 by construction (0 <= n <= 64); mask, when
        given, must be their edge mask."""
        g = object.__new__(cls)
        g.n = n
        g.adj = adj = tuple(adj)
        g.closed = tuple(map(or_, adj, _BIT))
        g._mask = mask
        return g

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls.from_edges(n, ())

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Names a bad edge before a bad order; builds no row before the order check."""
        pairs = []
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {u}-{v} outside 0..{n - 1}")
            pairs.append((u, v))
        if not 0 <= n <= MAX_VERTICES:
            raise ValueError(f"order {n} outside 0..{MAX_VERTICES}")
        adj = [0] * n
        for u, v in pairs:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls._trusted(n, adj)

    @classmethod
    def from_edge_mask(cls, n: int, mask: int) -> "Graph":
        """Inverse of edge_mask; a bit at or above n(n-1)/2 is rejected."""
        if not 0 <= n <= MAX_VERTICES:
            raise ValueError(f"order {n} outside 0..{MAX_VERTICES}")
        if mask >> (n * (n - 1) // 2):
            raise ValueError(f"edge mask has a bit at or above n(n-1)/2 = {n * (n - 1) // 2}")
        adj = [0] * n
        rest = mask
        while rest:
            low = rest & -rest
            i, j = _EDGE_PAIRS[low.bit_length() - 1]
            adj[i] |= 1 << j
            adj[j] |= 1 << i
            rest ^= low
        return cls._trusted(n, adj, mask)

    def edge_mask(self) -> int:
        """The graph6 edge mask: the edge (i, j), i < j, is bit j(j-1)/2 + i.
        The stored mask when the graph has one, else computed from the rows
        and stored."""
        mask = self._mask
        if mask is None:
            mask = 0
            for j in range(1, self.n):
                mask |= (self.adj[j] & ((1 << j) - 1)) << (j * (j - 1) // 2)
            self._mask = mask
        return mask

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def degrees(self) -> list[int]:
        return [nb.bit_count() for nb in self.adj]

    def edge_count(self) -> int:
        return sum(nb.bit_count() for nb in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for v in range(self.n):
            for u in bits(self.adj[v]):
                if u > v:
                    out.append((v, u))
        return out

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edges()!r})"


def complement(g: Graph) -> Graph:
    full = g.full_mask
    return Graph._trusted(g.n, [full & ~cn for cn in g.closed])


def induced_subgraph(g: Graph, mask: int) -> Graph:
    """Subgraph induced by the vertices of mask, relabelled to 0..k-1 in order."""
    if not 0 <= mask <= g.full_mask:
        raise ValueError(f"vertex mask {mask} outside 0..{g.full_mask} for n = {g.n}")
    keep = list(bits(mask))
    index = {v: i for i, v in enumerate(keep)}
    adj = [0] * len(keep)
    for v in keep:
        for u in bits(g.adj[v] & mask):
            adj[index[v]] |= 1 << index[u]
    return Graph._trusted(len(keep), adj)


def disjoint_union(*graphs: Graph) -> Graph:
    total = sum(g.n for g in graphs)
    if total > MAX_VERTICES:
        raise ValueError(f"union order {total} exceeds {MAX_VERTICES}")
    adj: list[int] = []
    shift = 0
    for g in graphs:
        adj.extend(nb << shift for nb in g.adj)
        shift += g.n
    return Graph._trusted(total, adj)


# ---------------------------------------------------------------------------
# graph6 codec (printable bytes 63..126, upper triangle column-major)

_GRAPH6_HEADER = b">>graph6<<"
# the longest valid graph6 line: the header, a 4-byte order and 336 body bytes
GRAPH6_LINE_LIMIT = len(_GRAPH6_HEADER) + 4 + (MAX_VERTICES * (MAX_VERTICES - 1) // 2 + 5) // 6
# each body byte holds six edge positions, the lowest one in its high bit
_REVERSED6 = [int(f"{x:06b}"[::-1], 2) for x in range(64)]


def parse_graph6(text: str | bytes) -> Graph:
    """Graph from graph6 text or bytes; a leading >>graph6<< header is skipped
    (error offsets count from after it).  Text must be ASCII: a str offset
    counts characters, which equals bytes up to the first non-ASCII one."""
    if isinstance(text, str):
        try:
            data = text.encode("ascii")
        except UnicodeEncodeError as exc:
            at = len(text[:exc.start].encode().removeprefix(_GRAPH6_HEADER))
            raise GraphFormatError(
                f"character U+{ord(text[exc.start]):04X} outside graph6 range 63..126", at) from None
    else:
        data = bytes(text)
    data = data.rstrip(b"\r\n").removeprefix(_GRAPH6_HEADER)
    if not data:
        raise GraphFormatError("empty graph6 input", 0)

    pos = 0
    if data[0] == 126:  # '~' marks an extended order header
        if len(data) >= 2 and data[1] == 126:
            raise GraphFormatError(f"order exceeds {MAX_VERTICES}", 0)
        if len(data) < 4:
            raise GraphFormatError("truncated graph6 order header", len(data))
        n = 0
        for i in range(1, 4):
            b = data[i]
            if not 63 <= b <= 126:
                raise GraphFormatError(f"byte {b} outside graph6 range 63..126", i)
            n = n << 6 | (b - 63)
        pos = 4
    else:
        b = data[0]
        if not 63 <= b <= 126:
            raise GraphFormatError(f"byte {b} outside graph6 range 63..126", 0)
        n = b - 63
        pos = 1
    if n > MAX_VERTICES:
        raise GraphFormatError(f"order {n} exceeds {MAX_VERTICES}", 0)

    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - pos < nbytes:
        raise GraphFormatError("truncated graph6 body", len(data))
    if len(data) - pos > nbytes:
        raise GraphFormatError("trailing garbage after graph6 body", pos + nbytes)

    mask = 0
    for i, b in enumerate(data[pos:]):
        if not 63 <= b <= 126:
            raise GraphFormatError(f"byte {b} outside graph6 range 63..126", pos + i)
        mask |= _REVERSED6[b - 63] << 6 * i
    # positions at or above nbits can only be in the last byte
    if mask >> nbits:
        raise GraphFormatError("nonzero padding bits", len(data) - 1)
    return Graph.from_edge_mask(n, mask)


def emit_graph6(g: Graph) -> str:
    n = g.n
    if n <= 62:
        head = [n + 63]
    else:
        head = [126, (n >> 12 & 63) + 63, (n >> 6 & 63) + 63, (n & 63) + 63]
    mask = g.edge_mask()
    body = [_REVERSED6[mask >> i & 63] + 63 for i in range(0, n * (n - 1) // 2, 6)]
    return bytes(head + body).decode("ascii")


# ---------------------------------------------------------------------------
# edge-list format: first line "n m", then m lines "u v" (0-based)

# the longest edge list format_edge_list writes, with CRLF line ends: order 64
# and all 2,016 edges (far longer than any graph6 line)
EDGE_LIST_LIMIT = (len(f"{MAX_VERTICES} {len(_EDGE_PAIRS)}\r\n")
                   + len(_EDGE_PAIRS) * len(f"{MAX_VERTICES - 2} {MAX_VERTICES - 1}\r\n"))


def parse_edge_list(text: str) -> Graph:
    """Graph from an edge list.  Errors name lines as the text numbers them,
    blank ones included; an edge given twice, in either order, is an error
    naming both lines."""
    lines = [(i, ln) for i, ln in enumerate((raw.strip() for raw in text.splitlines()), 1)
             if ln]
    if not lines:
        raise GraphFormatError("empty edge-list input")
    at, head = lines[0]
    head = head.split()
    if len(head) != 2:
        raise GraphFormatError(f"edge-list line {at} must be 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise GraphFormatError(f"edge-list line {at} must be 'n m'") from None
    if not 0 <= n <= MAX_VERTICES:
        raise GraphFormatError(f"order {n} outside 0..{MAX_VERTICES}")
    if len(lines) - 1 != m:
        raise GraphFormatError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = {}   # (u, v), u < v -> the line that gave it
    for i, ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphFormatError(f"edge-list line {i} must be 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"edge-list line {i} must be 'u v'") from None
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"edge-list line {i}: vertex outside 0..{n - 1}")
        if u == v:
            raise GraphFormatError(f"edge-list line {i}: loop at {u}")
        edge = (min(u, v), max(u, v))
        if edge in edges:
            raise GraphFormatError(f"edge-list line {i}: edge {edge[0]}-{edge[1]} "
                                   f"repeats line {edges[edge]}")
        edges[edge] = i
    return Graph.from_edges(n, edges)


def format_edge_list(g: Graph) -> str:
    edges = g.edges()
    lines = [f"{g.n} {len(edges)}"]
    lines.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# structural profile

@dataclass(frozen=True)
class GraphProfile:
    connected: bool
    is_tree: bool
    max_degree: int
    min_degree: int
    min_nonleaf_degree: int | None  # min degree over vertices of degree >= 2; None if none
    diameter: int | None            # None when disconnected; 0 for n <= 1
    girth: int | None               # None for acyclic graphs
    cut_vertices: int               # bitmask
    every_edge_on_triangle: bool


def _layers(g: Graph, root: int) -> tuple[int, int, int]:
    """(eccentricity of root, shortest cycle its breadth-first layers close,
    or 0, the mask of root's component).  An edge inside layer d closes a
    cycle of length at most 2d + 1, and a vertex of layer d + 1 with two
    neighbours in layer d one of at most 2d + 2; the first layer to close one
    gives the value.  A root on a shortest cycle closes exactly that one, so
    the least nonzero value over all roots is the girth (Itai and Rodeh,
    1978)."""
    adj = g.adj
    frontier = seen = 1 << root
    depth = cycle = 0
    while True:
        reach = twice = 0
        for v in bits(frontier):
            row = adj[v]
            twice |= reach & row
            reach |= row
        if not cycle:
            if reach & frontier:
                cycle = 2 * depth + 1
            elif twice & ~seen:
                cycle = 2 * depth + 2
        frontier = reach & ~seen
        if not frontier:
            return depth, cycle, seen
        seen |= frontier
        depth += 1


def _cut_vertices(g: Graph) -> int:
    """The mask of cut vertices, by one iterative depth-first pass per
    component (Hopcroft and Tarjan, 1973).  low[v] is the least discovery
    number that v's subtree reaches by one edge; a non-root p is a cut vertex
    iff some child v has low[v] >= order[p], and a root iff it has two or
    more children.  A leaf or an isolated vertex never is one."""
    adj = g.adj
    order = [0] * g.n     # discovery number from 1; 0 while unvisited
    low = [0] * g.n
    cut = count = 0
    for root in range(g.n):
        if order[root]:
            continue
        count += 1
        order[root] = low[root] = count
        stack = [(root, iter(bits(adj[root])))]
        children = 0
        while stack:
            v, rest = stack[-1]
            for u in rest:
                if not order[u]:
                    count += 1
                    order[u] = low[u] = count
                    stack.append((u, iter(bits(adj[u]))))
                    break
                if order[u] < low[v]:
                    low[v] = order[u]
            else:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    if low[v] < low[p]:
                        low[p] = low[v]
                    if p == root:
                        children += 1
                    elif low[v] >= order[p]:
                        cut |= 1 << p
        if children >= 2:
            cut |= 1 << root
    return cut


def is_tree(g: Graph) -> bool:
    """Connected with n - 1 edges (so not the null graph): root 0's layered
    walk (_layers) reaches every vertex, in O(n) word operations."""
    return g.edge_count() == g.n - 1 and _layers(g, 0)[2] == g.full_mask


def profile(g: Graph) -> GraphProfile:
    """Degrees, connectivity, diameter, girth, cut vertices and the triangle
    test.  K_0 counts as connected, not a tree, with diameter 0 and every
    (no) edge on a triangle; K_1 is a tree with diameter 0.  A forest has
    girth None, and its diameter is None unless it is a tree.  Costs n
    layered walks (_layers), one per root, and one depth-first lowpoint pass
    per component for the cut vertices (_cut_vertices)."""
    n = g.n
    degs = g.degrees()
    max_deg = max(degs, default=0)
    min_deg = min(degs, default=0)
    nonleaf = [d for d in degs if d >= 2]
    min_nonleaf = min(nonleaf) if nonleaf else None

    if n == 0:
        return GraphProfile(True, False, 0, 0, None, 0, None, 0, True)

    adj = g.adj
    walks = [_layers(g, root) for root in range(n)]
    connected = walks[0][2] == g.full_mask
    tree = connected and g.edge_count() == n - 1
    diameter = max(ecc for ecc, _, _ in walks) if connected else None
    girth = min((cycle for _, cycle, _ in walks if cycle), default=None)

    triangle = all(row & adj[u] for row in adj for u in bits(row))   # each edge from both ends

    return GraphProfile(connected, tree, max_deg, min_deg, min_nonleaf,
                        diameter, girth, _cut_vertices(g), triangle)
