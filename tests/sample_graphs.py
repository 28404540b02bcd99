"""Graph builders shared by the tests and the golden-file scripts.

Not a test module: pytest collects only test_*.py.  The golden scripts run as
`PYTHONPATH=src python tests/<file>.py`, which puts this directory on
sys.path, as pytest does for the test modules.
"""
import random

from limpack import Graph


def petersen() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, 5 + i) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, edges)


def sparse_graph(n: int, seed: int) -> Graph:
    """G(n, 2.5/(n-1)) from random.Random(seed), pairs u < v in lexicographic order."""
    rng = random.Random(seed)
    p = 2.5 / (n - 1)
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                if rng.random() < p])


def grid(rows: int, cols: int) -> Graph:
    """The rows x cols grid, vertex r * cols + c."""
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return Graph.from_edges(rows * cols, edges)


def hypercube(d: int) -> Graph:
    """Q_d, vertex v adjacent to v ^ (1 << b)."""
    return Graph.from_edges(1 << d, [(v, v | 1 << b) for v in range(1 << d)
                                     for b in range(d) if not v >> b & 1])
