"""The demand-1 cover search and the open packing search: a golden file.

`tests/golden/cover_sparse.json` records, for each graph below, the value,
the witness and the `nodes_explored` of `domination_number`,
`total_domination_number` and `open_packing_number`, as the search stood
before its "min" sense took a per-row demand.  At demand 1 that search must
be the same search: the test asserts that all three fields are unchanged.
The rho0 rows come from the packing search and were regenerated three
times.  First, when that search began to start from a first-fit incumbent
and to leave its bound loop as soon as the bound fell to the incumbent: 41
of those rows fell (111,841 to 101,515 nodes in total), and every value and
witness stayed as recorded.  Then, when its incumbent became the first fit
itself, size and set: 25 of the 44 witnesses changed and the nodes fell to
84,919, with every value, and every gamma and gamma_t row, byte-identical.
Last, when it stopped making a child at a blocked vertex, which repeated
its parent: 28 rows fell, 84,919 to 59,634 nodes, and only their
`nodes_explored` moved.

The graphs are seeded G(n, 2.5/(n-1)) for n = 24..64 (gamma_t where no vertex
is isolated, and on the graph without its isolated vertices), the 7x7 and
8x8 grids, the cycle C_40, and gamma alone on the 6-cube Q6.  Regenerate,
only when a change to these searches is intended, with

    PYTHONPATH=src python tests/test_cover_sparse.py
"""
import json
from pathlib import Path

from limpack import (Graph, domination_number, emit_graph6, induced_subgraph,
                     open_packing_number, total_domination_number)

from sample_graphs import grid, hypercube, sparse_graph

GOLDEN_PATH = Path(__file__).parent / "golden" / "cover_sparse.json"
SOLVERS = {"gamma": domination_number, "gamma_t": total_domination_number,
           "rho0": open_packing_number}


def cycle(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def cases() -> list[tuple[Graph, str]]:
    out = []
    for n in range(24, 65):
        g = sparse_graph(n, 5000 + n)
        out += [(g, "gamma"), (g, "rho0")]
        core = induced_subgraph(g, sum(1 << v for v, nb in enumerate(g.adj) if nb))
        out.append((core, "gamma_t"))
    for g in (grid(7, 7), grid(8, 8), cycle(40)):
        out += [(g, name) for name in SOLVERS]
    out.append((hypercube(6), "gamma"))
    return out


def solve_all() -> list[dict]:
    rows = []
    for g, name in cases():
        res = SOLVERS[name](g)
        rows.append({"graph6": emit_graph6(g), "param": name, "value": res.value,
                     "witness": res.witness_vertices(),
                     "nodes_explored": res.nodes_explored})
    return rows


def test_cover_sparse_golden():
    golden = json.loads(GOLDEN_PATH.read_text())
    rows = solve_all()
    assert len(rows) == len(golden)
    for got, want in zip(rows, golden):
        assert got == want, (want["graph6"], want["param"])


if __name__ == "__main__":
    GOLDEN_PATH.write_text("[\n" + ",\n".join(json.dumps(r) for r in solve_all()) + "\n]\n")
