"""Golden files: the bound panel and a k=1..5 campaign report, byte for byte.

Both files pin output that must not drift by accident: the panel's entry
order (lower half by id, then upper half by id, exact entries in both),
entries listed only at some k (maxdeg-sq-lower at k=1, the girth entry whose
text and citation change with k), the aux entries (gamma, L_1, rho0) above
the oracle's order limit, and the campaign counts at k=4 and k=5.

Regenerate, only when an output change is intended, with

    PYTHONPATH=src python tests/test_golden.py
"""
import json
from pathlib import Path

from limpack import Graph, bound_report, build_from_spec, parse_corpus_spec, run_campaign
from limpack.campaign import ALL_THEOREM_IDS

from sample_graphs import petersen

GOLDEN = Path(__file__).parent / "golden"
PANEL_PATH = GOLDEN / "bounds_panel.json"
CAMPAIGN_PATH = GOLDEN / "campaign_k1-5.json"

PANEL_KS = range(1, 6)
PANEL_CORPUS = "all_labeled(4)+random_connected(n=8..14,40,seed=3)"
# path:30, comb:9 and spider:12,3 lie above the oracle's order limit (n <= 24)
PANEL_FAMILIES = (
    "path:1", "path:2", "path:5", "path:10", "path:12", "path:16",
    "cycle:3", "cycle:6", "cycle:9", "cycle:16",
    "complete:1", "complete:4", "complete:6",
    "complete_bipartite:1,5", "complete_bipartite:3,4",
    "star:5", "star:9", "complete_minus_edge:5",
    "spider:3,2", "comb:3", "diam2:3", "diam2:4",
    "prescribed:3,5", "prescribed:4,8",
    "path:30", "comb:9", "spider:12,3",
)
CAMPAIGN_CORPUS = "all_labeled(5)+trees(≤8)+random_connected(n=6..10,200,seed=7)"
CAMPAIGN_KS = range(1, 6)


def panel_graphs() -> list[Graph]:
    graphs = list(parse_corpus_spec(PANEL_CORPUS))
    graphs += [build_from_spec(spec) for spec in PANEL_FAMILIES]
    graphs.append(petersen())
    return graphs


def panel_reports() -> list[dict]:
    return [bound_report(g, k, with_exact=True).as_dict()
            for g in panel_graphs() for k in PANEL_KS]


# The panel golden stores each k's entry layout once: [id, direction,
# hypothesis, citation] in panel order.  A report row is [graph6, k, n, exact,
# best_lower, best_upper, cells], one cell per layout entry: null when the
# entry is inapplicable, the value, or [value, raw] when a raw rational is shown.

def compress_panel(reports: list[dict]) -> str:
    layouts, rows = {}, []
    for rep in reports:
        layout = [[e["id"], e["direction"], e["hypothesis"], e["citation"]]
                  for e in rep["entries"]]
        assert layouts.setdefault(str(rep["k"]), layout) == layout
        cells = [None if not e["applicable"] else e["value"] if e["raw"] is None
                 else [e["value"], e["raw"]] for e in rep["entries"]]
        rows.append([rep["graph6"], rep["k"], rep["n"], rep["exact"],
                     rep["best_lower"], rep["best_upper"], cells])

    def rows_text(items):
        return "[\n" + ",\n".join(json.dumps(item) for item in items) + "\n]"

    blocks = ",\n".join(f'"{k}": ' + rows_text(layout) for k, layout in layouts.items())
    return '{"layouts": {\n' + blocks + '},\n"reports": ' + rows_text(rows) + "}\n"


def expand_panel(text: str) -> list[dict]:
    data = json.loads(text)
    reports = []
    for g6, k, n, exact, lo, hi, cells in data["reports"]:
        entries = []
        for (eid, direction, hyp, cite), cell in zip(data["layouts"][str(k)], cells,
                                                     strict=True):
            value, raw = cell if isinstance(cell, list) else (cell, None)
            entries.append({"id": eid, "direction": direction,
                            "applicable": cell is not None, "value": value,
                            "raw": raw, "hypothesis": hyp, "citation": cite})
        reports.append({"graph6": g6, "k": k, "n": n, "exact": exact,
                        "best_lower": lo, "best_upper": hi, "entries": entries})
    return reports


def campaign_text() -> str:
    return run_campaign(ALL_THEOREM_IDS, parse_corpus_spec(CAMPAIGN_CORPUS),
                        CAMPAIGN_KS).to_json()


def test_bounds_panel_golden():
    actual = [json.dumps(rep) for rep in panel_reports()]
    golden = [json.dumps(rep) for rep in expand_panel(PANEL_PATH.read_text())]
    assert len(actual) == len(golden)
    for got, want in zip(actual, golden):
        assert got == want


def test_campaign_golden():
    assert campaign_text() == CAMPAIGN_PATH.read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    reports = panel_reports()
    text = compress_panel(reports)
    assert expand_panel(text) == reports
    PANEL_PATH.write_text(text)
    CAMPAIGN_PATH.write_text(campaign_text())
