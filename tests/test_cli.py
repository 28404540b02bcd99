"""Command-line interface: argument handling, output shapes, exit codes."""
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from limpack import build_from_spec, cli, emit_graph6
from limpack.cli import main
from limpack.graphs import EDGE_LIST_LIMIT


def run(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def run_python(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports limpack from src/."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)


def test_solve_plain(capsys):
    rc, out, err = run(capsys, "solve", "--graph", "DhC", "--k", "2")
    assert rc == 0 and out == "4\n" and err == ""


def test_solve_witness(capsys):
    rc, out, _ = run(capsys, "solve", "--graph", "DhC", "--k", "2", "--witness")
    assert rc == 0
    assert out.splitlines() == ["4", "0 1 3 4"]


def test_solve_method_override(capsys):
    rc, out, _ = run(capsys, "solve", "--graph", "DhC", "--k", "1", "--method", "bb")
    assert rc == 0 and out == "2\n"


def test_solve_stats_on_stderr_only(capsys):
    for method in ("auto", "oracle", "bb"):
        argv = ["solve", "--graph", "DhC", "--k", "2", "--witness", "--method", method]
        rc, plain_out, plain_err = run(capsys, *argv)
        assert rc == 0 and plain_err == ""
        rc, out, err = run(capsys, *argv, "--stats")
        assert rc == 0 and out == plain_out
        lines = err.splitlines()
        assert len(lines) == 1
        stats = json.loads(lines[0])
        assert list(stats) == ["method", "nodes_explored", "elapsed_s"]
        assert stats["method"] == ("oracle" if method == "oracle" else "branch-and-bound")
        if method == "oracle":
            assert stats["nodes_explored"] == 2 ** 5
        assert stats["nodes_explored"] > 0 and stats["elapsed_s"] >= 0


def test_params_stats_on_stderr_only(capsys):
    for graph in ("DhC", "Ds?"):            # C_5, and K_1,3 + K_1 with no gamma_t
        rc, plain_out, plain_err = run(capsys, "params", "--graph", graph)
        assert rc == 0 and plain_err == ""
        rc, out, err = run(capsys, "params", "--graph", graph, "--stats")
        assert rc == 0 and out == plain_out
        lines = err.splitlines()
        assert len(lines) == 1
        stats = json.loads(lines[0])
        assert list(stats) == ["L1", "L2", "L3", "rho0", "gamma", "gamma_t"]
        for name, entry in stats.items():
            if entry is None:
                assert name == "gamma_t" and json.loads(out)["gamma_t"] is None
                continue
            assert list(entry) == ["method", "nodes_explored", "elapsed_s"]
            assert entry["method"] == "branch-and-bound"
            assert entry["nodes_explored"] >= 0 and entry["elapsed_s"] >= 0


def test_ng_stats_on_stderr_only(capsys):
    cases = [  # graph, k, route, searches run
        (emit_graph6(build_from_spec("path:9")), 2, "tuple-domination", ["tuple-total-domination"]),
        (emit_graph6(build_from_spec("complete_minus_edge:6")), 2, "complement", ["packing"]),
        ("Ds?", 2, "tuple-domination", []),     # an isolated vertex: L_2(complement) = 2
        ("DhC", 5, "tuple-domination", []),     # n <= k: L_5(complement) = 5
    ]
    for graph, k, route, searches in cases:
        rc, plain_out, plain_err = run(capsys, "ng", "--graph", graph, "--k", str(k))
        assert rc == 0 and plain_err == ""
        rc, out, err = run(capsys, "ng", "--graph", graph, "--k", str(k), "--stats")
        assert rc == 0 and out == plain_out
        lines = err.splitlines()
        assert len(lines) == 1
        stats = json.loads(lines[0])
        assert list(stats) == ["k", "route", "searches"]
        assert (stats["k"], stats["route"]) == (k, route)
        assert [s["search"] for s in stats["searches"]] == searches
        for entry in stats["searches"]:
            assert entry["nodes_explored"] >= 0 and entry["elapsed_s"] >= 0


def test_graph_from_edge_list_file(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("5 4\n0 1\n1 2\n2 3\n3 4\n")
    rc, out, _ = run(capsys, "solve", "--graph", f"@{path}", "--k", "2")
    assert rc == 0 and out == "4\n"


def test_graph_from_graph6_file_with_header(tmp_path, capsys):
    path = tmp_path / "g.g6"
    path.write_text(">>graph6<<DhC\n")
    rc, out, _ = run(capsys, "solve", "--graph", f"@{path}", "--k", "2")
    assert rc == 0 and out == "4\n"


def test_non_ascii_graph_exits_2(capsys):
    rc, out, err = run(capsys, "solve", "--graph", "Aé", "--k", "1")
    assert rc == 2 and out == ""
    assert err == "error: character U+00E9 outside graph6 range 63..126 (byte 1)\n"


def test_graph_file_repeated_edge_exits_2(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("3 2\n0 1\n1 0\n")
    rc, out, err = run(capsys, "params", "--graph", f"@{path}")
    assert rc == 2 and out == ""
    assert err == "error: edge-list line 3: edge 0-1 repeats line 2\n"


def test_graph_file_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "g.txt"
    for data, at in ((b"\xff3 2\n0 1\n1 2\n", 0), (b"3 2\n0 1\n1 \xe9\n", 10)):
        path.write_bytes(data)
        rc, out, err = run(capsys, "params", "--graph", f"@{path}")
        assert rc == 2 and out == ""
        assert err == f"error: {path}: not UTF-8 text (byte {at})\n"


def test_graph_file_bounded(tmp_path, capsys, monkeypatch):
    # the longest valid file, K_64 as an edge list with CRLF line ends, still parses
    edges = [(i, j) for j in range(64) for i in range(j)]
    full = tmp_path / "k64.txt"
    full.write_bytes(("64 2016\r\n" + "".join(f"{i:2d} {j:2d}\r\n" for i, j in edges)).encode())
    assert full.stat().st_size == EDGE_LIST_LIMIT == 14121
    rc, out, _ = run(capsys, "solve", "--graph", f"@{full}", "--k", "1")
    assert rc == 0 and out == "1\n"
    # one byte more, or millions of graph6 lines, exit 2 before the file is read:
    # no read asks for more than one byte past the cap
    sizes = []

    def recording_open(path, mode="r"):
        fh = open(path, mode)
        read = fh.read
        fh.read = lambda size=-1: sizes.append(size) or read(size)
        return fh
    monkeypatch.setattr(cli, "open", recording_open, raising=False)
    over = tmp_path / "over.txt"
    over.write_bytes(full.read_bytes() + b"\n")
    huge = tmp_path / "huge.g6"
    huge.write_bytes(b"BW\n" * 2_000_000)
    for path in (over, huge):
        t0 = time.monotonic()
        rc, out, err = run(capsys, "solve", "--graph", f"@{path}", "--k", "1")
        assert time.monotonic() - t0 < 0.05, path
        assert rc == 2 and out == ""
        assert err == (f"error: {path}: longer than 14121 bytes, the longest edge list "
                       "of a graph with 64 vertices\n")
    assert sizes == [EDGE_LIST_LIMIT + 1] * 2


def test_params_runs_without_optional_packages(capsys):
    # the package has no runtime dependencies: numpy, scipy, networkx and
    # hypothesis serve tests and benches only, so params must run with each
    # import failing
    code = ("import sys\n"
            "for name in ('numpy', 'scipy', 'networkx', 'hypothesis'):\n"
            "    sys.modules[name] = None\n"
            "from limpack.cli import main\n"
            "sys.exit(main(['params', '--graph', 'DhC']))\n")
    proc = run_python(code)
    assert proc.returncode == 0, proc.stderr
    rc, out, _ = run(capsys, "params", "--graph", "DhC")
    assert rc == 0 and proc.stdout == out


def test_params_panel(capsys):
    rc, out, _ = run(capsys, "params", "--graph", "BW")
    assert rc == 0
    data = json.loads(out)
    assert data["n"] == 3 and data["m"] == 2
    assert data["L1"] == 1 and data["L2"] == 2 and data["L3"] == 3
    assert data["rho0"] == 2 and data["gamma"] == 1 and data["gamma_t"] == 2
    assert data["profile"]["is_tree"] and data["profile"]["diameter"] == 2
    # above the oracle's order limit the companions still come from branch and bound
    rc, out, _ = run(capsys, "params", "--graph", emit_graph6(build_from_spec("path:30")))
    assert rc == 0
    data = json.loads(out)
    assert data["n"] == 30 and data["L1"] == 10
    assert (data["gamma"], data["rho0"], data["gamma_t"]) == (10, 16, 16)


def test_params_gamma_t_null_with_isolated_vertex(capsys):
    rc, out, _ = run(capsys, "params", "--graph", "A?")
    assert rc == 0
    assert json.loads(out)["gamma_t"] is None


def test_bounds_exact(capsys):
    rc, out, _ = run(capsys, "bounds", "--graph", "DhC", "--k", "2", "--exact")
    assert rc == 0
    data = json.loads(out)
    assert data["graph6"] == "DhC" and data["exact"] == 4
    assert data["best_lower"] <= 4 <= data["best_upper"]
    ids = [e["id"] for e in data["entries"]]
    assert ids == sorted(set(ids), key=ids.index) and len(ids) == len(set(ids))


def test_bounds_null_graph(capsys):
    for k in (1, 2, 3):
        rc, out, _ = run(capsys, "bounds", "--graph", "?", "--k", str(k), "--exact")
        assert rc == 0
        data = json.loads(out)
        assert data["exact"] == 0
        assert data["best_lower"] == 0 <= data["best_upper"]


def test_ng_totals(capsys):
    rc, out, _ = run(capsys, "ng", "--graph", "BW", "--k", "2")
    assert rc == 0
    data = json.loads(out)
    # P_3 and its complement K_2 + K_1: the sum hits the 2n - 1 mixed bound
    assert data["total"] == 5 and data["upper_bound"] == 5
    assert data["case"] == "mixed" and data["refinement_upper"] == 5


def test_recognize_class_g(capsys):
    rc, out, _ = run(capsys, "recognize", "--graph", "A_", "--family", "classG")
    assert rc == 0
    data = json.loads(out)
    assert data["member"] is True and data["witness"]["A0"] == [0, 1]


def test_recognize_class_t_above_oracle_limit(capsys):
    # comb:9: spine 0..8, each spine vertex carrying a cherry (9+2i, 10+2i)
    rc, out, _ = run(capsys, "recognize", "--graph", emit_graph6(build_from_spec("comb:9")),
                     "--family", "classT")
    assert rc == 0
    data = json.loads(out)
    assert data["member"] is True
    assert data["witness"] == {"S0": list(range(9, 27)), "R0": list(range(9))}


def test_recognize_spider_rejects_non_tree(capsys):
    rc, out, _ = run(capsys, "recognize", "--graph", "Bw", "--family", "spider")
    assert rc == 0
    data = json.loads(out)
    assert data["member"] is False and data["witness"] is None


def test_recognize_lk_eq_k(capsys):
    rc, out, _ = run(capsys, "recognize", "--graph", "C~", "--family", "lk-eq-k", "--k", "2")
    assert rc == 0
    data = json.loads(out)
    assert data["k"] == 2 and data["member"] is True


def test_generate(capsys):
    rc, out, _ = run(capsys, "generate", "--family", "path:3")
    assert rc == 0 and out == "Bg\n"
    rc, out, _ = run(capsys, "generate", "--family", "prescribed:2,4")
    assert rc == 0 and out.strip()


def test_generate_arity(capsys):
    arity = {"path": 1, "cycle": 1, "complete": 1, "star": 1, "complete_minus_edge": 1,
             "comb": 1, "diam2": 1, "complete_bipartite": 2, "spider": 2, "prescribed": 2}
    good = {1: "4", 2: "2,4"}
    for family, count in arity.items():
        rc, out, _ = run(capsys, "generate", "--family", f"{family}:{good[count]}")
        assert rc == 0 and out.strip(), family
        for wrong in ("3,4,5", "4") if count == 2 else ("3,4",):
            rc, out, err = run(capsys, "generate", "--family", f"{family}:{wrong}")
            assert rc == 2 and out == ""
            plural = "s" if count > 1 else ""
            assert err == (f"error: family {family!r} takes {count} integer parameter{plural}, "
                           f"got {len(wrong.split(','))}\n")


def test_generate_oversized_order_rejected_fast(capsys):
    for spec in ("complete:3000", "path:200000", "complete_bipartite:40,30", "comb:100000"):
        t0 = time.monotonic()
        rc, out, err = run(capsys, "generate", "--family", spec)
        assert time.monotonic() - t0 < 1.0, spec
        assert rc == 2 and out == "" and "64" in err, spec


def test_verify_k_bounded_before_allocation(capsys):
    t0 = time.monotonic()
    rc, out, err = run(capsys, "verify", "--theorems", "lem-kgamma",
                       "--corpus", "all_labeled(2)", "--k", "1..1000000000")
    assert time.monotonic() - t0 < 0.05
    assert rc == 2 and out == ""
    assert err == ("error: k values must be <= 65 (graphs have at most 64 vertices), "
                   "got 1000000000\n")
    for spec in ("3,66", "65..66", "0..3", "-1000000000..3"):
        rc, out, err = run(capsys, "verify", "--theorems", "lem-kgamma",
                           "--corpus", "all_labeled(2)", f"--k={spec}")
        assert rc == 2 and out == "" and err.startswith("error: k values must be"), spec
    rc, out, _ = run(capsys, "verify", "--theorems", "lem-kgamma",
                     "--corpus", "all_labeled(2)", "--k", "64..65")
    assert rc == 0 and "pass" in out


def test_verify_pass(capsys):
    rc, out, _ = run(capsys, "verify", "--theorems", "lem-kgamma,prop-lk-geq-k",
                     "--corpus", "all_labeled(3)", "--k", "1,2")
    assert rc == 0
    assert "lem-kgamma" in out and "pass" in out


def test_verify_json_deterministic(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        rc, _, _ = run(capsys, "verify", "--theorems", "all",
                       "--corpus", "all_labeled(3)+trees(<=5)", "--k", "1..3",
                       "--json", str(p))
        assert rc == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    data = json.loads(paths[0].read_text())
    assert len(data["verdicts"]) == 39


def test_verify_detects_failure(tmp_path, capsys):
    # a graph with L_1 > 1 and diameter 2 would violate the iff; none exists,
    # so instead check the exit path with a corpus the campaign cannot parse
    rc, _, err = run(capsys, "verify", "--theorems", "all",
                     "--corpus", "bogus(3)", "--k", "1")
    assert rc == 2 and "error:" in err


def test_error_exits(capsys):
    rc, _, err = run(capsys, "solve", "--graph", "B", "--k", "1")
    assert rc == 2 and "error:" in err
    rc, _, err = run(capsys, "solve", "--graph", "DhC", "--k", "0")
    assert rc == 2 and "error:" in err
    rc, _, err = run(capsys, "verify", "--theorems", "nope",
                     "--corpus", "all_labeled(2)", "--k", "1")
    assert rc == 2 and "error:" in err
    with pytest.raises(SystemExit) as exc:
        run(capsys, "recognize", "--graph", "A_", "--family", "wat")
    assert exc.value.code == 2


def test_missing_file(capsys):
    rc, _, err = run(capsys, "solve", "--graph", "@/no/such/file", "--k", "1")
    assert rc == 2 and "error:" in err


def test_bare_at_sign_is_k1(capsys):
    # "@" is the graph6 of K_1, not an empty @path
    assert emit_graph6(build_from_spec("complete:1")) == "@"
    rc, out, err = run(capsys, "solve", "--graph", "@", "--k", "1")
    assert (rc, out, err) == (0, "1\n", "")
    rc, out, err = run(capsys, "params", "--graph", "@")
    data = json.loads(out)
    assert rc == 0 and err == ""
    assert (data["graph6"], data["n"], data["L1"], data["gamma"], data["gamma_t"]) == \
        ("@", 1, 1, 1, None)


@pytest.mark.parametrize("spec", [
    "random_connected(n=8..9,10,seed=1,n=3)",       # at the parent: only order 3
    "random_connected(n=8..9,10,20,seed=1)",        # at the parent: count 20
    "trees(3)+all_labeled(x)",
    "trees(<=q)",
    "random_connected(n=8..x,10,seed=1)",
    "random_connected(n=8..9,10,seed=1,p=zz)",
])
def test_malformed_corpus_term_named(capsys, spec):
    rc, out, err = run(capsys, "verify", "--theorems", "lem-kgamma", "--corpus", spec,
                       "--k", "1")
    term = spec.split("+")[-1]
    assert rc == 2 and out == "" and "error: " in err and repr(term) in err


def test_malformed_k_list_named(capsys):
    rc, out, err = run(capsys, "verify", "--theorems", "lem-kgamma",
                       "--corpus", "trees(3)", "--k", "1,,2")
    assert rc == 2 and out == "" and "'1,,2'" in err and "integer" in err


def test_subset_scan_budget_exits_2(capsys, monkeypatch):
    from limpack import graphs
    monkeypatch.setattr(graphs, "SUBSET_SCAN_LIMIT", 1000)
    k14 = build_from_spec("complete:14")
    rc, out, err = run(capsys, "recognize", "--graph", emit_graph6(k14),
                       "--family", "lk-eq-k", "--k", "6")
    assert rc == 2 and out == "" and "C(14, 7) = 3432" in err and "k = 6" in err


def test_verify_seed_fills_random_term(capsys):
    rc, out, _ = run(capsys, "verify", "--theorems", "lem-kgamma",
                     "--corpus", "random_connected(n=5..6,6)", "--k", "1",
                     "--seed", "42")
    assert rc == 0 and "pass" in out


def test_verify_corpus_bounded_when_parsed(capsys):
    for spec in ("all_labeled(8)", "all_labeled(0)", "trees(<=11)", "trees(≤1000000)",
                 "random_connected(n=8..20,1000,seed=1)", "random_connected(n=1..5,5,seed=1)",
                 "random_connected(n=5..6,0,seed=1)", "random_connected(n=5..6,5,seed=1,p=0)",
                 "random_connected(n=5..6,5,seed=1,p=2)"):
        t0 = time.monotonic()
        rc, out, err = run(capsys, "verify", "--theorems", "all", "--corpus", spec,
                           "--k", "1")
        assert time.monotonic() - t0 < 0.05, spec
        assert rc == 2 and out == "" and err.startswith("error: "), spec


def test_verify_file_corpus_above_oracle_limit(tmp_path, capsys):
    corpus = tmp_path / "big.g6"
    corpus.write_text("".join(emit_graph6(build_from_spec(spec)) + "\n"
                              for spec in ("path:30", "comb:9", "spider:12,3")))
    rc, out, err = run(capsys, "verify", "--theorems", "all",
                       "--corpus", f"file({corpus})", "--k", "1..3")
    assert rc == 0 and err == ""
    # every graph's gamma is known, so lem-kgamma checks all three at each k
    assert "lem-kgamma: pass (graphs=3, substantive=9," in out


def test_verify_file_corpus_bad_line_exits_2(tmp_path, capsys):
    corpus = tmp_path / "bad.g6"
    corpus.write_text(">>graph6<<BW\n\nB!\n")
    rc, out, err = run(capsys, "verify", "--theorems", "all",
                       "--corpus", f"file({corpus})", "--k", "1")
    assert rc == 2 and out == ""
    assert err == f"error: {corpus} line 3: byte 33 outside graph6 range 63..126 (byte 1)\n"


def test_verify_stats_on_stderr_only(tmp_path, capsys):
    argv = ["verify", "--theorems", "all", "--corpus",
            "all_labeled(4)+trees(<=6)+random_connected(n=7..8,4,seed=1)", "--k", "1..2"]
    rc, plain_out, plain_err = run(capsys, *argv, "--json", str(tmp_path / "a.json"))
    assert rc == 0 and plain_err == ""
    rc, out, err = run(capsys, *argv, "--json", str(tmp_path / "b.json"), "--stats")
    assert rc == 0 and out == plain_out
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    lines = err.splitlines()
    assert len(lines) == 1
    stats = json.loads(lines[0])
    assert list(stats) == ["graphs", "classes_evaluated", "class_hits", "elapsed_s"]
    assert (stats["graphs"], stats["classes_evaluated"], stats["class_hits"]) == (92, 31, 61)
    assert stats["elapsed_s"] > 0


# ---------------------------------------------------------------------------
# one parser per process

PANEL = [["params", "--graph", "FhCGG"],
         ["bounds", "--graph", "FhCGG", "--k", "2", "--exact"],
         ["ng", "--graph", "FhCGG", "--k", "2"],
         ["solve", "--graph", "FhCGG", "--k", "2", "--witness"]]


def test_cached_parser_repeats_first_output(capsys):
    cli._build_parser.cache_clear()
    first = [run(capsys, *argv) for argv in PANEL]
    assert all(rc == 0 and out for rc, out, _ in first)
    for _ in range(3):
        assert [run(capsys, *argv) for argv in PANEL] == first
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 4 * len(PANEL) - 1)


def test_cached_parser_survives_failed_calls(capsys):
    first = [run(capsys, *argv) for argv in PANEL]
    with pytest.raises(SystemExit) as exc:
        run(capsys, "params")                       # no --graph: argparse exits
    assert exc.value.code == 2 and "--graph" in capsys.readouterr().err
    assert [run(capsys, *argv) for argv in PANEL] == first
    rc, out, err = run(capsys, "solve", "--graph", "B", "--k", "1")   # ValueError path
    assert rc == 2 and out == "" and err.startswith("error:")
    assert [run(capsys, *argv) for argv in PANEL] == first


def test_parser_not_built_at_import():
    proc = run_python("import limpack.cli\n"
                      "print(limpack.cli._build_parser.cache_info().misses)\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"
