"""Command-line interface: solve, params, bounds, ng, recognize, generate, verify.

Graphs are given as graph6 text or @path (a file holding one graph6 line or an
edge list whose first line is "n m").  All structured output is JSON with a
fixed key order so repeated runs are byte-identical.  A record printed from a
dataclass (BoundEntry, NGReport, GraphProfile, SpiderShape) is read off its
__dict__, so its field order is the key order; none has a cached_property or
__slots__, which would change or break __dict__.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from json.encoder import encode_basestring_ascii as _quote

from . import bounds as bounds_mod
from . import solvers
from .campaign import ALL_THEOREM_IDS, run_campaign
from .corpus import RejectionBudgetError, parse_corpus_spec, parse_number
from .extremal import (build_from_spec, check_Lk_equals_k,
                       is_spider_below_max_degree, recognize_class_G,
                       recognize_class_T, recognize_spider)
from .graphs import (EDGE_LIST_LIMIT, MAX_VERTICES, Graph, GraphFormatError, bits,
                     emit_graph6, is_tree, parse_edge_list, parse_graph6)

def _load_graph(spec: str) -> Graph:
    """graph6 text, or @path to a file holding graph6 or an 'n m' edge list.

    A bare "@" names no file, so it is graph6: K_1.  The file is read only up
    to EDGE_LIST_LIMIT bytes, the longest valid input; a longer file is an error.
    """
    if spec.startswith("@") and spec != "@":
        path = spec[1:]
        with open(path, "rb") as fh:
            data = fh.read(EDGE_LIST_LIMIT + 1)
        if len(data) > EDGE_LIST_LIMIT:
            raise GraphFormatError(f"{path}: longer than {EDGE_LIST_LIMIT} bytes, the longest "
                                   f"edge list of a graph with {MAX_VERTICES} vertices")
        try:
            text = data.decode()
        except UnicodeDecodeError as exc:
            raise GraphFormatError(f"{path}: not UTF-8 text", exc.start) from None
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise GraphFormatError("graph file is empty", 0)
        head = lines[0].split()
        if len(head) == 2 and all(p.isdigit() for p in head):
            return parse_edge_list(text)
        return parse_graph6(lines[0])
    return parse_graph6(spec)


# L_k(G) = n once k > max degree (at most MAX_VERTICES - 1): larger k add nothing
K_LIMIT = MAX_VERTICES + 1


def _parse_k_list(text: str) -> list[int]:
    """'2', '1..3', or '1,2,4', each k in 1..K_LIMIT, checked before a range is built."""
    text = text.strip()
    where = f"k list {text!r}"
    if ".." in text:
        lo, hi = (parse_number(part, where) for part in text.split("..", 1))
        if lo > hi:
            raise ValueError(f"empty k range {text!r}")
        ks = range(lo, hi + 1)
    else:
        ks = [parse_number(part, where) for part in text.split(",")]
        lo, hi = min(ks), max(ks)
    if lo < 1:
        raise ValueError("k values must be >= 1")
    if hi > K_LIMIT:
        raise ValueError(f"k values must be <= {K_LIMIT} (graphs have at most "
                         f"{MAX_VERTICES} vertices), got {hi}")
    return list(ks)


def _json(x, pad: str = "\n") -> str:
    """x as json.dumps(x, indent=2) writes it, at the indent pad (a newline and
    spaces): None, bool, int, str, and lists and dicts of them, with str keys.
    Any other type raises TypeError, a float too: no command prints one."""
    if isinstance(x, str):
        return _quote(x)
    if x is None or isinstance(x, bool):
        return "null" if x is None else "true" if x else "false"
    if isinstance(x, int):
        return int.__repr__(x)
    inner = pad + "  "
    if isinstance(x, dict):
        items = [f"{inner}{_quote(k)}: {_json(v, inner)}" for k, v in x.items()]
        return "{" + ",".join(items) + pad + "}" if items else "{}"
    if isinstance(x, list):
        items = [inner + _json(v, inner) for v in x]
        return "[" + ",".join(items) + pad + "]" if items else "[]"
    raise TypeError(f"cannot print {type(x).__name__} as JSON")


def _emit(payload: dict) -> None:
    """Print payload as json.dumps(payload, indent=2) would, byte for byte.

    With an indent, json.dumps skips its C encoder for the pure-Python one,
    which took about 3.8 ms of the 44 ms that 72 params, bounds and ng calls
    take; _json quotes strings with json's C function and joins the rest
    itself, in about 60 % of that time.
    """
    print(_json(payload))


def cmd_solve(args) -> int:
    g = _load_graph(args.graph)
    res, record = solvers.timed(
        lambda: solvers.limited_packing_number(g, args.k, method=args.method))
    print(res.value)
    if args.witness:
        print(" ".join(str(v) for v in res.witness_vertices()))
    if args.stats:
        print(json.dumps({"method": res.method, **record}), file=sys.stderr)
    return 0


def cmd_params(args) -> int:
    g = _load_graph(args.graph)
    stats: dict = {}
    f = solvers.GraphFacts(g, stats)
    values = {"L1": f.lk(1), "L2": f.lk(2), "L3": f.lk(3), "rho0": f.rho0, "gamma": f.gamma}
    try:
        values["gamma_t"] = f.gamma_t
    except solvers.UndefinedParameterError:  # an isolated vertex
        values["gamma_t"] = stats["gamma_t"] = None
    _emit({
        "graph6": emit_graph6(g),
        "n": g.n,
        "m": g.edge_count(),
        **values,
        "profile": {**vars(f.profile), "cut_vertices": list(bits(f.profile.cut_vertices))},
    })
    if args.stats:
        print(json.dumps(stats), file=sys.stderr)
    return 0


def cmd_bounds(args) -> int:
    g = _load_graph(args.graph)
    _emit(bounds_mod.bound_report(g, args.k, with_exact=args.exact).as_dict())
    return 0


def cmd_ng(args) -> int:
    g = _load_graph(args.graph)
    stats: dict = {}
    _emit(bounds_mod.nordhaus_gaddum(g, args.k, stats).as_dict())
    if args.stats:
        print(json.dumps(stats[f"L{args.k}_bar"]), file=sys.stderr)
    return 0


def cmd_recognize(args) -> int:
    g = _load_graph(args.graph)
    family = args.family
    member = False
    witness = None
    if family == "classG":
        w = recognize_class_G(g)
        member = w is not None
        if w is not None:
            witness = {"A0": list(bits(w.a0)), "B0": list(bits(w.b0))}
    elif family == "spider":
        if is_tree(g):
            shape = recognize_spider(g)
            member = shape is not None
            if shape is not None:
                witness = {**vars(shape), "below_max_degree": is_spider_below_max_degree(g)}
    elif family == "classT":
        if is_tree(g) and g.n >= 2:
            w = recognize_class_T(g)
            member = w is not None
            if w is not None:
                witness = {"S0": list(bits(w.s0)), "R0": list(bits(w.r0))}
    else:  # lk-eq-k
        member = check_Lk_equals_k(g, args.k)
    _emit({
        "family": family,
        "graph6": emit_graph6(g),
        "k": args.k if family == "lk-eq-k" else None,
        "member": member,
        "witness": witness,
    })
    return 0


def cmd_generate(args) -> int:
    print(emit_graph6(build_from_spec(args.family)))
    return 0


def _unwritable(path: str) -> str | None:
    """Why no report can be written at path, or None; creates and truncates nothing."""
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path):
        return "it is a directory"
    if not os.path.isdir(folder):
        return f"no directory {folder}"
    if not os.access(path if os.path.exists(path) else folder, os.W_OK):
        return "permission denied"


def cmd_verify(args) -> int:
    if args.json and (why := _unwritable(args.json)):   # before any graph is built
        raise OSError(f"cannot write the report to {args.json}: {why}")
    if args.theorems.strip() == "all":
        ids = list(ALL_THEOREM_IDS)
    else:
        ids = [t.strip() for t in args.theorems.split(",") if t.strip()]
        if not ids:
            raise ValueError("no theorem ids given")
    corpus = parse_corpus_spec(args.corpus, default_seed=args.seed)
    t0 = time.perf_counter()
    report = run_campaign(ids, corpus, _parse_k_list(args.k))
    elapsed = time.perf_counter() - t0
    for v in report.verdicts:
        print(f"{v.theorem_id}: {v.status} (graphs={v.graphs_checked}, "
              f"substantive={v.substantive_checks}, positives={v.positive_cases}, "
              f"violations={len(v.violations)})")
        for rec in v.violations[:5]:
            print(f"  violation: graph6={rec['graph6']} k={rec['k']}: {rec['detail']}")
        if len(v.violations) > 5:
            print(f"  ... {len(v.violations) - 5} more violations")
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(report.to_json())
    if args.stats:
        print(json.dumps({"graphs": report.graphs,
                          "classes_evaluated": report.classes_evaluated,
                          "class_hits": report.class_hits,
                          "elapsed_s": round(elapsed, 6)}), file=sys.stderr)
    return 1 if report.failed else 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first main() call and reused after it.

    parse_args leaves the parser unchanged, so one parser serves every call in
    a process; it is not built at import.
    """
    parser = argparse.ArgumentParser(
        prog="limpack",
        description="Exact k-limited packing numbers, bounds, and statement verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="maximum k-limited packing of one graph")
    p.add_argument("--graph", required=True, help="graph6 text or @file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--method", choices=("auto", "oracle", "bb"), default="auto")
    p.add_argument("--witness", action="store_true",
                   help="also print an optimal set: branch and bound's first "
                        "fit when it is optimal, else the last larger packing it "
                        "finds; --method oracle gives the lexicographically "
                        "least one")
    p.add_argument("--stats", action="store_true",
                   help="print method, nodes explored and elapsed seconds as "
                        "one JSON line on stderr")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("params", help="exact parameter panel for one graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--stats", action="store_true",
                   help="print method, nodes explored and elapsed seconds of each "
                        "solved parameter as one JSON line on stderr")
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("bounds", help="every applicable bound at the given k")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--exact", action="store_true",
                   help="also solve exactly and include the value")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("ng", help="L_k(G) + L_k(complement) with case bounds")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--stats", action="store_true",
                   help="print the route L_k(complement) took and the searches it "
                        "ran, with nodes explored and elapsed seconds, as one JSON "
                        "line on stderr")
    p.set_defaults(func=cmd_ng)

    p = sub.add_parser("recognize", help="membership tests for extremal families")
    p.add_argument("--graph", required=True)
    p.add_argument("--family", required=True,
                   choices=("classG", "spider", "classT", "lk-eq-k"))
    p.add_argument("--k", type=int, default=2, help="k for lk-eq-k membership")
    p.set_defaults(func=cmd_recognize)

    p = sub.add_parser("generate", help="emit a constructed family member as graph6")
    p.add_argument("--family", required=True,
                   help="spec like spider:3,2 diam2:4 prescribed:8,12 path:7")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("verify", help="run statement evaluators over a corpus")
    p.add_argument("--theorems", required=True, help="'all' or comma-joined ids")
    p.add_argument("--corpus", required=True,
                   help="e.g. all_labeled(6)+trees(<=9)"
                        "+random_connected(n=8..12,1000,seed=42)")
    p.add_argument("--k", required=True, help="'2', '1..3', or '1,2,4'")
    p.add_argument("--seed", type=int, default=None,
                   help="default seed for random corpus terms that omit seed=")
    p.add_argument("--json", default=None, help="also write the report here")
    p.add_argument("--stats", action="store_true",
                   help="print corpus graphs, evaluator runs, class-cache hits "
                        "and elapsed seconds as one JSON line on stderr")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RejectionBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
