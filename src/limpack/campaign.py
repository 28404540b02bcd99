"""Verification campaign: statement evaluators, verdicts, and JSON reports.

Every registered statement id maps to an evaluator.  Per-graph evaluators run
against each corpus graph (once, or once per k); standalone evaluators sweep
their own constructed instances.  A check is "substantive" when the statement's
hypothesis held, and "positive" when its sharp side was exercised: membership
for characterizations, a tight value for inequalities, a satisfied premise for
exact-conclusion implications.

Evaluators compare structure against exact solver output, so a violation is
evidence of an implementation bug and carries both sides plus the graph6
string for standalone replay.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from itertools import product
from typing import Callable, Iterable

from . import bounds, solvers
from .corpus import CLASS_LIMIT, labeled_class
from .extremal import (check_Lk_equals_k, construct_comb, construct_diam2,
                       construct_family, construct_spider,
                       construct_tree_prescribed, is_spider_below_max_degree,
                       recognize_class_G, recognize_class_T)
from .graphs import Graph, emit_graph6, parse_graph6
from .solvers import GraphFacts


def _tool_version() -> str:
    from . import __version__
    return f"limpack {__version__}"


# ---------------------------------------------------------------------------
# evaluator outcomes

@dataclass(frozen=True)
class Outcome:
    substantive: bool
    positive: bool = False
    detail: str | None = None


# evaluators return these shared outcomes; only a violation builds a new one
SKIP = Outcome(False)
PASS = Outcome(True, False)
POSITIVE = Outcome(True, True)


def _bad(detail: str) -> Outcome:
    return Outcome(True, False, detail)


@dataclass(frozen=True)
class Evaluator:
    kind: str                                  # per_k | once | standalone
    fn: Callable | None = None
    supplements: Callable | None = None
    runner: Callable | None = None             # standalone: yields (graph, row) pairs


# ---------------------------------------------------------------------------
# evaluators derived from the bound table

_BROKEN = {"lower": "<", "upper": ">", "exact": "!="}


def _derived(citation: str, once_k: int | None = None) -> Evaluator:
    """Evaluator for a statement made of bound-table rows.

    A check is substantive where a listed row's hypothesis holds, a violation
    where L_k breaks the row's Bound.value, the value the panel prints, and
    positive on the row's tie rule.  once_k fixes k for one-k statements.
    """
    rows = bounds.bounds_for(citation)
    if not rows:
        raise ValueError(f"no bound-table row cites {citation}")

    def evaluate(f: GraphFacts, k: int = once_k) -> Outcome:
        n, p = f.n, f.profile
        outcome, fails = SKIP, []
        for b in rows:
            if not b.listed(k) or not b.applies(n, p, k, f):
                continue
            value, num, den = b.value(n, p, k, f)
            lk = f.lk(k)
            if lk < value and b.direction != "upper" or lk > value and b.direction != "lower":
                shown = num if b.den is None else f"{num}/{den}"
                fails.append(f"L_{k}={lk} {_BROKEN[b.direction]} {b.id}={shown}")
            elif b.tie == "any" or (lk * den == num if b.tie == "raw" else lk == value):
                outcome = POSITIVE
            elif outcome is SKIP:
                outcome = PASS
        return _bad("; ".join(fails)) if fails else outcome

    return Evaluator("per_k" if once_k is None else "once", fn=evaluate)


(_CHAIN,) = bounds.bounds_for("lem-monotone-chain")
(_ORDER_DEGREE,) = bounds.bounds_for("th-order-degree-upper")
(_L1_RATIO,) = bounds.bounds_for("prop-l1-l2-sandwich")
_CLASS_T = bounds.bounds_for("th-classT-characterization")


# ---------------------------------------------------------------------------
# hand-written per-k evaluators

def _ev_monotone_chain(f: GraphFacts, k: int) -> Outcome:
    n, p = f.n, f.profile
    substantive = False
    fails = []
    if k <= p.max_degree:
        substantive = True
        if f.lk(k + 1) < f.lk(k) + 1:
            fails.append(f"L_{k + 1}={f.lk(k + 1)} < L_{k}+1={f.lk(k) + 1}")
    if _CHAIN.applies(n, p, k, f):
        substantive = True
        need = _CHAIN.value(n, p, k, f)[0]
        if f.lk(k) < need:
            fails.append(f"L_{k}={f.lk(k)} < L_1+k-1={need}")
    if not substantive:
        return SKIP
    return _bad("; ".join(fails)) if fails else POSITIVE


def _ev_lk_eq_k_characterization(f: GraphFacts, k: int) -> Outcome:
    semantic = f.lk(k) == k
    structural = check_Lk_equals_k(f.g, k)
    if semantic != structural:
        return _bad(f"L_{k}={f.lk(k)} but structural test says {structural}")
    return POSITIVE if semantic else PASS


def _ev_diam_le_2(f: GraphFacts, k: int) -> Outcome:
    if f.n < k + 1 or f.lk(k) != k:
        return SKIP
    p = f.profile
    if p.diameter is None or p.diameter > 2:
        return _bad(f"L_{k}=k on order {f.n} but diameter={p.diameter}")
    return POSITIVE


def _ev_regular_half(f: GraphFacts, k: int) -> Outcome:
    verdict = bounds.regular_half(f.n, f.profile, k, f.lk)
    if verdict is None:
        return SKIP
    if not verdict:
        d = f.profile.max_degree
        return _bad(f"{d}-regular with L_{k}=n+k-1-d but 2d={2 * d} < n={f.n}")
    return POSITIVE


def _ev_ng_lower(f: GraphFacts, k: int) -> Outcome:
    lower, applies = bounds.ng_lower_bound(f.n, k)
    if not applies:
        return SKIP
    total = f.lk(k) + f.lk_bar(k)
    if total < lower:
        return _bad(f"L_{k}(G)+L_{k}(complement)={total} < 2k={lower}")
    cond = bounds.ng_lower_equality_condition(f.g, k)
    if (total == lower) != cond:
        return _bad(f"sum={total} vs 2k={lower}, structural equality condition={cond}")
    return POSITIVE if total == lower else PASS


def _ev_ng_upper(f: GraphFacts, k: int) -> Outcome:
    p = f.profile
    case, cap = bounds.ng_upper_bound(f.n, k, p.max_degree, p.min_degree)
    total = f.lk(k) + f.lk_bar(k)
    if total > cap:
        return _bad(f"L_{k}(G)+L_{k}(complement)={total} > {case} bound={cap}")
    return POSITIVE if total == cap else PASS


# ---------------------------------------------------------------------------
# hand-written once-per-graph evaluators (these fix their own k)

def _ev_l1_eq_1_iff_diam2(f: GraphFacts) -> Outcome:
    p = f.profile
    small = bounds.connected(f.n, p) and p.diameter <= 2
    if (f.lk(1) == 1) != small:
        return _bad(f"L_1={f.lk(1)} but diameter={p.diameter}")
    return POSITIVE if f.lk(1) == 1 else PASS


def _ev_open_packing_diam2(f: GraphFacts) -> Outcome:
    p = f.profile
    if not bounds.connected(f.n, p) or p.diameter > 2:
        return SKIP
    if f.rho0 > 2:
        return _bad(f"rho0={f.rho0} > 2 at diameter={p.diameter}")
    return POSITIVE


def _ev_rho_eq_gammat_trees(f: GraphFacts) -> Outcome:
    if not f.profile.is_tree or f.n < 2:
        return SKIP
    if f.rho0 != f.gamma_t:
        return _bad(f"tree with rho0={f.rho0} != gamma_t={f.gamma_t}")
    return POSITIVE


def _ev_l1_eq_gamma_trees(f: GraphFacts) -> Outcome:
    if not f.profile.is_tree:
        return SKIP
    if f.lk(1) != f.gamma:
        return _bad(f"tree with L_1={f.lk(1)} != gamma={f.gamma}")
    return POSITIVE


def _ev_ng_l2_n_plus_2(f: GraphFacts) -> Outcome:
    cap = bounds.ng_refinement_bound(f.n, 2)
    total = f.lk(2) + f.lk_bar(2)
    if total > cap:
        return _bad(f"L_2(G)+L_2(complement)={total} > n+2={cap}")
    return POSITIVE if total == cap else PASS


def _ev_class_g(f: GraphFacts) -> Outcome:
    target = _ORDER_DEGREE.value(f.n, f.profile, 2, f)[0]
    semantic = f.lk(2) == target
    member = recognize_class_G(f.g) is not None
    if semantic != member:
        return _bad(f"L_2={f.lk(2)} vs n+1-max_degree={target}, "
                    f"witness {'found' if member else 'absent'}")
    return POSITIVE if semantic else PASS


def _ev_l1_l2_sandwich(f: GraphFacts) -> Outcome:
    n, p = f.n, f.profile
    if not _L1_RATIO.applies(n, p, 2, f):
        return SKIP
    lower = _CHAIN.value(n, p, 2, f)[0]
    upper, num, den = _L1_RATIO.value(n, p, 2, f)
    l2 = f.lk(2)
    fails = []
    if l2 < lower:
        fails.append(f"L_2={l2} < L_1+1={lower}")
    if l2 > upper:
        fails.append(f"L_2={l2} exceeds 2(max_degree^2+1)L_1/(min_degree+1)={num}/{den}")
    if fails:
        return _bad("; ".join(fails))
    return POSITIVE if l2 == lower else PASS


def _ev_spider_characterization(f: GraphFacts) -> Outcome:
    p = f.profile
    if not p.is_tree or f.n < 2:
        return SKIP
    l1, l2 = f.lk(1), f.lk(2)
    member = is_spider_below_max_degree(f.g)
    fails = []
    if not l1 + 1 <= l2 <= 2 * l1:
        fails.append(f"L_2={l2} outside [L_1+1, 2L_1]=[{l1 + 1}, {2 * l1}]")
    if (l2 == l1 + 1) != member:
        fails.append(f"L_2-L_1={l2 - l1} but spider-below-max-degree={member}")
    if fails:
        return _bad("; ".join(fails))
    return POSITIVE if member else PASS


def _ev_class_t_characterization(f: GraphFacts) -> Outcome:
    p = f.profile
    if not p.is_tree or f.n < 2:
        return SKIP
    lo, hi = (b.value(f.n, p, 2, f)[0] for b in _CLASS_T)
    l2 = f.lk(2)
    member = recognize_class_T(f.g) is not None
    fails = []
    if not lo <= l2 <= hi:
        fails.append(f"L_2={l2} outside [rho0, 2*rho0]=[{lo}, {hi}]")
    if (lo == l2) != member:
        fails.append(f"rho0={lo}, L_2={l2} but witness {'found' if member else 'absent'}")
    if fails:
        return _bad("; ".join(fails))
    return POSITIVE if member else PASS


# ---------------------------------------------------------------------------
# standalone evaluators: family formulas and constructions

_FORMULA_FAMILIES = {
    "lem-path-formula": ("path", range(1, 13)),
    "lem-cycle-formula": ("cycle", range(3, 13)),
    "lem-complete-formula": ("complete", range(1, 11)),
    "lem-bipartite-formula": ("complete_bipartite",
                              [(m, n) for m in range(1, 10) for n in range(m, 10) if m + n <= 10]),
}


def _formula_run(family: str, sizes):
    """Yield each family member and its row: the oracle against the closed formula, k = 1..4."""
    for size in sizes:
        g = construct_family(family, size)
        label = f"{family} n={size}" if isinstance(size, int) else f"{family} {size[0]},{size[1]}"
        bad = []
        for k in (1, 2, 3, 4):
            expect = bounds.closed_form(family, size, k)
            got = solvers.limited_packing_oracle(g, k).value
            if got != expect:
                bad.append((k, f"{label}: oracle={got}, formula={expect}"))
        yield g, (4, 4 - len(bad), tuple(bad))


def _run_diam2_construction():
    for a in range(2, 6):
        f = GraphFacts(construct_diam2(a))
        diam, l2 = f.profile.diameter, f.lk(2)
        bad = () if diam == 2 and l2 == a else ((2, f"a={a}: diameter={diam}, L_2={l2}"),)
        yield f.g, (1, 1 - len(bad), bad)


def _run_prescribed_construction():
    for a in range(2, 5):
        for b in range(a + 1, 2 * a + 1):
            f = GraphFacts(construct_tree_prescribed(a, b))
            r, l1, l2 = f.rho0, f.lk(1), f.lk(2)
            bad = () if (r, l1, l2) == (a, a, b) else (
                (None, f"a={a}, b={b}: rho0={r}, L_1={l1}, L_2={l2}"),)
            yield f.g, (1, 1 - len(bad), bad)


# ---------------------------------------------------------------------------
# constructed supplements for the tree characterizations

def _spider_supplements() -> list[Graph]:
    return [construct_spider(t, s)
            for t in range(7) for s in range(7) if 1 + 2 * t + s >= 2]


def _class_t_supplements() -> list[Graph]:
    out = [construct_family("star", m + 1) for m in range(1, 9)]
    out.extend(construct_comb(a) for a in range(1, 5))
    out.extend(construct_comb(2, pat)
               for pat in product(range(3), repeat=2) if any(pat))
    out.extend(construct_comb(3, pat)
               for pat in product(range(3), repeat=3) if 0 < sum(pat) <= 3)
    out.extend(construct_comb(4, pat)
               for pat in product(range(2), repeat=4) if 0 < sum(pat) <= 3)
    return out


# ---------------------------------------------------------------------------
# the registry

REGISTRY: dict[str, Evaluator] = {
    **{tid: Evaluator("standalone", runner=partial(_formula_run, family, sizes))
       for tid, (family, sizes) in _FORMULA_FAMILIES.items()},
    "lem-kgamma": _derived("lem-kgamma"),
    "lem-delta-upper": _derived("lem-delta-upper"),
    "lem-monotone-chain": Evaluator("per_k", fn=_ev_monotone_chain),
    "lem-l1-eq-1-iff-diam2": Evaluator("once", fn=_ev_l1_eq_1_iff_diam2),
    "lem-open-packing-diam2": Evaluator("once", fn=_ev_open_packing_diam2),
    "lem-rho-eq-gammat-trees": Evaluator("once", fn=_ev_rho_eq_gammat_trees),
    "lem-l1-eq-gamma-trees": Evaluator("once", fn=_ev_l1_eq_gamma_trees),
    "lem-diam-lower-k12": _derived("lem-diam-lower-k12"),
    "lem-ng-l2-n-plus-2": Evaluator("once", fn=_ev_ng_l2_n_plus_2),
    "lem-l1-maxdeg-lower": _derived("lem-l1-maxdeg-lower", once_k=1),
    "prop-small-order": _derived("prop-small-order"),
    "prop-order-kplus1": _derived("prop-order-kplus1"),
    "prop-lk-geq-k": _derived("prop-lk-geq-k"),
    "th-lk-eq-k-characterization": Evaluator("per_k", fn=_ev_lk_eq_k_characterization),
    "cor-diam-le-2": Evaluator("per_k", fn=_ev_diam_le_2),
    "th-diam-lower-k3": _derived("th-diam-lower-k3"),
    "th-girth-l1": _derived("th-girth-l1", once_k=1),
    "th-girth-l2-lk": _derived("th-girth-l2-lk"),
    "th-order-degree-upper": _derived("th-order-degree-upper"),
    "cor-classG": Evaluator("once", fn=_ev_class_g),
    "cor-regular-half": Evaluator("per_k", fn=_ev_regular_half),
    "prop-ng-lower": Evaluator("per_k", fn=_ev_ng_lower),
    "th-ng-upper": Evaluator("per_k", fn=_ev_ng_upper),
    "lem-45-upper": _derived("lem-45-upper", once_k=2),
    "lem-kk1-upper": _derived("lem-kk1-upper"),
    "th-tree-deltaprime": _derived("th-tree-deltaprime", once_k=2),
    "th-diam2-construction": Evaluator("standalone", runner=_run_diam2_construction),
    "lem-maxdeg-n1": _derived("lem-maxdeg-n1", once_k=2),
    "lem-cutvertex-diam2": _derived("lem-cutvertex-diam2", once_k=2),
    "th-improved-diam-upper": _derived("th-improved-diam-upper", once_k=2),
    "lem-openpack-sandwich": _derived("lem-openpack-sandwich", once_k=1),
    "prop-l1-l2-sandwich": Evaluator("once", fn=_ev_l1_l2_sandwich),
    "th-spider-characterization": Evaluator("once", fn=_ev_spider_characterization,
                                            supplements=_spider_supplements),
    "th-classT-characterization": Evaluator("once", fn=_ev_class_t_characterization,
                                            supplements=_class_t_supplements),
    "th-prescribed-construction": Evaluator("standalone", runner=_run_prescribed_construction),
}

ALL_THEOREM_IDS: tuple[str, ...] = tuple(sorted(REGISTRY))


# ---------------------------------------------------------------------------
# campaign runner

@dataclass
class TheoremVerdict:
    theorem_id: str
    graphs_checked: int
    substantive_checks: int
    positive_cases: int
    violations: list

    @property
    def status(self) -> str:
        if self.violations:
            return "fail"
        return "vacuous" if self.substantive_checks == 0 else "pass"

    def as_dict(self) -> dict:
        return {
            "theorem_id": self.theorem_id,
            "status": self.status,
            "graphs_checked": self.graphs_checked,
            "substantive_checks": self.substantive_checks,
            "positive_cases": self.positive_cases,
            "violations": self.violations,
        }


@dataclass
class CampaignReport:
    corpus_spec: str
    k_range: list[int]
    verdicts: list[TheoremVerdict]
    # not in the report: corpus graphs, and how many ran the evaluators
    graphs: int = 0
    classes_evaluated: int = 0

    @property
    def class_hits(self) -> int:
        return self.graphs - self.classes_evaluated

    @property
    def failed(self) -> bool:
        return any(v.status == "fail" for v in self.verdicts)

    def as_dict(self) -> dict:
        return {
            "tool_version": _tool_version(),
            "corpus_spec": self.corpus_spec,
            "k_range": self.k_range,
            "verdicts": [v.as_dict() for v in self.verdicts],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2) + "\n"


def _rows(evs: list[Evaluator], facts: GraphFacts, ks: list[int], interned: dict) -> tuple:
    """One interned row (substantive, positives, ((k, detail), ...)) per evaluator.

    A "once" evaluator runs with k None, a per-k one for each k in ks; the
    substantive outcomes among them are counted, their positive ones
    counted, and their violations listed with the k they ran at.
    """
    rows = []
    for ev in evs:
        fn, once = ev.fn, ev.kind == "once"
        substantive = positives = 0
        bad = ()
        for k in (None,) if once else ks:
            out = fn(facts) if once else fn(facts, k)
            if out.substantive:
                substantive += 1
                if out.positive:
                    positives += 1
                if out.detail is not None:
                    bad += ((k, out.detail),)
        row = (substantive, positives, bad)
        rows.append(interned.setdefault(row, row))
    return tuple(rows)


def _count(verdicts: list[TheoremVerdict], rows: tuple, graphs: int) -> None:
    """Add rows to the verdicts' counts once for each of `graphs` graphs."""
    for v, (substantive, positives, _) in zip(verdicts, rows):
        v.graphs_checked += graphs
        v.substantive_checks += substantive * graphs
        v.positive_cases += positives * graphs


def _record(verdicts: list[TheoremVerdict], rows: tuple, g: Graph) -> None:
    """Append the violations in rows under g's graph6."""
    g6 = None
    for v, (_, _, bad) in zip(verdicts, rows):
        for k, detail in bad:
            if g6 is None:
                g6 = emit_graph6(g)
            v.violations.append({"graph6": g6, "k": k, "detail": detail})


def _tally(verdicts: list[TheoremVerdict], rows: tuple, g: Graph) -> None:
    _count(verdicts, rows, 1)
    _record(verdicts, rows, g)


def _violation_key(v: dict):
    return (v["graph6"], -1 if v["k"] is None else v["k"], v["detail"])


def run_campaign(theorem_ids: Iterable[str], corpus, k_range: Iterable[int],
                 corpus_spec: str | None = None) -> CampaignReport:
    """Evaluate the named statements over a corpus for every k in k_range.

    corpus is any iterable of Graph; a Corpus object contributes its spec
    string to the report (override with corpus_spec for ad hoc iterables).

    Per-graph evaluators run once per isomorphism class of order <= 6, or <= 7
    for a corpus with an all_labeled(7) term (corpus.labeled_class,
    Corpus.class_limit), and once for every other graph.  One tally, keyed
    by the interned rows tuple, counts the graphs that gave each rows tuple:
    a class keeps its tally entry, so a later member costs one lookup and
    one increment, and a graph whose rows repeat another's costs one
    increment.  The counts enter the verdicts once per distinct rows tuple,
    as rows times graphs.  A graph whose rows carry a violation records it
    under its own graph6, the only time a corpus graph's graph6 is emitted.
    So evaluators, including entries a caller adds to REGISTRY, must depend
    only on isomorphism invariants; the graph6 comes from the record.  The
    supplements and the standalone sweeps are tallied one by one.
    """
    ids = list(dict.fromkeys(theorem_ids))
    unknown = sorted(set(ids) - set(REGISTRY))
    if unknown:
        raise ValueError(f"unknown theorem ids: {', '.join(unknown)}")
    ks = sorted(set(k_range))
    if any(k < 1 for k in ks):
        raise ValueError("k values must be >= 1")

    verdicts = {tid: TheoremVerdict(tid, 0, 0, 0, []) for tid in ids}
    per_graph = [tid for tid in ids if REGISTRY[tid].kind != "standalone"]
    evs, targets = [REGISTRY[tid] for tid in per_graph], [verdicts[tid] for tid in per_graph]
    interned: dict = {}
    tally: dict = {}      # rows -> [graphs, whether the rows carry a violation, rows]
    by_class: dict = {}   # class key -> its rows' tally entry
    graphs = evaluated = 0
    class_limit = getattr(corpus, "class_limit", CLASS_LIMIT)
    if per_graph:
        for g in corpus:
            graphs += 1
            key = labeled_class(g, class_limit)
            entry = by_class.get(key)
            if entry is None:
                evaluated += 1
                rows = _rows(evs, GraphFacts(g), ks, interned)
                entry = tally.get(rows)
                if entry is None:
                    entry = tally[rows] = [0, any(bad for _, _, bad in rows), rows]
                if key is not None:
                    by_class[key] = entry
            entry[0] += 1
            if entry[1]:
                _record(targets, entry[2], g)
        for members, _, rows in tally.values():
            _count(targets, rows, members)
    for tid in ids:
        ev = REGISTRY[tid]
        if ev.kind == "standalone":
            for g, row in ev.runner():
                _tally([verdicts[tid]], (row,), g)
        elif ev.supplements is not None:
            for g in ev.supplements():
                _tally([verdicts[tid]], _rows([ev], GraphFacts(g), ks, interned), g)

    for v in verdicts.values():
        v.violations.sort(key=_violation_key)
    spec_text = corpus_spec if corpus_spec is not None else getattr(corpus, "spec", "custom")
    return CampaignReport(spec_text, ks, [verdicts[tid] for tid in sorted(verdicts)],
                          graphs, evaluated)


def replay_violation(theorem_id: str, graph6: str, k: int | None = None) -> Outcome:
    """Re-run one evaluator on one graph, standalone from a violation record;
    a per-k evaluator needs the record's k, >= 1 as in run_campaign."""
    if theorem_id not in REGISTRY:
        raise ValueError(f"unknown theorem id: {theorem_id}")
    ev = REGISTRY[theorem_id]
    if ev.kind == "standalone":
        raise ValueError(f"{theorem_id} sweeps its own instances; rerun the campaign entry")
    facts = GraphFacts(parse_graph6(graph6))
    if ev.kind == "once":
        return ev.fn(facts)
    if k is None:
        raise ValueError(f"{theorem_id} is checked per k; pass the k from the record")
    solvers._check_k(k)
    return ev.fn(facts, k)
