"""Verification campaign: statement evaluators, verdicts, and JSON reports.

REGISTRY maps each statement id to an evaluator.  Six standalone ones sweep
their own constructed instances.  Every other id is a per-graph statement,
registered because a row names it: a bounds.BOUNDS citation or a
CAMPAIGN_ROWS key.  Its rows (its CAMPAIGN_ROWS entry, or else the panel rows
citing it) are judged on each corpus graph by one rule (_derived), per k or
once at its _ONCE_K k; _SUPPLEMENTS adds constructed graphs for two.  A row is
skipped where it is not listed at k or its hypothesis fails, and is
otherwise substantive.  It is a violation where its fact breaks its value,
or else where its iff test disagrees with whether the two are equal;
otherwise it is positive on its tie.  A statement joins its rows' one
violation text (_say) in row order, and is positive when one row is.

Evaluators compare structure against exact solver output, so a violation is
evidence of an implementation bug and carries both sides plus the graph6
string for standalone replay.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import partial
from itertools import product
from typing import Callable, Iterable

from . import bounds, solvers
from .bounds import Bound
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
    rows: tuple[Bound, ...] = ()               # per-graph: the rows fn checks, in order
    k: int | None = None                       # once: the one k fn checks


# ---------------------------------------------------------------------------
# the campaign-only rows

(_CHAIN,) = bounds.bounds_for("lem-monotone-chain")
(_L1_RATIO,) = bounds.bounds_for("prop-l1-l2-sandwich")
_RHO0_LOWER, _RHO0_UPPER = bounds.bounds_for("th-classT-characterization")


def _tree2(n, p, k, a):
    return p.is_tree and n >= 2


def _sum(n, p, k, a):
    return a.lk(k) + a.lk_bar(k)


_SUM = "L_{k}(G)+L_{k}(complement)"

# statement id -> its rows in order; every other statement is the panel rows citing it
CAMPAIGN_ROWS: dict[str, tuple[Bound, ...]] = {
    "lem-monotone-chain": (
        Bound("step-lower", "lower", "max_degree >= k", "lem-monotone-chain",
              lambda n, p, k, a: k <= p.max_degree, lambda n, p, k, a: a.lk(k) + 1,
              fact=lambda n, p, k, a: a.lk(k + 1), tie="any", fact_name="L_{{k+1}}"),
        replace(_CHAIN, tie="any")),
    "th-lk-eq-k-characterization": (
        Bound("lk-eq-k", "iff", "always", "th-lk-eq-k-characterization", lambda *_: True,
              lambda n, p, k, a: k, iff=lambda n, p, k, a: check_Lk_equals_k(a.g, k)),),
    "cor-diam-le-2": (
        Bound("diam-le-2", "upper", "n >= k+1 and L_k == k", "cor-diam-le-2",
              lambda n, p, k, a: n >= k + 1 and a.lk(k) == k, lambda *_: 2, tie="any",
              fact=lambda n, p, k, a: p.diameter if p.connected else 3,  # disconnected: above 2
              fact_name="diameter"),),
    "cor-regular-half": (
        Bound("regular-half", "lower", "d-regular, k <= d and L_k == n+k-1-d",
              "cor-regular-half", bounds.regular_premise, lambda n, p, k, a: n,
              fact=lambda n, p, k, a: 2 * p.max_degree, tie="any", fact_name="2*max_degree"),),
    "prop-ng-lower": (
        Bound("ng-lower", "lower", "n >= k", "prop-ng-lower",
              lambda n, p, k, a: bounds.ng_lower_bound(n, k)[1],
              lambda n, p, k, a: bounds.ng_lower_bound(n, k)[0], fact=_sum, fact_name=_SUM,
              iff=lambda n, p, k, a: bounds.ng_lower_equality_condition(a.g, k)),),
    "th-ng-upper": (
        Bound("ng-upper", "upper", "always", "th-ng-upper", lambda *_: True,
              lambda n, p, k, a: bounds.ng_upper_bound(n, k, p.max_degree, p.min_degree)[1],
              fact=_sum, fact_name=_SUM),),
    "lem-ng-l2-n-plus-2": (
        Bound("ng-l2-upper", "upper", "k == 2", "lem-ng-l2-n-plus-2",
              lambda *_: True, lambda n, p, k, a: bounds.ng_refinement_bound(n, k), fact=_sum,
              fact_name=_SUM),),
    "lem-l1-eq-1-iff-diam2": (
        Bound("l1-eq-1", "iff", "k == 1", "lem-l1-eq-1-iff-diam2", lambda *_: True, lambda *_: 1,
              iff=lambda n, p, k, a: bounds.connected(n, p) and p.diameter <= 2),),
    "lem-open-packing-diam2": (
        Bound("rho0-le-2", "upper", "connected and diameter <= 2", "lem-open-packing-diam2",
              lambda n, p, k, a: bounds.connected(n, p) and p.diameter <= 2, lambda *_: 2,
              fact=_RHO0_LOWER.num, tie="any", fact_name="rho0"),),
    "lem-rho-eq-gammat-trees": (
        Bound("rho0-eq-gamma_t", "exact", "tree and n >= 2", "lem-rho-eq-gammat-trees",
              _tree2, lambda n, p, k, a: a.gamma_t, fact=_RHO0_LOWER.num, tie="any",
              fact_name="rho0"),),
    "lem-l1-eq-gamma-trees": (
        Bound("l1-eq-gamma", "exact", "tree and k == 1", "lem-l1-eq-gamma-trees",
              lambda n, p, k, a: p.is_tree, lambda n, p, k, a: a.gamma, tie="any"),),
    "cor-classG": (
        Bound("class-g", "iff", "k == 2", "cor-classG", lambda *_: True, bounds._ORDER_DEGREE.num,
              iff=lambda n, p, k, a: recognize_class_G(a.g) is not None),),
    "prop-l1-l2-sandwich": (_CHAIN, replace(_L1_RATIO, tie="none")),
    "th-spider-characterization": (
        replace(_CHAIN, applies=_tree2, tie="none"),
        Bound("double-l1-upper", "upper", "tree, n >= 2 and k == 2", "th-spider-characterization",
              _tree2, lambda n, p, k, a: 2 * a.lk(1), tie="none"),
        Bound("spider", "iff", "tree, n >= 2 and k == 2", "th-spider-characterization",
              _tree2, lambda *_: 1, fact=lambda n, p, k, a: a.lk(2) - a.lk(1),
              fact_name="L_2-L_1", iff=lambda n, p, k, a: is_spider_below_max_degree(a.g))),
    "th-classT-characterization": (
        replace(_RHO0_LOWER, applies=_tree2, tie="none"),
        replace(_RHO0_UPPER, applies=_tree2, tie="none"),
        Bound("class-t", "iff", "tree, n >= 2 and k == 2", "th-classT-characterization",
              _tree2, _RHO0_LOWER.num, iff=lambda n, p, k, a: recognize_class_T(a.g) is not None)),
}


# ---------------------------------------------------------------------------
# the one evaluator of a per-graph statement

_BROKEN = {"lower": "<", "upper": ">", "exact": "!="}
_BELOW, _ABOVE = ("lower", "exact"), ("upper", "exact")


def _say(b: Bound, k: int, fact: int, num: int, den: int, held: bool | None = None) -> str:
    """A row's violation text: its fact breaks its value, or else its iff test says held."""
    op = _BROKEN[b.direction] if held is None else "vs"
    said = f"{b.fact_name.format(k=k)}={fact} {op} {b.id}={num if b.den is None else f'{num}/{den}'}"
    return said if held is None else f"{said} but structural test says {held}"


def _derived(tid: str, once_k: int | None = None, supplements=None) -> Evaluator:
    """The evaluator of a statement's rows by the module's one rule; once_k fixes k."""
    rows = CAMPAIGN_ROWS.get(tid) or bounds.bounds_for(tid)

    def evaluate(f: GraphFacts, k: int = once_k) -> Outcome:
        n, p = f.n, f.profile
        outcome, fails = SKIP, []
        for b in rows:
            if not b.listed(k) or not b.applies(n, p, k, f):
                continue
            fact = f.lk(k) if b.fact is None else b.fact(n, p, k, f)
            value, num, den = b.value(n, p, k, f)
            if fact < value and b.direction in _BELOW or fact > value and b.direction in _ABOVE:
                fails.append(_say(b, k, fact, num, den))
            elif b.iff is not None and (held := b.iff(n, p, k, f)) != (fact == value):
                fails.append(_say(b, k, fact, num, den, held))
            elif (b.tie == "any" or fact == value and b.tie == "value"
                  or b.tie == "raw" and fact * den == num):
                outcome = POSITIVE
            elif outcome is SKIP:
                outcome = PASS
        return _bad("; ".join(fails)) if fails else outcome

    return Evaluator("per_k" if once_k is None else "once", evaluate, supplements, rows=rows,
                     k=once_k)


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
    """Yield each family member and its row: exact L_k against the closed formula, k = 1..4."""
    for size in sizes:
        f = GraphFacts(construct_family(family, size))
        label = f"{family} n={size}" if isinstance(size, int) else f"{family} {size[0]},{size[1]}"
        bad = []
        for k in (1, 2, 3, 4):
            expect = bounds.closed_form(family, size, k)
            if f.lk(k) != expect:
                bad.append((k, f"{label}: L_{k}={f.lk(k)}, formula={expect}"))
        yield f.g, (4, 4 - len(bad), tuple(bad))


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

# the per-graph statements checked once, at one k; every other one is checked per k
_ONCE_K = (dict.fromkeys(("lem-l1-eq-1-iff-diam2", "lem-open-packing-diam2",
                          "lem-rho-eq-gammat-trees", "lem-l1-eq-gamma-trees",
                          "lem-l1-maxdeg-lower", "th-girth-l1", "lem-openpack-sandwich"), 1)
           | dict.fromkeys(("lem-ng-l2-n-plus-2", "cor-classG", "lem-45-upper",
                            "th-tree-deltaprime", "lem-maxdeg-n1", "lem-cutvertex-diam2",
                            "th-improved-diam-upper", "prop-l1-l2-sandwich",
                            "th-spider-characterization", "th-classT-characterization"), 2))

_SUPPLEMENTS = {"th-spider-characterization": _spider_supplements,
                "th-classT-characterization": _class_t_supplements}

# the sweeps, then one per-graph statement for each id its rows cite
REGISTRY: dict[str, Evaluator] = {
    **{tid: Evaluator("standalone", runner=partial(_formula_run, family, sizes))
       for tid, (family, sizes) in _FORMULA_FAMILIES.items()},
    "th-diam2-construction": Evaluator("standalone", runner=_run_diam2_construction),
    "th-prescribed-construction": Evaluator("standalone", runner=_run_prescribed_construction),
    **{tid: _derived(tid, _ONCE_K.get(tid), _SUPPLEMENTS.get(tid))
       for tid in sorted({b.citation for b in bounds.BOUNDS} | CAMPAIGN_ROWS.keys())},
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


def _violation_key(v: dict):
    return (v["graph6"], -1 if v["k"] is None else v["k"], v["detail"])


class Tally:
    """Counts and violation records of the statements ids over the graphs it is given.

    A per-graph evaluator runs once per isomorphism class of order <= class_limit
    (corpus.labeled_class; Corpus.class_limit is 7 for a corpus with an
    all_labeled(7) term, else 6) and once for every other graph.  A graph's
    outcomes are one interned row (substantive, positives, ((k, detail), ...)) per
    statement.  One entry per distinct rows tuple, with its statements, counts the
    graphs that gave it; a class keeps its entry, so a later member costs one
    lookup and one increment.  The counts enter the verdicts as rows times graphs.
    Only an entry that carries a violation emits its graphs' graph6, to record it
    under each; so evaluators, including entries a caller adds to REGISTRY, must
    depend only on isomorphism invariants.  Supplements and sweep instances are
    counted by the same step, each under its one statement id.  No Graph is kept.
    """

    def __init__(self, ids: Iterable[str], ks: list[int], class_limit: int = CLASS_LIMIT):
        self.ids, self.ks, self.class_limit = list(ids), ks, class_limit
        self.per_graph = tuple(tid for tid in self.ids if REGISTRY[tid].kind != "standalone")
        self.graphs = self.classes_evaluated = 0
        self._interned: dict = {}
        self._entries: dict = {}   # (ids, rows) -> [graphs, whether rows hold a violation, ids, rows]
        self._by_class: dict = {}  # class key -> its rows' entry
        self._violations: dict = {tid: [] for tid in self.ids}

    def add(self, g: Graph) -> None:
        """Count one corpus graph: under its class's entry, or else under its evaluated rows."""
        self.graphs += 1
        key = labeled_class(g, self.class_limit)
        entry = self._by_class.get(key)
        if entry is None:
            self.classes_evaluated += 1
            entry = self._entry(self.per_graph, self._rows(self.per_graph, GraphFacts(g)))
            if key is not None:
                self._by_class[key] = entry
        self._step(entry, g)

    def add_constructed(self) -> None:
        """Count the supplements and sweep instances of the statements asked for."""
        for tid in self.ids:
            ev = REGISTRY[tid]
            if ev.kind == "standalone":
                for g, row in ev.runner():
                    self._step(self._entry((tid,), (row,)), g)
            elif ev.supplements is not None:
                for g in ev.supplements():
                    self._step(self._entry((tid,), self._rows((tid,), GraphFacts(g))), g)

    def _rows(self, ids: tuple, facts: GraphFacts) -> tuple:
        """One interned row per statement: a "once" one runs with k None, a per-k one at each k."""
        rows = []
        for tid in ids:
            fn, once = REGISTRY[tid].fn, REGISTRY[tid].kind == "once"
            substantive = positives = 0
            bad = ()
            for k in (None,) if once else self.ks:
                out = fn(facts) if once else fn(facts, k)
                if out.substantive:
                    substantive += 1
                    if out.positive:
                        positives += 1
                    if out.detail is not None:
                        bad += ((k, out.detail),)
            row = (substantive, positives, bad)
            rows.append(self._interned.setdefault(row, row))
        return tuple(rows)

    def _entry(self, ids: tuple, rows: tuple) -> list:
        fresh = [0, any(bad for _, _, bad in rows), ids, rows]
        return self._entries.setdefault((ids, rows), fresh)

    def _step(self, entry: list, g: Graph) -> None:
        """The one counting step: one more graph under entry, its violations under g's graph6."""
        entry[0] += 1
        if entry[1]:
            g6 = emit_graph6(g)
            for tid, (_, _, bad) in zip(entry[2], entry[3]):
                self._violations[tid] += [{"graph6": g6, "k": k, "detail": d} for k, d in bad]

    def report(self, spec: str) -> CampaignReport:
        """The verdicts of the counts so far, violations sorted, in a CampaignReport."""
        verdicts = {tid: TheoremVerdict(tid, 0, 0, 0, sorted(found, key=_violation_key))
                    for tid, found in self._violations.items()}
        for graphs, _, ids, rows in self._entries.values():
            for tid, (substantive, positives, _) in zip(ids, rows):
                v = verdicts[tid]
                v.graphs_checked += graphs
                v.substantive_checks += substantive * graphs
                v.positive_cases += positives * graphs
        return CampaignReport(spec, self.ks, [verdicts[tid] for tid in sorted(verdicts)],
                              self.graphs, self.classes_evaluated)


def run_campaign(theorem_ids: Iterable[str], corpus, k_range: Iterable[int],
                 corpus_spec: str | None = None) -> CampaignReport:
    """Evaluate the named statements over a corpus for every k in k_range, by a Tally.

    corpus is any iterable of Graph; a Corpus object contributes its spec string
    (override it with corpus_spec for ad hoc iterables) and its class_limit.
    """
    ids = list(dict.fromkeys(theorem_ids))
    unknown = sorted(set(ids) - set(REGISTRY))
    if unknown:
        raise ValueError(f"unknown theorem ids: {', '.join(unknown)}")
    ks = sorted(set(k_range))
    if any(k < 1 for k in ks):
        raise ValueError("k values must be >= 1")

    tally = Tally(ids, ks, getattr(corpus, "class_limit", CLASS_LIMIT))
    if tally.per_graph:
        for g in corpus:
            tally.add(g)
    tally.add_constructed()
    spec_text = corpus_spec if corpus_spec is not None else getattr(corpus, "spec", "custom")
    return tally.report(spec_text)


def replay_violation(theorem_id: str, graph6: str, k: int | None = None) -> Outcome:
    """Re-run one evaluator on one graph, standalone from a violation record;
    a per-k evaluator needs the record's k, any k given is >= 1 as in
    run_campaign, and a once evaluator takes no k but its own."""
    if theorem_id not in REGISTRY:
        raise ValueError(f"unknown theorem id: {theorem_id}")
    ev = REGISTRY[theorem_id]
    if ev.kind == "standalone":
        raise ValueError(f"{theorem_id} sweeps its own instances; rerun the campaign entry")
    if k is not None:
        solvers._check_k(k)
        if ev.kind == "once" and k != ev.k:
            raise ValueError(f"{theorem_id} is checked once, at k = {ev.k}; got k = {k}")
    facts = GraphFacts(parse_graph6(graph6))
    if ev.kind == "once":
        return ev.fn(facts)
    if k is None:
        raise ValueError(f"{theorem_id} is checked per k; pass the k from the record")
    return ev.fn(facts, k)
