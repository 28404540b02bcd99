"""The four benchmark workloads: inputs, one timed pass, and output checks.

Each workload is built from a seed (set-up) and then runs passes over its
fixed input set. A pass sends one operation at a time, in a closed loop, and
returns its wall time, the latency of every operation and the number of
operations whose output was wrong. Checks run after the timed loop. Times
are measured on a clock from `speed`: scaled to the reference speed in the
end-to-end runs, raw in the traced ones.

limpack is reached only through its public functions. A `Tracer`, when one
is given, only adds spans from this side of those calls.
"""
from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from itertools import product
from time import perf_counter

from speed import RawClock

KS = (1, 2, 3)


def campaign_spec(seed: int) -> str:
    """The acceptance campaign's corpus, with its random term seeded by `seed`."""
    return f"all_labeled(6)+trees(≤9)+random_connected(n=8..12,1000,seed={seed})"


@dataclass
class PassResult:
    wall_s: float
    raw_wall_s: float
    op_s: list[float]
    items: int
    failed: int
    errors: list[str] = field(default_factory=list)


def _note(errors: list[str], text: str) -> None:
    if len(errors) < 10:
        errors.append(text)


# ---------------------------------------------------------------------------

class CampaignRef:
    """`verify --theorems all` over the reference corpus.

    One operation is the whole campaign, the one command a user runs. Per
    graph it would be a poor operation: the heaviest graphs (random, n = 12)
    come last and run within about two seconds, so a per-graph tail would
    only show how fast the machine ran in those seconds.
    """

    name = "campaign-ref"
    item = "graphs"
    EXPECTED_GRAPHS = 33867 + 94 + 1000   # all_labeled(6) + trees(≤9) classes + random
    EXPECTED_VERDICTS = 39

    def __init__(self, lp, seed: int, data: dict):
        self.lp = lp
        self.spec = campaign_spec(seed)
        self.terms = [(term.split("(")[0], lp.corpus.parse_corpus_spec(term))
                      for term in self.spec.split("+")]
        self.digest = data["campaign_digests"].get(str(seed))

    def _corpus(self, tracer, clock):
        """The corpus term by term; traced, each graph's campaign work is a span.

        Untraced, the speed probes run here, between two graphs.
        """
        self._graphs = 0
        for term, corpus in self.terms:
            span_name = "campaign.term." + term
            for g in corpus:
                self._graphs += 1
                if tracer is None:
                    clock.maybe_probe()
                    yield g
                    continue
                tracer.op_id = self._graphs
                span = tracer.begin(span_name)
                yield g
                tracer.finish(span)
        if tracer is not None:
            tracer.op_id = 0
            self._tail_span = tracer.begin("campaign.standalone")

    def run_pass(self, tracer=None, clock=None) -> PassResult:
        campaign = self.lp.campaign
        clock = clock or RawClock()
        self._tail_span = None
        clock.probe()
        t0 = perf_counter()
        run_span = tracer.begin("campaign.run") if tracer else None
        report = campaign.run_campaign(campaign.ALL_THEOREM_IDS, self._corpus(tracer, clock),
                                       list(KS), corpus_spec=self.spec)
        if tracer is not None:
            tracer.finish(self._tail_span)
            tracer.finish(run_span)
            json_span = tracer.begin("campaign.to_json")
        text = report.to_json()
        if tracer is not None:
            tracer.finish(json_span)
        t_end = perf_counter()
        clock.probe()
        wall = clock.scaled(t0, t_end)

        errors: list[str] = []
        if report.failed:   # `limpack verify` exits 1 exactly when this holds
            _note(errors, "campaign reports a failed statement (exit code 1)")
        if len(report.verdicts) != self.EXPECTED_VERDICTS:
            _note(errors, f"{len(report.verdicts)} verdicts, expected {self.EXPECTED_VERDICTS}")
        violations = sum(len(v.violations) for v in report.verdicts)
        if violations:
            _note(errors, f"{violations} violations")
        if self._graphs != self.EXPECTED_GRAPHS:
            _note(errors, f"{self._graphs} corpus graphs, expected {self.EXPECTED_GRAPHS}")
        if self.digest is not None:
            got = hashlib.sha256(text.encode()).hexdigest()
            if got != self.digest:
                _note(errors, f"report sha256 {got} differs from the recorded {self.digest}")
        return PassResult(wall, clock.raw(t0, t_end), [wall], self._graphs,
                          self._graphs if errors else 0, errors)


class SolveSparse:
    """limited_packing_number(g, k), k = 1..3, on the stored sparse G(n, p) pool.

    The labeling stays as stored: branch and bound's time on these graphs
    swings several-fold with vertex order, so the seed only sets the order
    in which the solves are sent.
    """

    name = "solve-sparse"
    item = "solves"

    def __init__(self, lp, seed: int, data: dict):
        self.lp = lp
        queries = []
        for entry in data["solve_sparse"]:
            g = lp.graphs.parse_graph6(entry["graph6"])
            for k, ref in zip(KS, entry["L"]):
                queries.append((g, k, ref))
        random.Random(seed).shuffle(queries)
        self.queries = queries

    def run_pass(self, tracer=None, clock=None) -> PassResult:
        solve = self.lp.solvers.limited_packing_number
        clock = clock or RawClock()
        stamps: list[tuple[float, float]] = []
        results = []
        clock.probe()
        t0 = perf_counter()
        for op, (g, k, _) in enumerate(self.queries, 1):
            if tracer is not None:
                tracer.op_id = op
            clock.maybe_probe()
            t = perf_counter()
            res = solve(g, k)
            stamps.append((t, perf_counter()))
            results.append(res)
        t_end = perf_counter()
        clock.probe()
        op_s = [clock.scaled(a, b) for a, b in stamps]

        errors: list[str] = []
        failed = 0
        for (g, k, ref), res in zip(self.queries, results):
            feasible = all((cn & res.witness).bit_count() <= k for cn in g.closed)
            if res.value != ref or res.witness.bit_count() != ref or not feasible:
                failed += 1
                _note(errors, f"L_{k}({self.lp.graphs.emit_graph6(g)}) = {res.value}, "
                              f"reference {ref}, witness feasible {feasible}")
        return PassResult(clock.scaled(t0, t_end), clock.raw(t0, t_end), op_s, len(op_s),
                          failed, errors)


class QueryMid:
    """`params`, `bounds --exact --k K` and `ng --k K` through limpack.cli.main.

    Every stored graph gets all three requests, with K cycling over 1..3 by
    pool index. The graphs keep their stored labeling and the seed shuffles
    the request order. The 2^n scans for gamma, rho0 and gamma_t visit masks
    in numeric order and skip every mask no smaller than the best set found
    so far, so their time hangs on where a small set sits in the labeling:
    drawn from the seed, even three labelings of each graph per pass left
    the pass time spread by a fifth over five seeds.
    """

    name = "query-mid"
    item = "queries"

    def __init__(self, lp, seed: int, data: dict):
        self.lp = lp
        requests = []
        for i, entry in enumerate(data["query_mid"]):
            g6 = entry["graph6"]
            k_bounds, k_ng = KS[i % 3], KS[(i + 1) % 3]
            requests += [(["params", "--graph", g6], entry, None),
                         (["bounds", "--graph", g6, "--k", str(k_bounds), "--exact"], entry, k_bounds),
                         (["ng", "--graph", g6, "--k", str(k_ng)], entry, k_ng)]
        random.Random(seed).shuffle(requests)
        self.requests = requests

    def run_pass(self, tracer=None, clock=None) -> PassResult:
        main = self.lp.cli.main
        clock = clock or RawClock()
        stamps: list[tuple[float, float]] = []
        outputs = []
        clock.probe()
        t0 = perf_counter()
        for op, (argv, _, _) in enumerate(self.requests, 1):
            if tracer is not None:
                tracer.op_id = op
            buf = io.StringIO()
            clock.maybe_probe()
            t = perf_counter()
            with redirect_stdout(buf):
                rc = main(argv)
            stamps.append((t, perf_counter()))
            outputs.append((rc, buf.getvalue()))
        t_end = perf_counter()
        clock.probe()
        op_s = [clock.scaled(a, b) for a, b in stamps]

        errors: list[str] = []
        failed = 0
        for (argv, ref, k), (rc, text) in zip(self.requests, outputs):
            problem = self._check(argv[0], ref, k, rc, text)
            if problem:
                failed += 1
                _note(errors, f"{' '.join(argv)}: {problem}")
        return PassResult(clock.scaled(t0, t_end), clock.raw(t0, t_end), op_s, len(op_s),
                          failed, errors)

    @staticmethod
    def _check(cmd: str, ref: dict, k: int | None, rc: int, text: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        try:
            out = json.loads(text)
        except ValueError:
            return "output is not JSON"
        if cmd == "params":
            want = {"n": ref["n"], "m": ref["m"], "L1": ref["L"][0], "L2": ref["L"][1],
                    "L3": ref["L"][2], "rho0": ref["rho0"], "gamma": ref["gamma"],
                    "gamma_t": ref["gamma_t"]}
            got = {key: out.get(key) for key in want}
            return None if got == want else f"got {got}, reference {want}"
        exact = ref["L"][k - 1]
        if cmd == "bounds":
            lo, hi = out.get("best_lower"), out.get("best_upper")
            if out.get("exact") != exact:
                return f"exact {out.get('exact')}, reference {exact}"
            if (lo is not None and lo > exact) or (hi is not None and hi < exact):
                return f"bounds [{lo}, {hi}] exclude the reference {exact}"
            return None
        want = (exact, ref["L_bar"][k - 1], exact + ref["L_bar"][k - 1])
        got = (out.get("value"), out.get("value_complement"), out.get("total"))
        return None if got == want else f"(value, complement, total) {got}, reference {want}"


class TreeSweep:
    """Every labeled tree with n ≤ 8: Prüfer decode, AHU key, one solve per class.

    The seed permutes the Prüfer alphabet of each order, which visits the
    same n^(n-2) sequences in another order. One operation is a batch of
    BATCH consecutive trees, about 0.1 s: single trees take about 30 µs, so
    their latency tail would only show interpreter pauses, and with batches
    of 1,000 a slow spell of the host shorter than the probe window of
    `speed` slowed ten or more batches in a row and set the tail.
    """

    name = "tree-sweep"
    item = "trees"
    BATCH = 5000
    ORDERS = range(2, 9)
    CLASS_COUNTS = {2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23}

    def __init__(self, lp, seed: int, data: dict):
        self.lp = lp
        rng = random.Random(seed)
        self.alphabets = {}
        for n in self.ORDERS:
            symbols = list(range(n))
            rng.shuffle(symbols)
            self.alphabets[n] = symbols

    def run_pass(self, tracer=None, clock=None) -> PassResult:
        corpus, solvers, graphs = self.lp.corpus, self.lp.solvers, self.lp.graphs
        decode, canon = corpus.prufer_decode, corpus.tree_canonical_key
        clock = clock or RawClock()
        stamps: list[tuple[float, float]] = []
        classes: dict[int, dict[str, tuple]] = {}
        trees = 0
        clock.probe()
        t0 = t = perf_counter()
        for n in self.ORDERS:
            seen = classes[n] = {}
            seqs = [()] if n == 2 else product(self.alphabets[n], repeat=n - 2)
            for seq in seqs:
                if trees % self.BATCH == 0:
                    if trees:
                        stamps.append((t, perf_counter()))
                        clock.maybe_probe()
                        t = perf_counter()
                    if tracer is not None:
                        tracer.op_id = trees // self.BATCH + 1
                trees += 1
                edges = decode(seq, n)
                adj = [[] for _ in range(n)]
                for u, v in edges:
                    adj[u].append(v)
                    adj[v].append(u)
                key = canon(n, adj)
                if key not in seen:
                    g = graphs.Graph.from_edges(n, edges)
                    seen[key] = (solvers.limited_packing_number(g, 1).value,
                                 solvers.domination_number(g).value,
                                 solvers.open_packing_number(g).value,
                                 solvers.total_domination_number(g).value)
        t_end = perf_counter()
        stamps.append((t, t_end))
        clock.probe()
        op_s = [clock.scaled(a, b) for a, b in stamps]

        errors: list[str] = []
        expected_trees = sum(n ** (n - 2) for n in self.ORDERS)
        if trees != expected_trees:
            _note(errors, f"{trees} trees, expected {expected_trees}")
        for n, seen in classes.items():
            if len(seen) != self.CLASS_COUNTS[n]:
                _note(errors, f"{len(seen)} classes of order {n}, expected {self.CLASS_COUNTS[n]}")
            for key, (l1, gamma, rho0, gamma_t) in seen.items():
                if l1 != gamma or rho0 != gamma_t:
                    _note(errors, f"order {n} class {key}: L1={l1} gamma={gamma} "
                                  f"rho0={rho0} gamma_t={gamma_t}")
        return PassResult(clock.scaled(t0, t_end), clock.raw(t0, t_end), op_s, trees,
                          trees if errors else 0, errors)


WORKLOADS = {cls.name: cls for cls in (CampaignRef, SolveSparse, QueryMid, TreeSweep)}
