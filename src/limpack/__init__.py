"""limpack: exact k-limited packing numbers and a statement-verification kit.

A k-limited packing of a graph G is a vertex set B with |N[v] & B| <= k for
every vertex v; L_k(G) is the largest size of one.  The package bundles exact
solvers (subset oracle and branch and bound), companion parameters (packing,
open packing, domination, total domination), closed formulas and bound
reports, extremal-family recognizers and constructions, deterministic graph
corpora, and a campaign runner that checks every registered statement against
exact values over those corpora.
"""

__version__ = "0.1.0"

from .bounds import (BoundEntry, BoundReport, NGReport,
                     RegularEqualityResult, bound_report, closed_form,
                     ng_lower_equality_condition, nordhaus_gaddum,
                     regular_equality_check, small_order_value)
from .campaign import (ALL_THEOREM_IDS, REGISTRY, CampaignReport, Outcome,
                       TheoremVerdict, replay_violation, run_campaign)
from .corpus import (Corpus, RejectionBudgetError, enumerate_labeled_graphs,
                     enumerate_labeled_trees, enumerate_tree_classes,
                     graph_canonical_tree_key, parse_corpus_spec, prufer_decode,
                     random_connected, splitmix64)
from .extremal import (ClassGWitness, ClassTWitness, SpiderShape,
                       build_from_spec, check_Lk_equals_k, construct_comb,
                       construct_diam2, construct_family, construct_spider,
                       construct_tree_prescribed, is_spider_below_max_degree,
                       recognize_class_G, recognize_class_T, recognize_spider,
                       spider_shapes)
from .graphs import (MAX_VERTICES, Graph, GraphFormatError, GraphProfile, bits,
                     complement, disjoint_union, emit_graph6, format_edge_list,
                     induced_subgraph, mask_of, parse_edge_list, parse_graph6,
                     profile)
from .solvers import (ORACLE_LIMIT, GraphFacts, OracleLimitError, SolveResult,
                      UndefinedParameterError, domination_number,
                      is_dominating_set, is_k_limited_packing, is_open_packing,
                      is_total_dominating_set, limited_packing_bb,
                      limited_packing_number, limited_packing_oracle,
                      open_packing_number, total_domination_number)

__all__ = [
    "__version__",
    "MAX_VERTICES", "Graph", "GraphFormatError", "GraphProfile", "bits",
    "complement", "disjoint_union", "emit_graph6", "format_edge_list",
    "induced_subgraph", "mask_of", "parse_edge_list", "parse_graph6", "profile",
    "ORACLE_LIMIT", "GraphFacts", "OracleLimitError", "SolveResult",
    "UndefinedParameterError",
    "domination_number", "is_dominating_set", "is_k_limited_packing",
    "is_open_packing", "is_total_dominating_set", "limited_packing_bb",
    "limited_packing_number", "limited_packing_oracle", "open_packing_number",
    "total_domination_number",
    "BoundEntry", "BoundReport", "NGReport",
    "RegularEqualityResult", "bound_report", "closed_form",
    "ng_lower_equality_condition", "nordhaus_gaddum", "regular_equality_check",
    "small_order_value",
    "ClassGWitness", "ClassTWitness", "SpiderShape", "build_from_spec",
    "check_Lk_equals_k", "construct_comb", "construct_diam2",
    "construct_family", "construct_spider", "construct_tree_prescribed",
    "is_spider_below_max_degree", "recognize_class_G", "recognize_class_T",
    "recognize_spider", "spider_shapes",
    "Corpus", "RejectionBudgetError", "enumerate_labeled_graphs",
    "enumerate_labeled_trees", "enumerate_tree_classes",
    "graph_canonical_tree_key", "parse_corpus_spec", "prufer_decode",
    "random_connected", "splitmix64",
    "ALL_THEOREM_IDS", "REGISTRY", "CampaignReport", "Outcome",
    "TheoremVerdict", "replay_violation", "run_campaign",
]
