"""Exact automorphism group orders for small graphs plus a catalogue of
verified upper bounds built from spanning-tree and degree data.

Everything operates on the immutable :class:`~autbounds.graphs.Graph`; all
values are exact (arbitrary-precision integers and rationals) except the rows
whose closed form leaves the rationals (an irrational base or a fractional
exponent), which are reported in the log2 domain.
"""

from .graphs import (
    VERTEX_CAP,
    Graph,
    GraphParseError,
    SizeLimitError,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    is_connected,
    parse_edgelist,
    parse_graph6,
    path_graph,
    petersen_graph,
    star_graph,
    write_graph6,
)
from .automorphisms import AutResult, aut_order, aut_order_naive
from .trees import (
    GreedyTree,
    SpanningTree,
    all_spanning_trees,
    best_greedy_tree,
    embedding_upper_fs,
    greedy_spanning_tree,
    spanning_tree_count,
    tree_aut_exact,
    tree_aut_upper,
    tree_certificate,
    verify_greedy_tree,
)
from .embeddings import (
    CountingIdentityError,
    EmbeddingCount,
    count_embeddings,
    count_labeled_embeddings,
    count_subgraph_copies,
)
from .structure import (
    PathCoverResult,
    StarFreeParam,
    path_cover_number,
    star_free_parameter,
)
from .bounds import (
    BOUND_IDS,
    BoundReport,
    BoundValue,
    ReportOptions,
    compose_report,
    eval_corollary,
    eval_eq1,
    eval_eq2,
    eval_eq3,
    eval_eq4,
    eval_eq5,
    eval_eq6,
    eval_eq7,
    eval_eq8,
    eval_thm1_tree,
    eval_thm3,
)
from .corpus import all_graphs, connected_graphs

__version__ = "0.1.0"
