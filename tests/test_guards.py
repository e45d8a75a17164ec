"""Argument guards that raise before any work is done: each error's type
and exact message."""

import pytest

from autbounds.bounds import ReportOptions, compose_report, eval_eq3, eval_thm1_tree
from autbounds.embeddings import count_embeddings, count_subgraph_copies
from autbounds.graphs import (
    Graph,
    SizeLimitError,
    complete_bipartite_graph,
    complete_graph,
    path_graph,
    star_graph,
)
from autbounds.trees import (
    SpanningTree,
    all_spanning_trees,
    best_greedy_tree,
    greedy_spanning_tree,
    spanning_tree_rows,
)

TWO_EDGES = Graph.from_edges(4, [(0, 1), (2, 3)])  # disconnected
P4 = SpanningTree.from_edges(4, [(0, 1), (1, 2), (2, 3)])
P8 = SpanningTree.from_edges(8, [(v, v + 1) for v in range(7)])

GUARDS = {
    "eq3-p0": (lambda: eval_eq3(path_graph(3), 0),
               ValueError, "path covering number must be at least 1"),
    "thm1-not-spanning": (  # the path 0-1-2-3 uses the edge 1-2, which K_1,3 lacks
        lambda: eval_thm1_tree(star_graph(3), P4),
        ValueError, "tree does not span the host graph"),
    "corollary-mode": (lambda: ReportOptions(corollary_mode="printed"),
                       ValueError, "unknown corollary mode 'printed'"),
    "report-bound-id": (lambda: compose_report(path_graph(3)).bound("eq99"),
                        KeyError, "'eq99'"),
    "from-edges-loop": (lambda: Graph.from_edges(3, [(0, 1), (2, 2)]),
                        ValueError, "loop edge 2-2 not allowed"),
    "from-edges-range": (lambda: Graph.from_edges(3, [(0, 3)]),
                         ValueError, "edge 0-3 out of range for n=3"),
    "bipartite-empty-part": (lambda: complete_bipartite_graph(2, 0),
                             ValueError, "both parts need at least one vertex"),
    "path-empty": (lambda: path_graph(0), ValueError, "path needs n >= 1"),
    "star-no-leaf": (lambda: star_graph(0), ValueError, "star needs at least one leaf"),
    "greedy-start-high": (lambda: greedy_spanning_tree(path_graph(3), 3),
                          ValueError, "start vertex 3 out of range"),
    "greedy-start-negative": (lambda: greedy_spanning_tree(path_graph(3), -1),
                              ValueError, "start vertex -1 out of range"),
    "best-greedy-disconnected": (lambda: best_greedy_tree(TWO_EDGES), ValueError,
                                 "greedy spanning tree needs a connected host graph"),
    "spanning-trees-disconnected": (lambda: all_spanning_trees(TWO_EDGES), ValueError,
                                    "spanning trees need a connected host graph"),
    # no tree to check, but the host is still too large to enumerate
    "census-no-trees-large-host": (lambda: count_subgraph_copies([], complete_graph(9)),
                                   SizeLimitError,
                                   "the copy census lists K_n's spanning trees; n=9 exceeds 7"),
    "embeddings-no-trees-large-host": (
        lambda: count_embeddings([], complete_graph(10)),
        SizeLimitError, "the copy census lists K_n's spanning trees; n=10 exceeds 7"),
    # the labeled counter takes n = 8, the census only what K_n's tables hold
    "census-n8": (lambda: count_subgraph_copies([P8], complete_graph(8)),
                  SizeLimitError, "the copy census lists K_n's spanning trees; n=8 exceeds 7"),
    "embeddings-n8": (lambda: count_embeddings([P8], complete_graph(8)),
                      SizeLimitError, "the copy census lists K_n's spanning trees; n=8 exceeds 7"),
    "spanning-rows-K8": (lambda: spanning_tree_rows(complete_graph(8)), SizeLimitError,
                         "spanning-tree enumeration refused for n=8 > 7: "
                         "K_8 has 262144 spanning trees"),
    "spanning-rows-K12": (lambda: spanning_tree_rows(complete_graph(12)), SizeLimitError,
                          "spanning-tree enumeration refused for n=12 > 7: "
                          "K_12 has 61917364224 spanning trees"),
    "relabel-repeated-vertex": (
        lambda: Graph.from_edges(3, [(0, 2), (1, 2)]).relabel([1, 1, 0]),
        ValueError, "relabel needs a permutation of range(3)"),
    "relabel-too-long": (lambda: path_graph(3).relabel([0, 1, 2, 5]),
                         ValueError, "relabel needs a permutation of range(3)"),
}


@pytest.mark.parametrize("call, exc_type, message", GUARDS.values(), ids=GUARDS)
def test_guard_raises(call, exc_type, message):
    with pytest.raises(exc_type) as exc:
        call()
    assert type(exc.value) is exc_type
    assert str(exc.value) == message
