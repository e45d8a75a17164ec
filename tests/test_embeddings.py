import random

import pytest
from hypothesis import given, settings, strategies as st

from autbounds.automorphisms import aut_order, aut_order_naive
from autbounds.embeddings import (
    count_embeddings,
    count_labeled_embeddings,
    count_subgraph_copies,
)
from autbounds.graphs import (
    Graph,
    SizeLimitError,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from autbounds.trees import all_spanning_trees, tree_certificate

from helpers import brute_labeled_embeddings, connected_gnm, connected_graphs_st


def test_p3_in_k3():
    ec = count_embeddings(path_graph(3), complete_graph(3))
    assert (ec.labeled, ec.copies, ec.aut_f) == (6, 3, 2)


def test_c4_in_itself():
    c4 = cycle_graph(4)
    ec = count_embeddings(c4, c4)
    assert ec.labeled == 8 == ec.aut_f
    assert ec.copies == 1


def test_star_in_k4():
    ec = count_embeddings(star_graph(3), complete_graph(4))
    assert (ec.labeled, ec.copies, ec.aut_f) == (24, 4, 6)


# Theorem 1: aut(G) <= labeled copies of any spanning subgraph F of G.

def test_theorem1_k4_star_tight():
    ec = count_embeddings(star_graph(3), complete_graph(4))
    assert aut_order(complete_graph(4)).order == 24 == ec.labeled


def test_theorem1_c4_path_tight():
    ec = count_embeddings(path_graph(4), cycle_graph(4))
    assert aut_order(cycle_graph(4)).order == 8 == ec.labeled
    assert ec.copies == 4 and ec.aut_f == 2


def test_theorem1_k3_p3():
    ec = count_embeddings(path_graph(3), complete_graph(3))
    assert aut_order(complete_graph(3)).order == 6 == ec.labeled


def test_size_mismatch_rejected():
    with pytest.raises(ValueError, match="vertex count"):
        count_embeddings(path_graph(3), complete_graph(4))


def test_cap_rejected():
    with pytest.raises(SizeLimitError):
        count_embeddings(path_graph(9), complete_graph(9))


def test_disconnected_spanning_subgraph():
    # A perfect matching is a legitimate spanning subgraph of C_4.
    m = Graph.from_edges(4, [(0, 1), (2, 3)])
    c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    ec = count_embeddings(m, c4)
    assert aut_order(c4).order <= ec.labeled
    assert ec.labeled == ec.copies * ec.aut_f


@given(connected_graphs_st(max_n=6), st.data())
def test_identity_on_random_spanning_trees(g, data):
    trees = all_spanning_trees(g)
    t = data.draw(st.sampled_from(trees))
    # count_embeddings recomputes all three quantities independently and
    # raises if the identity fails; the embedding bound must hold on top.
    ec = count_embeddings(t, g)
    assert aut_order(g).order <= ec.labeled


@given(connected_graphs_st(max_n=5))
def test_labeled_at_least_copies(g):
    t = all_spanning_trees(g)[0]
    labeled = count_labeled_embeddings(t, g)
    copies = count_subgraph_copies(t, g)
    assert labeled >= copies >= 1


def test_labeled_count_matches_oracles_on_corpus(corpus6):
    # One tree per spanning-tree isomorphism class of every connected graph
    # with n <= 6, against the subset+isomorphism and naive-permutation routes.
    for graphs in corpus6.values():
        for g in graphs:
            classes = {tree_certificate(t): t for t in all_spanning_trees(g)}
            for f in classes.values():
                assert count_labeled_embeddings(f, g) == (
                    count_subgraph_copies(f, g) * aut_order_naive(f)), (g, f)


@settings(max_examples=40)
@given(connected_graphs_st(max_n=8), st.data())
def test_labeled_count_matches_permutations(g, data):
    # Any spanning subgraph: trees, forests, subgraphs with cycles, no edges.
    edges = list(g.edges())
    keep = data.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    f = Graph.from_edges(g.n, [e for e, k in zip(edges, keep) if k])
    assert count_labeled_embeddings(f, g) == brute_labeled_embeddings(f, g)


# Sibling leaves (k >= 2 leaves of f on one neighbour, or >= 2 isolated
# vertices) are counted in closed form; every tail shape against the n! walk.

TAIL_HOSTS = {
    "K8": complete_graph(8),
    "K8-matching": Graph.from_edges(8, [(u, v) for u in range(8) for v in range(u + 1, 8)
                                        if (u, v) not in {(0, 1), (2, 3), (4, 5), (6, 7)}]),
    "C8": cycle_graph(8),
    "G(8,10)": connected_gnm(8, 10, random.Random(10)),
}

TAIL_SHAPES = {
    # one group
    "star": star_graph(7),
    # two groups
    "double-star": Graph.from_edges(8, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (1, 7)]),
    "double-star-2-4": Graph.from_edges(8, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (1, 6), (1, 7)]),
    # lone leaves only
    "path": path_graph(8),
    # two groups on the legs of a spider, plus a lone leaf
    "spider": Graph.from_edges(8, [(0, 1), (1, 2), (1, 3), (0, 4), (4, 5), (4, 6), (0, 7)]),
    # three groups, the most n = 8 allows: two cherries and the two
    # isolated vertices
    "cherries-isolated": Graph.from_edges(8, [(0, 1), (0, 2), (3, 4), (3, 5)]),
    # one group and the isolated vertices, which take what is left
    "star-isolated": Graph.from_edges(8, [(0, 1), (0, 2), (0, 3), (0, 4)]),
    # sibling leaves on 0, lone leaves on 2 and 3
    "caterpillar": Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (0, 4), (0, 5), (2, 6), (3, 7)]),
    # K2 components only
    "matching": Graph.from_edges(8, [(0, 1), (2, 3), (4, 5), (6, 7)]),
    # every one of the 8! bijections
    "edgeless": Graph.from_edges(8, []),
    "cycle": cycle_graph(8),
}


@pytest.mark.parametrize("host", TAIL_HOSTS)
@pytest.mark.parametrize("shape", TAIL_SHAPES)
def test_tail_shapes_match_permutations(shape, host):
    f, g = TAIL_SHAPES[shape], TAIL_HOSTS[host]
    assert count_labeled_embeddings(f, g) == brute_labeled_embeddings(f, g)


@pytest.mark.parametrize("f,g,count", [
    (Graph.from_edges(1, []), Graph.from_edges(1, []), 1),
    (Graph.from_edges(2, []), Graph.from_edges(2, []), 2),
    (Graph.from_edges(2, []), complete_graph(2), 2),
    (complete_graph(2), complete_graph(2), 2),
    (complete_graph(2), Graph.from_edges(2, []), 0),
])
def test_one_and_two_vertices(f, g, count):
    assert count_labeled_embeddings(f, g) == count == brute_labeled_embeddings(f, g)


def test_every_spanning_subgraph_of_small_hosts_matches_permutations(corpus6):
    # Every edge subset of every connected host with n <= 5: forests with
    # isolated vertices, matchings, cycles and the host itself.
    for n in range(1, 6):
        for g in corpus6[n]:
            edges = g.edges()
            for mask in range(1 << len(edges)):
                f = Graph.from_edges(n, [e for i, e in enumerate(edges) if mask >> i & 1])
                assert count_labeled_embeddings(f, g) == brute_labeled_embeddings(f, g), (f, g)
