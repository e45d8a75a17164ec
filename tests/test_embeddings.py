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

from helpers import brute_labeled_embeddings, connected_graphs_st


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
    ec = count_embeddings(t.to_graph(), g)
    assert aut_order(g).order <= ec.labeled


@given(connected_graphs_st(max_n=5))
def test_labeled_at_least_copies(g):
    t = all_spanning_trees(g)[0].to_graph()
    labeled = count_labeled_embeddings(t, g)
    copies = count_subgraph_copies(t, g)
    assert labeled >= copies >= 1


def test_labeled_count_matches_oracles_on_corpus(corpus6):
    # One tree per spanning-tree isomorphism class of every connected graph
    # with n <= 6, against the subset+isomorphism and naive-permutation routes.
    for graphs in corpus6.values():
        for g in graphs:
            classes = {tree_certificate(t): t for t in all_spanning_trees(g)}
            for t in classes.values():
                f = t.to_graph()
                assert count_labeled_embeddings(f, g) == (
                    count_subgraph_copies(f, g) * aut_order_naive(f)), (g, t)


@settings(max_examples=40)
@given(connected_graphs_st(max_n=8), st.data())
def test_labeled_count_matches_permutations(g, data):
    # Any spanning subgraph: trees, forests, subgraphs with cycles, no edges.
    edges = list(g.edges())
    keep = data.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    f = Graph.from_edges(g.n, [e for e, k in zip(edges, keep) if k])
    assert count_labeled_embeddings(f, g) == brute_labeled_embeddings(f, g)
