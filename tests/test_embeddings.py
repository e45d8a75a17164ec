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
    connected_gnm,
    cycle_graph,
    path_graph,
    star_graph,
)
from autbounds.trees import SpanningTree, all_spanning_trees, tree_certificate

from helpers import (
    as_tree,
    brute_labeled_embeddings,
    connected_graphs_st,
    random_spanning_tree,
)


def embed(t: Graph, g: Graph):
    (ec,) = count_embeddings([as_tree(t)], g)
    return ec


def test_p3_in_k3():
    ec = embed(path_graph(3), complete_graph(3))
    assert (ec.labeled, ec.copies, ec.aut_f) == (6, 3, 2)


def test_star_in_k4():
    ec = embed(star_graph(3), complete_graph(4))
    assert (ec.labeled, ec.copies, ec.aut_f) == (24, 4, 6)


# Theorem 1: aut(G) <= labeled copies of any spanning subgraph F of G; the
# counters take spanning trees.

def test_theorem1_k4_star_tight():
    ec = embed(star_graph(3), complete_graph(4))
    assert aut_order(complete_graph(4)).order == 24 == ec.labeled


def test_theorem1_c4_path_tight():
    ec = embed(path_graph(4), cycle_graph(4))
    assert aut_order(cycle_graph(4)).order == 8 == ec.labeled
    assert ec.copies == 4 and ec.aut_f == 2


def test_theorem1_k3_p3():
    ec = embed(path_graph(3), complete_graph(3))
    assert aut_order(complete_graph(3)).order == 6 == ec.labeled


def test_size_mismatch_rejected():
    with pytest.raises(ValueError, match="vertex count"):
        embed(path_graph(3), complete_graph(4))


def test_cap_rejected():
    with pytest.raises(SizeLimitError):
        embed(path_graph(9), complete_graph(9))


@pytest.mark.parametrize("f", [
    cycle_graph(4),
    Graph.from_edges(4, [(0, 1), (2, 3)]),
    Graph.from_edges(4, []),
    path_graph(4),
], ids=["C4", "matching", "edgeless", "tree-as-Graph"])
def test_non_tree_rejected(f):
    # Only a SpanningTree is counted, in C_4 or anywhere else.
    c4 = cycle_graph(4)
    with pytest.raises(TypeError, match="spanning trees"):
        count_labeled_embeddings(f, c4)
    with pytest.raises(TypeError, match="spanning trees"):
        count_subgraph_copies([as_tree(path_graph(4)), f], c4)
    with pytest.raises(TypeError, match="spanning trees"):
        count_embeddings([f], c4)


def test_census_counts_every_tree_in_full():
    # One pass serves every tree: isomorphic trees, and the same tree twice,
    # each get the whole count; trees with other degrees get their own.
    k4 = complete_graph(4)
    p4, star = as_tree(path_graph(4)), as_tree(star_graph(3))
    other_p4 = SpanningTree.from_edges(4, [(0, 2), (2, 1), (1, 3)])
    assert count_subgraph_copies([p4, star, other_p4, p4], k4) == [12, 4, 12, 12]
    assert count_subgraph_copies([], k4) == []
    assert [ec.labeled for ec in count_embeddings([star, p4], k4)] == [24, 24]


@given(connected_graphs_st(max_n=6), st.data())
def test_identity_on_random_spanning_trees(g, data):
    trees = all_spanning_trees(g)
    t = data.draw(st.sampled_from(trees))
    # count_embeddings recomputes all three quantities independently and
    # raises if the identity fails; the embedding bound must hold on top.
    (ec,) = count_embeddings([t], g)
    assert aut_order(g).order <= ec.labeled


@given(connected_graphs_st(max_n=5))
def test_labeled_at_least_copies(g):
    t = all_spanning_trees(g)[0]
    labeled = count_labeled_embeddings(t, g)
    (copies,) = count_subgraph_copies([t], g)
    assert labeled >= copies >= 1


def test_labeled_count_matches_oracles_on_corpus(corpus6):
    # One tree per spanning-tree isomorphism class of every connected graph
    # with n <= 6, against the one-pass subset+isomorphism census and the
    # naive-permutation route.
    for graphs in corpus6.values():
        for g in graphs:
            reps = list({tree_certificate(t): t for t in all_spanning_trees(g)}.values())
            for f, copies in zip(reps, count_subgraph_copies(reps, g)):
                assert count_labeled_embeddings(f, g) == copies * aut_order_naive(f), (g, f)


@settings(max_examples=40)
@given(connected_graphs_st(max_n=8), st.randoms(use_true_random=False))
def test_labeled_count_matches_permutations(g, rng):
    f = random_spanning_tree(g, rng)
    assert count_labeled_embeddings(f, g) == brute_labeled_embeddings(f, g)


# Sibling leaves (k >= 2 leaves of the tree on one neighbour) are counted in
# closed form; every tail shape against the n! walk.

TAIL_HOSTS = {
    "K8": complete_graph(8),
    "K8-matching": Graph.from_edges(8, [(u, v) for u in range(8) for v in range(u + 1, 8)
                                        if (u, v) not in {(0, 1), (2, 3), (4, 5), (6, 7)}]),
    "C8": cycle_graph(8),
    "G(8,10)": connected_gnm(8, 10, random.Random(10)),
}

TAIL_SHAPES = {
    # one group
    "star": as_tree(star_graph(7)),
    # two groups, the most n = 8 allows
    "double-star": SpanningTree.from_edges(
        8, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (1, 7)]),
    "double-star-2-4": SpanningTree.from_edges(
        8, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (1, 6), (1, 7)]),
    # lone leaves only
    "path": as_tree(path_graph(8)),
    # two groups on the legs of a spider, plus a lone leaf
    "spider": SpanningTree.from_edges(
        8, [(0, 1), (1, 2), (1, 3), (0, 4), (4, 5), (4, 6), (0, 7)]),
    # sibling leaves on 0, lone leaves on 2 and 3
    "caterpillar": SpanningTree.from_edges(
        8, [(0, 1), (1, 2), (2, 3), (0, 4), (0, 5), (2, 6), (3, 7)]),
}


@pytest.mark.parametrize("host", TAIL_HOSTS)
@pytest.mark.parametrize("shape", TAIL_SHAPES)
def test_tail_shapes_match_permutations(shape, host):
    f, g = TAIL_SHAPES[shape], TAIL_HOSTS[host]
    assert count_labeled_embeddings(f, g) == brute_labeled_embeddings(f, g)


# Explicit ids keep each row's test name stable when rows are added or dropped.
@pytest.mark.parametrize("f,g,count", [
    pytest.param(SpanningTree(1, (0,)), Graph.from_edges(1, []), 1, id="f0-g0-1"),
    pytest.param(as_tree(complete_graph(2)), complete_graph(2), 2, id="f3-g3-2"),
    pytest.param(as_tree(complete_graph(2)), Graph.from_edges(2, []), 0, id="f4-g4-0"),
])
def test_one_and_two_vertices(f, g, count):
    assert count_labeled_embeddings(f, g) == count == brute_labeled_embeddings(f, g)


def test_every_spanning_tree_of_small_hosts_matches_permutations(corpus6):
    # Every spanning tree of every connected host with n <= 5.
    checked = 0
    for n in range(1, 6):
        for g in corpus6[n]:
            for f in all_spanning_trees(g):
                assert count_labeled_embeddings(f, g) == brute_labeled_embeddings(f, g), (f, g)
                checked += 1
    assert checked == 474
