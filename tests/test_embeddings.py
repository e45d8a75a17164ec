import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from autbounds import embeddings
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
from autbounds.trees import (
    SpanningTree,
    _complete_trees,
    all_spanning_trees,
    greedy_spanning_tree,
    tree_certificate,
)

from helpers import (
    as_tree,
    brute_labeled_embeddings,
    census_reference,
    connected_graphs_st,
    labeled_reference,
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


def test_census_of_no_trees_lists_no_host_trees(monkeypatch):
    # an empty request is answered after the host's size check alone
    def no_listing(g):
        raise AssertionError("spanning trees listed for an empty request")

    monkeypatch.setattr(embeddings, "spanning_tree_rows", no_listing)
    assert count_subgraph_copies([], complete_graph(7)) == []
    assert count_embeddings([], complete_graph(7)) == []


def test_census_counts_every_tree_in_full():
    # One pass serves every tree: isomorphic trees, and the same tree twice,
    # each get the whole count; trees with other degrees get their own.
    k4 = complete_graph(4)
    p4, star = as_tree(path_graph(4)), as_tree(star_graph(3))
    other_p4 = SpanningTree.from_edges(4, [(0, 2), (2, 1), (1, 3)])
    assert count_subgraph_copies([p4, star, other_p4, p4], k4) == [12, 4, 12, 12]
    assert count_subgraph_copies([], k4) == []
    assert [ec.labeled for ec in count_embeddings([star, p4], k4)] == [24, 24]


# The census counts each of the host's trees under its class in embeddings'
# _tree_classes(n) table; helpers.census_reference tests every subset against
# every requested tree, as the census did before the table.

def class_reps(g):
    return list({tree_certificate(t): t for t in all_spanning_trees(g)}.values())


def test_census_matches_reference_on_corpus(corpus6):
    for graphs in corpus6.values():
        for g in graphs:
            reps = class_reps(g)
            assert count_subgraph_copies(reps, g) == census_reference(reps, g), g


def test_census_matches_reference_on_seeded_hosts():
    rng = random.Random(7)
    hosts = [connected_gnm(7, m, rng) for m in (6, 8, 10, 13, 16)]
    hosts += [connected_gnm(7, m, rng) for m in (7, 9, 11, 12)]
    relabeled = 0   # trees isomorphic to an earlier one in their list, not equal to it
    for i, g in enumerate(hosts):
        # every class on the first five hosts, seeded draws alone on the
        # rest; then more draws, isomorphic to earlier trees or equal to
        # them, and two repeats
        trees = class_reps(g) if i < 5 else []
        trees += [random_spanning_tree(g, rng) for _ in range(8)]
        trees += trees[-2:]
        assert count_subgraph_copies(trees, g) == census_reference(trees, g), g
        relabeled += len({t.rows for t in trees}) - len({tree_certificate(t) for t in trees})
    assert relabeled > 0


def test_census_credits_isomorphic_and_repeated_trees():
    k5 = complete_graph(5)
    p5 = as_tree(path_graph(5))
    relabeled = SpanningTree.from_edges(5, [(3, 1), (1, 4), (4, 0), (0, 2)])
    spider = SpanningTree.from_edges(5, [(0, 1), (1, 2), (0, 3), (0, 4)])
    trees = [p5, spider, relabeled, p5, spider]
    # 60 labeled paths and 60 labeled spiders, one copy of each per tree
    assert count_subgraph_copies(trees, k5) == census_reference(trees, k5) == [60, 60, 60, 60, 60]


# Unlabeled trees on n = 1..7 vertices (OEIS A000055).
TREE_CLASSES = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11}


def test_class_table_holds_one_entry_per_class():
    tables = {n: embeddings._tree_classes(n) for n in TREE_CLASSES}
    for n, count in TREE_CLASSES.items():
        classes = tables[n]
        assert list(classes) == [rows for _, rows in _complete_trees(n)]
        # ids are numbered as first seen in table order
        assert list(dict.fromkeys(classes.values())) == list(range(count)), n
        # isomorphic trees, and only they, share an id: ids and certificates
        # pair one to one
        pairs = {(tree_certificate(SpanningTree(n, rows)), cid) for rows, cid in classes.items()}
        assert len(pairs) == len({cert for cert, _ in pairs}) == count, n
    # a cleared cache builds every table again, equal to the last
    embeddings._tree_classes.cache_clear()
    assert {n: embeddings._tree_classes(n) for n in TREE_CLASSES} == tables


def test_racing_threads_open_one_class_per_shape():
    # Eight threads count on K6 from a cleared table cache, switching often:
    # every thread gets the reference counts, and the table holds K6's six
    # tree classes.
    interval = sys.getswitchinterval()
    g = complete_graph(6)
    reps = class_reps(g)
    expected = census_reference(reps, g)
    start = threading.Barrier(8)
    results = []

    def count():
        start.wait(timeout=60)
        results.append(count_subgraph_copies(reps, g))

    embeddings._tree_classes.cache_clear()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=count) for _ in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert results == [expected] * 8
    assert sorted(set(embeddings._tree_classes(6).values())) == list(range(6))


# count_labeled_embeddings takes its search plan from SpanningTree.labeled_plan
# and count_embeddings takes aut_f from SpanningTree.naive_aut, both cached on
# the tree; helpers.labeled_reference builds the plan on every call, and the
# naive oracle runs uncached.

def cached_routes_match(pairs):
    """Each cached route against its uncached one, on (tree, host) pairs: on
    the tree as given, which may hold its values already, and on a new copy
    of it that works them out anew."""
    naive = {t.rows: aut_order_naive(t) for t, _ in pairs}
    fresh = {t.rows: SpanningTree(t.n, t.rows) for t, _ in pairs}
    for t, g in pairs:
        for tree in (t, fresh[t.rows]):
            assert count_labeled_embeddings(tree, g) == labeled_reference(tree, g), (t, g)
            assert tree.naive_aut == naive[t.rows], t


def test_cached_routes_match_on_greedy_trees(corpus7):
    # the greedy tree from every start of every connected host with n <= 7
    cached_routes_match([(greedy_spanning_tree(g, v0).tree, g)
                         for graphs in corpus7.values() for g in graphs for v0 in range(g.n)])


def test_cached_routes_match_on_tree_classes(corpus6):
    cached_routes_match([(t, g) for graphs in corpus6.values() for g in graphs
                         for t in class_reps(g)])


def test_cached_routes_match_on_seeded_hosts():
    rng = random.Random(11)
    pairs = []
    for m in (7, 9, 12, 16, 20, 24, 28):
        g = connected_gnm(8, m, rng)
        pairs += [(greedy_spanning_tree(g, v0).tree, g) for v0 in range(8)]
        pairs += [(random_spanning_tree(g, rng), g) for _ in range(12)]
    cached_routes_match(pairs)


def test_trees_with_equal_degrees_keep_their_own_aut():
    # degrees 3, 3, 2, 1, 1, 1, 1 both: the degree-2 vertex between the two
    # centres (aut 8), or on a branch of one of them (aut 2)
    between = SpanningTree.from_edges(7, [(0, 2), (2, 1), (0, 3), (0, 4), (1, 5), (1, 6)])
    hanging = SpanningTree.from_edges(7, [(0, 1), (0, 3), (0, 4), (1, 5), (1, 2), (2, 6)])
    counts = count_embeddings([between, hanging], complete_graph(7))
    assert [(ec.labeled, ec.copies, ec.aut_f) for ec in counts] == [(5040, 630, 8),
                                                                   (5040, 2520, 2)]


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
