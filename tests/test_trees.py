from dataclasses import replace
from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import given, strategies as st

from autbounds import trees
from autbounds.automorphisms import aut_order, aut_order_naive
from autbounds.corpus import all_graphs
from autbounds.graphs import (
    Graph,
    SizeLimitError,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    is_connected,
    path_graph,
    star_graph,
    write_graph6,
)
from autbounds.trees import (
    GreedyRecordError,
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
from autbounds.verify import greedy_sweep, theorem1_suite

from helpers import as_tree, connected_graphs_st, random_trees


def test_spanning_tree_validation():
    with pytest.raises(ValueError, match="needs 3 edges"):
        SpanningTree.from_edges(4, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="closes a cycle"):
        SpanningTree.from_edges(4, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(ValueError, match="asymmetric"):
        SpanningTree(2, (0b10, 0))
    t = SpanningTree.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert t.degrees == (1, 2, 2, 1) and t.delta_max == 2
    assert t == SpanningTree(4, path_graph(4).rows)
    assert t.spans(cycle_graph(4)) and not t.spans(star_graph(3))


def test_greedy_k4_is_root_star():
    gt = greedy_spanning_tree(complete_graph(4), 0)
    assert gt.sequence == (0,)
    assert gt.tree.edges() == [(0, 1), (0, 2), (0, 3)]
    assert gt.steps == (0b1110,)
    verify_greedy_tree(complete_graph(4), gt)


def test_greedy_k23_two_steps():
    k23 = complete_bipartite_graph(2, 3)
    gt = greedy_spanning_tree(k23, 0)  # vertex 0 is in the 2-side
    assert gt.steps[0] == 0b11100  # root star reaches the whole 3-side
    assert len(gt.sequence) == 2
    assert gt.tree.degree(gt.sequence[1]) == 2
    verify_greedy_tree(k23, gt)


def test_greedy_path_from_endpoint():
    p4 = path_graph(4)
    gt = greedy_spanning_tree(p4, 0)
    assert gt.sequence == (0, 1, 2)
    assert gt.step_sizes() == (1, 1)
    verify_greedy_tree(p4, gt)


def test_greedy_rejects_disconnected():
    with pytest.raises(ValueError, match="connected"):
        greedy_spanning_tree(Graph.from_edges(4, [(0, 1), (2, 3)]), 0)


def test_greedy_invariants_small_sweep(corpus6):
    for n in range(1, 6):
        for g in corpus6[n]:
            for v0 in range(g.n):
                gt = greedy_spanning_tree(g, v0)
                verify_greedy_tree(g, gt)
                assert 1 + g.degree(v0) + sum(gt.step_sizes()) == g.n


# Each case corrupts one field of the greedy record on C5 from vertex 0, whose
# valid form is sequence (0, 1, 2) with steps {1, 4}, {2}, {3}.
BAD_RECORDS = {
    "host-size": (dict(tree=SpanningTree(6, path_graph(6).rows)),
                  "tree host size differs from graph"),
    "non-host-edge": (dict(tree=SpanningTree(5, star_graph(4).rows)),
                      "tree uses an edge absent from the host"),
    "lengths": (dict(sequence=(0, 1)), "sequence and step records differ in length"),
    "root-star": (dict(steps=(0b10, 0b100, 0b1000)),
                  "step 0 must be the full host star at the root"),
    "empty-step": (dict(steps=(0b10010, 0, 0b1000)), "step at 1 added no edges"),
    "not-covered": (dict(sequence=(0, 2, 1)),
                    "expanded vertex 2 was not a leaf of the current tree"),
    "re-expanded": (dict(sequence=(0, 0, 2)),
                    "expanded vertex 0 was not a leaf of the current tree"),
    "back-edge": (dict(steps=(0b10010, 0b101, 0b1000)),
                  "step at 1 attaches a vertex already in the tree"),
    "non-neighbour": (dict(steps=(0b10010, 0b1000, 0b100)),
                      "step at 1 must add every outward host edge"),
    "stopped": (dict(sequence=(0, 1), steps=(0b10010, 0b100)),
                "construction stopped before spanning"),
    "other-tree": (dict(tree=SpanningTree(5, path_graph(5).rows)),
                   "step edges do not reassemble the tree"),
}


@pytest.mark.parametrize("changes, message", BAD_RECORDS.values(), ids=BAD_RECORDS)
def test_verify_greedy_tree_rejects(changes, message):
    c5 = cycle_graph(5)
    gt = greedy_spanning_tree(c5, 0)
    assert gt.sequence == (0, 1, 2) and gt.steps == (0b10010, 0b100, 0b1000)
    verify_greedy_tree(c5, gt)
    with pytest.raises(GreedyRecordError, match=f"^{message}$"):
        verify_greedy_tree(c5, replace(gt, **changes))


def test_best_greedy_tree_minimises():
    k33 = complete_bipartite_graph(3, 3)
    gt, prod = best_greedy_tree(k33)[0]
    verify_greedy_tree(k33, gt)
    assert prod == 2  # one expansion adding 2 edges


def test_tree_aut_exact_examples():
    assert tree_aut_exact(as_tree(star_graph(3))) == 6
    assert tree_aut_exact(as_tree(path_graph(4))) == 2
    spider = SpanningTree.from_edges(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
    assert tree_aut_exact(spider) == 2 == aut_order_naive(spider)


def test_tree_aut_double_star():
    dstar = SpanningTree.from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
    exact = tree_aut_exact(dstar)
    assert exact == 8 == aut_order_naive(dstar)
    assert tree_aut_upper(dstar) == 12 >= exact


def test_tree_aut_upper_examples():
    assert tree_aut_upper(as_tree(star_graph(3))) == 6
    assert tree_aut_upper(as_tree(path_graph(4))) == 2
    with pytest.raises(ValueError):
        tree_aut_upper(SpanningTree(1, (0,)))


def test_single_edge_is_the_boundary_case():
    # The one tree where the degree-product estimate sits below the truth:
    # the swap automorphism exists but every (d-1)! factor is 1.
    edge = SpanningTree.from_edges(2, [(0, 1)])
    assert tree_aut_exact(edge) == 2
    assert tree_aut_upper(edge) == 1


# (tree, certificate, aut) for trees whose centroids the walk from vertex 0
# must find: one centroid, two with isomorphic halves, two without.
CENTROID_CASES = {
    "P1": (SpanningTree(1, (0,)), (1, ()), 1),
    "P2": (SpanningTree.from_edges(2, [(0, 1)]), (2, ((), ())), 2),
    # the walk steps 0 -> 1, where the child 2 holds exactly half: two centroids
    "P4": (SpanningTree.from_edges(4, [(0, 1), (1, 2), (2, 3)]), (2, (((),), ((),))), 2),
    # centres 1 and 2 hold four vertices each, a star and a bent path: no swap
    "double-star": (SpanningTree.from_edges(8, [(0, 1), (1, 3), (1, 4), (1, 2),
                                                (2, 5), (5, 6), (2, 7)]),
                    (2, (((), (), ()), ((), ((),)))), 6),
    # vertex 0 ends a leg of length 2, so the walk moves 0 -> 1 -> 2
    "spider": (SpanningTree.from_edges(8, [(0, 1), (1, 2), (2, 3), (2, 4), (4, 5),
                                           (2, 6), (6, 7)]),
               (1, ((), ((),), ((),), ((),))), 6),
}


@pytest.mark.parametrize("t, certificate, aut", CENTROID_CASES.values(), ids=CENTROID_CASES)
def test_centroid_certificates(t, certificate, aut):
    assert tree_certificate(t) == certificate
    assert tree_aut_exact(t) == aut == aut_order_naive(t)


@given(random_trees(max_n=8))
def test_tree_aut_matches_naive(t):
    assert tree_aut_exact(t) == aut_order_naive(t)


@given(random_trees(min_n=3, max_n=10))
def test_tree_aut_upper_dominates(t):
    assert tree_aut_exact(t) <= tree_aut_upper(t)


@given(random_trees(min_n=1, max_n=14), st.data())
def test_tree_certificate_relabel_invariant(t1, data):
    cold = (tree_certificate(t1), tree_aut_exact(t1))  # a fresh tree, coded cold
    # Past the naive oracle's n = 8 the search is the independent count.
    assert cold[1] == aut_order(t1).order
    perm = tuple(data.draw(st.permutations(list(range(t1.n)))))
    t2 = as_tree(t1.relabel(perm))
    # t2 is a fresh tree too, so it is coded cold; t1 is read back warm
    assert (tree_certificate(t2), tree_aut_exact(t2)) == cold
    assert (tree_certificate(t1), tree_aut_exact(t1)) == cold


def certificate_aut(t):
    return tree_certificate(t), tree_aut_exact(t)


def spanning_trees_from_cold(corpus6, ns, value):
    """(trees, cold, first, warm) over every spanning tree of the connected
    graphs on ns vertices: each cold value read from a tree interned into an
    empty table, the first pass from one cleared table, the second warm."""
    intern = trees._interned_tree
    rows = [t.rows for n in ns for g in corpus6[n] for t in all_spanning_trees(g)]
    cold = []
    for r in rows:
        intern.cache_clear()
        cold.append(value(intern(r)))
    intern.cache_clear()
    spanning = [t for n in ns for g in corpus6[n] for t in all_spanning_trees(g)]
    assert [t.rows for t in spanning] == rows
    return spanning, cold, [value(t) for t in spanning], [value(t) for t in spanning]


def test_certificate_memo_never_changes_a_value(corpus6):
    _, cold, first, warm = spanning_trees_from_cold(corpus6, range(1, 6), certificate_aut)
    assert cold == first == warm
    # the labeled trees on n <= 5 vertices
    assert trees._interned_tree.cache_info().misses == 146


def test_aut_upper_memo_never_changes_a_value(corpus6):
    spanning, cold, first, warm = spanning_trees_from_cold(corpus6, range(2, 6), tree_aut_upper)
    assert cold == first == warm == [
        t.delta_max * prod(factorial(d - 1) for d in t.degrees) for t in spanning]
    # the labeled trees on 2 <= n <= 5 vertices
    assert trees._interned_tree.cache_info().misses == 145


def test_direct_tree_matches_the_interned_one(corpus6):
    for t in {t.rows: t for g in corpus6[5] for t in all_spanning_trees(g)}.values():
        direct = SpanningTree(t.n, t.rows)
        assert direct is not t
        assert certificate_aut(direct) == certificate_aut(t)
        assert tree_aut_upper(direct) == tree_aut_upper(t)


def test_tree_memos_are_bounded():
    greedy_sweep(7)
    theorem1_suite(6)
    info = trees._interned_tree.cache_info()
    assert info.maxsize == 8192 and 0 < info.currsize <= info.maxsize


def test_equal_rows_share_one_tree():
    # vertex 0's star is its greedy tree in K4 and in K1,3, and a tree of K4
    star = greedy_spanning_tree(complete_graph(4), 0).tree
    assert greedy_spanning_tree(star_graph(3), 0).tree is star
    assert best_greedy_tree(star_graph(3))[0][0].tree is star
    first, second = all_spanning_trees(complete_graph(4)), all_spanning_trees(complete_graph(4))
    assert len(first) == 16 and all(a is b for a, b in zip(first, second))
    assert sum(t is star for t in first) == 1


@pytest.mark.parametrize("rows, match", [
    ((0b0110, 0b0101, 0b0011, 0), "closes a cycle"),  # a triangle and vertex 3
    ((0b0010, 0b0001, 0b1000, 0b0100), "needs 3 edges"),  # two disjoint edges
    ((0b1010, 0b0101, 0b1010, 0b0101), "needs 3 edges"),  # the 4-cycle
])
def test_interning_keeps_the_checks(rows, match):
    with pytest.raises(ValueError, match=match):
        SpanningTree(4, rows)
    with pytest.raises(ValueError, match=match):
        trees._interned_tree(rows)


def test_theorem1_codes_each_labeled_tree_once(monkeypatch):
    # Every labeled tree on n vertices spans K_n, so theorem1_suite over the
    # connected n <= 5 corpus meets all n^(n-2) of them (Cayley), and from a
    # cold intern table codes each once: 1 + 1 + 3 + 16 + 125.
    body = trees._centroid_code
    coded = []

    def spy(rows):
        coded.append(rows)
        return body(rows)

    monkeypatch.setattr(trees, "_centroid_code", spy)
    trees._interned_tree.cache_clear()
    res = theorem1_suite(nmax=5)
    assert res.checked > 0 and not res.violations
    assert len(coded) == len(set(coded)) == 1 + sum(n ** (n - 2) for n in range(2, 6)) == 146


def test_embedding_upper_fs_examples():
    assert embedding_upper_fs(complete_graph(4)) == 27
    assert embedding_upper_fs(cycle_graph(5)) == 16
    assert embedding_upper_fs(path_graph(3)) == 1
    assert embedding_upper_fs(star_graph(3)) == Fraction(1)
    with pytest.raises(ValueError):
        embedding_upper_fs(Graph(1, (0,)))


def test_all_spanning_trees_counts():
    assert len(all_spanning_trees(cycle_graph(4))) == 4
    assert len(all_spanning_trees(complete_graph(4))) == 16
    assert len(all_spanning_trees(path_graph(4))) == 1


def test_all_spanning_trees_refusal():
    with pytest.raises(SizeLimitError):
        all_spanning_trees(complete_graph(8))


def test_matrix_tree_agrees_with_enumeration():
    # every graph on n <= 6 vertices, disconnected ones included: a zero
    # pivot ends the elimination with 0, and only a disconnected graph has one
    graphs = [g for n in range(1, 7) for g in all_graphs(n)]
    assert len(graphs) == 208
    for g in graphs:
        expected = len(all_spanning_trees(g)) if is_connected(g) else 0
        assert spanning_tree_count(g) == expected, write_graph6(g)


@given(connected_graphs_st(max_n=7))
def test_matrix_tree_random(g):
    trees = all_spanning_trees(g)
    assert spanning_tree_count(g) == len(trees)
    for t in trees:
        assert t.spans(g)


@given(connected_graphs_st(max_n=7), st.data())
def test_greedy_invariants_random(g, data):
    v0 = data.draw(st.integers(0, g.n - 1))
    gt = greedy_spanning_tree(g, v0)
    verify_greedy_tree(g, gt)
    best, prod = best_greedy_tree(g)[v0]
    verify_greedy_tree(g, best)
    naive_prod = 1
    for k in gt.step_sizes():
        naive_prod *= factorial(k)
    assert prod <= naive_prod
