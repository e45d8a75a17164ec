import random
from math import factorial

import pytest
from hypothesis import given, strategies as st

from autbounds import automorphisms, corpus, embeddings, trees, verify
from autbounds.automorphisms import (
    _first_path,
    _individualized,
    _is_mapping,
    _refine,
    _search,
    _split_off,
    _target_cell,
    aut_order,
    aut_order_naive,
)
from autbounds.corpus import all_graphs
from autbounds.graphs import (
    SYMMETRIC_FAMILIES,
    Graph,
    SizeLimitError,
    bits,
    complete_bipartite_graph,
    complete_graph,
    connected_gnm,
    cycle_graph,
    hypercube,
    paley_graph,
    path_graph,
    petersen_graph,
    rook_graph,
    shrikhande_graph,
)
from autbounds.trees import SpanningTree, all_spanning_trees, tree_certificate

from helpers import (
    aut_families,
    graph_from_bits,
    graphs,
    is_automorphism,
    is_isomorphism,
    naive_automorphisms,
    naive_orbits,
    permutations_of,
    refine_reference,
    search_reference,
)


def test_k4():
    res = aut_order(complete_graph(4))
    assert res.order == 24
    assert res.orbits == ((0, 1, 2, 3),)


def test_k23():
    res = aut_order(complete_bipartite_graph(2, 3))
    assert res.order == 12
    assert sorted(len(o) for o in res.orbits) == [2, 3]


def test_c5():
    res = aut_order(cycle_graph(5))
    assert res.order == 10 == aut_order_naive(cycle_graph(5))
    assert res.orbits == ((0, 1, 2, 3, 4),)


def test_single_vertex():
    res = aut_order(Graph(1, (0,)))
    assert res.order == 1 and res.orbits == ((0,),) and res.generators == ()


def test_petersen():
    # cross-checked against an independent matcher-based count
    assert aut_order(petersen_graph()).order == 120


def test_naive_examples():
    assert aut_order_naive(path_graph(3)) == 2
    assert aut_order_naive(complete_bipartite_graph(3, 3)) == 72
    assert aut_order_naive(Graph(1, (0,))) == 1


def test_naive_refuses_large():
    with pytest.raises(SizeLimitError):
        aut_order_naive(complete_graph(9))


def test_orbit_size_examples():
    assert len(aut_order(complete_graph(4)).orbit_of(2)) == 4
    k23 = aut_order(complete_bipartite_graph(2, 3))
    assert len(k23.orbit_of(0)) == 2 and len(k23.orbit_of(3)) == 3
    assert len(aut_order(path_graph(4)).orbit_of(0)) == 2
    with pytest.raises(ValueError):
        aut_order(path_graph(4)).orbit_of(9)


# All 208 graphs on n <= 6, disconnected ones included.
ALL_GRAPHS_6 = [g for n in range(1, 7) for g in all_graphs(n)]


def test_orbits_match_naive():
    for g in ALL_GRAPHS_6:
        assert aut_order(g).orbits == naive_orbits(g)


def test_order_matches_naive_all_graphs():
    assert len(ALL_GRAPHS_6) == 208
    for g in ALL_GRAPHS_6:
        assert aut_order(g).order == aut_order_naive(g)


# The pruned permutation-tree count against the literal walk that tests all
# n! permutations: K8 and its complement have the largest group, S_8, so no
# prefix is ever dropped; K4,4 and C8 keep part of the tree.
NAIVE_WALK_8 = {
    "K8": complete_graph(8),
    "E8": Graph(8, (0,) * 8),
    "K4,4": complete_bipartite_graph(4, 4),
    "C8": cycle_graph(8),
    **{f"G(8,1/2)#{seed}": graph_from_bits(8, random.Random(seed).getrandbits(28))
       for seed in range(3)},
}


def test_naive_equals_literal_walk_all_graphs():
    for g in ALL_GRAPHS_6:
        assert aut_order_naive(g) == len(naive_automorphisms(g)), g


@pytest.mark.parametrize("name", NAIVE_WALK_8)
def test_naive_equals_literal_walk_8(name):
    g = NAIVE_WALK_8[name]
    assert aut_order_naive(g) == len(naive_automorphisms(g))


def spy_naive(monkeypatch):
    """Wrap aut_order_naive where its callers, trees (SpanningTree.naive_aut)
    and verify, bind it; returns the list that collects each call's graph."""
    calls = []
    real = automorphisms.aut_order_naive

    def spy(g):
        calls.append(g)
        return real(g)

    for module in (trees, verify):
        monkeypatch.setattr(module, "aut_order_naive", spy)
    return calls


def test_oracle_suite_calls_naive_once_per_graph(monkeypatch):
    calls = spy_naive(monkeypatch)
    res = verify.oracle_suite(exhaustive_nmax=4, trials=3)
    # connected graphs on 1..4 vertices, then 3 seeded graphs each at n = 7, 8
    assert res.checked == 1 + 1 + 2 + 6 + 2 * 3 and not res.violations
    assert len(calls) == res.checked


def test_count_embeddings_calls_naive_once_per_tree_class(monkeypatch):
    calls = spy_naive(monkeypatch)
    g = complete_bipartite_graph(3, 3)
    classes = {}
    for t in all_spanning_trees(g):
        # a new copy of each interned tree, which may hold its naive count
        classes.setdefault(tree_certificate(t), SpanningTree(t.n, t.rows))
    reps = list(classes.values())
    counts = embeddings.count_embeddings(reps, g)
    assert len(counts) == len(reps) > 1
    assert len(calls) == len(reps) and all(c is t for c, t in zip(calls, reps))
    # the same trees again, on this host or another: no naive call
    calls.clear()
    assert embeddings.count_embeddings(reps, g) == counts
    embeddings.count_embeddings(reps, complete_graph(6))
    assert calls == []


def test_exhaustive_cross_validation_small(corpus6):
    for n in range(1, 6):
        for g in corpus6[n]:
            assert aut_order(g).order == aut_order_naive(g)


def test_generators_are_automorphisms():
    for g in (complete_bipartite_graph(2, 3), petersen_graph(), cycle_graph(6)):
        res = aut_order(g)
        for p in res.generators:
            assert is_automorphism(g, p)


@given(graphs(max_n=7))
def test_orbit_structure(g):
    res = aut_order(g)
    assert sum(len(o) for o in res.orbits) == g.n
    for orb in res.orbits:
        assert res.order % len(orb) == 0


@given(graphs(max_n=7), st.data())
def test_relabel_invariance(g, data):
    perm = tuple(data.draw(st.permutations(list(range(g.n)))))
    assert aut_order(g.relabel(perm)).order == aut_order(g).order


@given(graphs(max_n=7))
def test_complement_invariance(g):
    assert aut_order(g.complement()).order == aut_order(g).order


@given(graphs(min_n=2, max_n=6))
def test_matches_naive_random(g):
    assert aut_order(g).order == aut_order_naive(g)


def test_identity_iff_trivial(corpus6):
    for g in corpus6[6]:
        res = aut_order(g)
        trivial = all(len(o) == 1 for o in res.orbits) and not res.generators
        assert (res.order == 1) == trivial


# The symmetric families against their classical orders.  Strongly regular
# graphs such as rook 4x4, Shrikhande and the Paley graphs give degree
# refinement nothing to split, so the orders pin the backtracking search.

@pytest.mark.parametrize("name", SYMMETRIC_FAMILIES)
def test_large_families_known_orders(name):
    build, order = SYMMETRIC_FAMILIES[name]
    g = build()
    res = aut_order(g)
    assert res.order == order
    assert len(res.orbits) == 1
    assert len(res.generators) <= g.n - 1
    for p in res.generators:
        assert is_automorphism(g, p)


# Aut(P(q)) for a prime q = 1 (mod 4) is x -> a x + b with a a nonzero
# square: q(q - 1)/2 maps, transitive on the (q - 1)/2-regular graph.

@pytest.mark.parametrize("q", [5, 13, 17, 29, 37, 41, 53, 61])
def test_paley_graph_order_closed_form(q):
    g = paley_graph(q)
    assert set(g.degrees) == {(q - 1) // 2}
    res = aut_order(g)
    assert res.order == q * (q - 1) // 2
    assert len(res.orbits) == 1


# 64! has 90 digits: the order must come back as an exact int, not a float.

def test_large_complete_graph_exact_factorial():
    order = aut_order(complete_graph(64)).order
    assert type(order) is int
    assert order == factorial(64)


# Each generator the orbit-pruned search keeps joins two orbit classes.

@given(graphs(max_n=8))
def test_generator_count_at_most_n_minus_1(g):
    assert len(aut_order(g).generators) <= g.n - 1


@pytest.mark.parametrize("n", [4, 8, 16])
def test_complete_graph_has_n_minus_1_generators(n):
    assert len(aut_order(complete_graph(n)).generators) == n - 1


# Splitter-queue refinement.  A partition is equitable when every vertex of
# a cell has the same neighbour count into every cell.

def is_equitable(rows, cells):
    return all(len({(rows[v] & other).bit_count() for v in bits(cell)}) == 1
               for cell in cells for other in cells)


def unit_refined(g):
    return _refine(g.rows, [(1 << g.n) - 1])[0]


def check_refinement(g, perm):
    rows = g.rows
    cells, trace = _refine(rows, [(1 << g.n) - 1])
    assert is_equitable(rows, cells), "unit refinement not equitable"
    image_cells, image_trace = _refine(g.relabel(perm).rows, [(1 << g.n) - 1])
    assert image_trace == trace, "trace moved under relabelling"
    assert image_cells == [sum(1 << perm[v] for v in bits(c)) for c in cells], \
        "cells do not map onto each other"
    # Down the base chain: from each equitable partition, individualising
    # any v of the target cell and refining by {v} alone must reach the same
    # cells as refining by every cell.
    while (ti := _target_cell(cells)) is not None:
        for v in bits(cells[ti]):
            start = _individualized(cells, ti, v)
            by_v, _ = _refine(rows, start, (1 << v,))
            by_all, _ = _refine(rows, start)
            assert set(by_v) == set(by_all), f"{{v}} alone is not enough for v={v}"
            assert is_equitable(rows, by_v)
        b = (cells[ti] & -cells[ti]).bit_length() - 1
        cells, _ = _refine(rows, _individualized(cells, ti, b), (1 << b,))


def test_refinement_properties_corpus7():
    rng = random.Random(7)
    extra = [petersen_graph(), hypercube(4), rook_graph(4), shrikhande_graph(),
             paley_graph(13)]
    for g in [g for n in range(1, 8) for g in all_graphs(n)] + extra:
        check_refinement(g, rng.sample(range(g.n), g.n))


@given(graphs(max_n=12), st.data())
def test_refinement_properties_random(g, data):
    check_refinement(g, data.draw(permutations_of(g.n)))


# _search from the first path of one graph's refined unit partition, at level
# 0, against the other's refined unit partition, is the isomorphism test
# corpus deduplication runs on bucket-mates.

def test_search_separates_rook_4x4_from_shrikhande():
    a, b = rook_graph(4), shrikhande_graph()
    assert unit_refined(a) == unit_refined(b) == [(1 << 16) - 1]
    assert _search(a.rows, b.rows, _first_path(a.rows, unit_refined(a)), 0,
                   unit_refined(b)) is None


@pytest.mark.parametrize("g", [petersen_graph(), hypercube(4), paley_graph(13)],
                         ids=["Petersen", "Q4", "Paley13"])
def test_search_finds_isomorphism_to_relabelled_copy(g):
    h = g.relabel(random.Random(g.n).sample(range(g.n), g.n))
    iso = _search(g.rows, h.rows, _first_path(g.rows, unit_refined(g)), 0,
                  unit_refined(h))
    assert iso is not None and sorted(iso) == list(range(g.n))
    assert all(g.has_edge(u, v) == h.has_edge(iso[u], iso[v])
               for u in range(g.n) for v in range(g.n))


# The first path is built once and the search refines only side b, so one
# cold aut_order refines no partition twice with the same splitters.
REFINE_ONCE = aut_families()


@pytest.mark.parametrize("name", REFINE_ONCE)
def test_aut_order_refines_each_input_once(name, monkeypatch):
    calls = []
    real = automorphisms._refine

    def spy(rows, cells, splitters=None, uniform=False):
        calls.append((rows, tuple(cells), splitters))
        return real(rows, cells, splitters, uniform)

    monkeypatch.setattr(automorphisms, "_refine", spy)
    aut_order.cache_clear()
    try:
        aut_order(REFINE_ONCE[name])
    finally:
        aut_order.cache_clear()
    assert len(calls) == len(set(calls)) > 1


# In an automorphism search, _search first tries the bijection that aligns the
# first path's cells with side b's; search_reference always descends to a
# leaf.  aut_order must return the same AutResult with either.

def aligned_search_graphs():
    graphs = [g for n in range(1, 8) for g in all_graphs(n)]
    graphs += aut_families().values()
    graphs += [SYMMETRIC_FAMILIES[name][0]() for name in ("K64", "Q8", "T20")]
    rng = random.Random(33)
    graphs += [connected_gnm(n, m, rng) for n in range(9, 41) for m in (n + n // 2, 2 * n, 3 * n)]
    return graphs


def test_aligned_search_matches_reference(monkeypatch):
    graphs = aligned_search_graphs()
    aut_order.cache_clear()
    try:
        found = [aut_order(g) for g in graphs]
        monkeypatch.setattr(automorphisms, "_search", search_reference)
        aut_order.cache_clear()
        for g, res in zip(graphs, found):
            assert aut_order(g) == res, g
    finally:
        aut_order.cache_clear()


# The one search behaviour on the isomorphism side: corpus deduplication asks
# only whether a bijection exists, and _search must answer as the descent-only
# search_reference does on every bucket-mate test a cold corpus run makes.

def spy_on(monkeypatch, module, name, calls):
    """Record the arguments of every call of module.<name> in calls."""
    real = getattr(module, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, spy)


def cold_corpus_run():
    """all_graphs(1..7) from cold caches, which are cleared again after."""
    caches = (corpus.all_graphs, corpus.connected_graphs, aut_order)
    for fn in caches:
        fn.cache_clear()
    try:
        for n in range(1, 8):
            corpus.all_graphs(n)
    finally:
        for fn in caches:
            fn.cache_clear()


def test_corpus_searches_match_reference(monkeypatch):
    calls = []
    spy_on(monkeypatch, corpus, "_search", calls)
    cold_corpus_run()
    assert len(calls) > 100
    found = 0
    for args in calls:
        result = _search(*args)
        assert (result is None) == (search_reference(*args) is None), args
        if result is not None:
            assert is_isomorphism(args[0], args[1], result)
            found += 1
    assert 0 < found < len(calls)


def test_every_search_node_checks_one_bijection(monkeypatch):
    # Each _search call, from aut_order, from corpus or from itself, tries
    # exactly one aligned bijection (1,408 of each over n <= 7).
    searches, checks = [], []
    spy_on(monkeypatch, corpus, "_search", searches)
    spy_on(monkeypatch, automorphisms, "_search", searches)
    spy_on(monkeypatch, automorphisms, "_is_mapping", checks)
    cold_corpus_run()
    assert len(searches) == len(checks) > 0


# _refine visits only the cells a splitter meets, and on degree-uniform cells
# counts a splitter holding more than half the vertices from its complement;
# refine_reference scans every cell and counts every splitter directly.  Both
# must give the same cells and the same trace, split for split.

def check_refine_matches_reference(g, rng):
    rows, n = g.rows, g.n
    unit = [(1 << n) - 1]
    cells, trace = _refine(rows, unit)
    assert (cells, trace) == refine_reference(rows, unit)
    # a multi-vertex splitter that is not a cell, on the unit partition, whose
    # cell is not degree-uniform unless g is regular
    w = rng.getrandbits(n) or 1
    assert _refine(rows, unit, (w,)) == refine_reference(rows, unit, (w,))
    # down the first path: at each level, individualise every v of the
    # target cell and refine by {v}, then by every cell of the partition,
    # each without and with the uniform cells declared
    while (ti := _target_cell(cells)) is not None:
        for v in bits(cells[ti]):
            start = _individualized(cells, ti, v)
            by_v = refine_reference(rows, start, (1 << v,))
            assert _refine(rows, start, (1 << v,)) == by_v
            assert _split_off(rows, cells, ti, v) == by_v
            by_all = refine_reference(rows, start)
            assert _refine(rows, start) == by_all
            assert _refine(rows, start, None, True) == by_all
        b = (cells[ti] & -cells[ti]).bit_length() - 1
        cells, _ = _split_off(rows, cells, ti, b)


def test_refine_matches_reference_corpus7():
    rng = random.Random(77)
    for g in [g for n in range(1, 8) for g in all_graphs(n)]:
        check_refine_matches_reference(g, rng)


@pytest.mark.parametrize("name", REFINE_ONCE)
def test_refine_matches_reference_families(name):
    check_refine_matches_reference(REFINE_ONCE[name], random.Random(name))


# The leaf check against the definition: a true map and the same map broken
# by one transposition, which may still be an isomorphism (any map of K_n is).

def leaf_check_pairs():
    rng = random.Random(2002)
    graphs = [Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                   if rng.random() < p])
              for n in range(1, 21) for p in (0.1, 0.3, 0.5, 0.7, 0.9)]
    graphs += [complete_graph(n) for n in (1, 2, 7, 16)]
    graphs += [complete_bipartite_graph(m, m) for m in (1, 3, 8)]
    graphs += [Graph.from_edges(2 * m, [(2 * i, 2 * i + 1) for i in range(m)]).complement()
               for m in (1, 3, 8)]
    for g in graphs:
        perm = rng.sample(range(g.n), g.n)
        h = g.relabel(perm)
        broken = list(perm)
        if g.n > 1:
            i, j = rng.sample(range(g.n), 2)
            broken[i], broken[j] = broken[j], broken[i]
        yield g, h, tuple(perm), tuple(broken)


def test_is_mapping_matches_definition():
    refused = 0
    for g, h, perm, broken in leaf_check_pairs():
        assert _is_mapping(g.rows, h.rows, perm) and is_isomorphism(g.rows, h.rows, perm)
        truth = is_isomorphism(g.rows, h.rows, broken)
        assert _is_mapping(g.rows, h.rows, broken) == truth
        refused += not truth
    assert refused > 50
