from math import factorial

import pytest
from hypothesis import given, strategies as st

from autbounds.automorphisms import aut_order, aut_order_naive
from autbounds.corpus import all_graphs
from autbounds.graphs import (
    Graph,
    SizeLimitError,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
)

from helpers import graphs, is_automorphism, naive_orbits


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


# Strongly regular graphs where degree refinement alone cannot split any cell;
# the classical orders pin the backtracking search.

def rook_graph(k):
    """K_k x K_k: cells of a k-by-k board, adjacent when in one row or column."""
    edges = []
    for i in range(k):
        for j in range(k):
            v = k * i + j
            edges += [(v, k * i + jj) for jj in range(j + 1, k)]
            edges += [(v, k * ii + j) for ii in range(i + 1, k)]
    return Graph.from_edges(k * k, edges)


def shrikhande_graph():
    conn = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
    edges = {tuple(sorted((4 * a + b, 4 * ((a + da) % 4) + (b + db) % 4)))
             for a in range(4) for b in range(4) for da, db in conn}
    return Graph.from_edges(16, edges)


def paley_graph(q):
    residues = {(x * x) % q for x in range(1, q)}
    return Graph.from_edges(q, [(u, v) for u in range(q) for v in range(u + 1, q)
                                if (v - u) % q in residues])


def test_rook_4x4():
    assert aut_order(rook_graph(4)).order == 1152  # 2 * (4!)^2


def test_shrikhande():
    # same degree sequence and spectrum as the rook graph, different group
    assert aut_order(shrikhande_graph()).order == 192


def test_paley_graphs():
    assert aut_order(paley_graph(13)).order == 78    # 13 * 12 / 2
    assert aut_order(paley_graph(17)).order == 136   # 17 * 16 / 2


def test_large_complete_graph_exact_factorial():
    assert aut_order(complete_graph(64)).order == factorial(64)


def hypercube(d):
    return Graph.from_edges(1 << d, [(v, v ^ (1 << i)) for v in range(1 << d)
                                     for i in range(d) if v < v ^ (1 << i)])


# (graph, |Aut|, number of orbits); the orders are the classical ones.
LARGE_FAMILIES = {
    "K64": (complete_graph(64), factorial(64), 1),
    "K32,32": (complete_bipartite_graph(32, 32), 2 * factorial(32) ** 2, 1),
    "32xK2": (Graph.from_edges(64, [(2 * i, 2 * i + 1) for i in range(32)]),
              2 ** 32 * factorial(32), 1),
    "rook8x8": (rook_graph(8), 2 * factorial(8) ** 2, 1),
    "Q6": (hypercube(6), 2 ** 6 * factorial(6), 1),
    "C64": (cycle_graph(64), 128, 1),
    "Paley61": (paley_graph(61), 61 * 30, 1),
}


@pytest.mark.parametrize("name", LARGE_FAMILIES)
def test_large_families_known_orders(name):
    g, order, orbit_count = LARGE_FAMILIES[name]
    res = aut_order(g)
    assert res.order == order
    assert len(res.orbits) == orbit_count
    assert len(res.generators) <= g.n - 1
    for p in res.generators:
        assert is_automorphism(g, p)


# Each generator the orbit-pruned search keeps joins two orbit classes.

@given(graphs(max_n=8))
def test_generator_count_at_most_n_minus_1(g):
    assert len(aut_order(g).generators) <= g.n - 1


@pytest.mark.parametrize("n", [4, 8, 16])
def test_complete_graph_has_n_minus_1_generators(n):
    assert len(aut_order(complete_graph(n)).generators) == n - 1
