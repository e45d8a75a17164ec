"""networkx as a third oracle past n = 8, sharing no code or method with
autbounds: its VF2++ matcher lists every automorphism that aut_order's
generators must generate, its spanning-tree count checks the Laplacian
count, and its maximum clique search checks the star-free parameter.
networkx is a test dependency only; without it this module skips."""

import random

import pytest

from autbounds.automorphisms import aut_order
from autbounds.graphs import (
    SYMMETRIC_FAMILIES,
    Graph,
    complete_bipartite_graph,
    complete_graph,
    connected_gnm,
    random_graph,
)
from autbounds.structure import star_free_parameter
from autbounds.trees import spanning_tree_count

nx = pytest.importorskip("networkx")


def as_networkx(g: Graph):
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges())
    return G


def vf2pp_automorphisms(g: Graph) -> set[tuple[int, ...]]:
    G = as_networkx(g)
    return {tuple(m[v] for v in range(g.n)) for m in nx.vf2pp_all_isomorphisms(G, G)}


def generated(gens, n) -> set[tuple[int, ...]]:
    """Every product of the permutations gens: the group they generate."""
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        new = []
        for p in frontier:
            for s in gens:
                q = tuple(s[v] for v in p)
                if q not in group:
                    group.add(q)
                    new.append(q)
        frontier = new
    return group


def check_aut(g: Graph):
    res = aut_order(g)
    auts = vf2pp_automorphisms(g)
    assert res.order == len(auts)
    assert generated(res.generators, g.n) == auts


@pytest.mark.parametrize("n", range(9, 21))
def test_aut_order_matches_vf2pp_on_random_graphs(n):
    rng = random.Random(n)
    for _ in range(20):
        check_aut(random_graph(n, rng))


# every row with |Aut| <= 10^4; Q6 (46,080) and Paley 61 take about 80 s
# each, since VF2++ lists every automorphism
@pytest.mark.parametrize("name", [
    "Q3", "C64", "rook4x4", "Shrikhande", "Paley13", "Paley17",
    pytest.param("Paley61", marks=pytest.mark.slow),
    pytest.param("Q6", marks=pytest.mark.slow),
])
def test_aut_order_matches_vf2pp_on_families(name):
    build, order = SYMMETRIC_FAMILIES[name]
    g = build()
    assert aut_order(g).order == order
    check_aut(g)


def test_spanning_tree_count_matches_networkx(corpus7):
    rng = random.Random(20)
    graphs = [g for n in range(1, 8) for g in corpus7[n]]
    graphs += [connected_gnm(n, 2 * n, rng) for n in range(9, 21)]
    for g in graphs:
        assert spanning_tree_count(g) == round(nx.number_of_spanning_trees(as_networkx(g)))


def test_star_free_parameter_matches_networkx_cliques():
    """m_min is one more than the largest independent set in an open
    neighbourhood, a clique of its complement, and at least 2."""
    rng = random.Random(19)
    graphs = [connected_gnm(n, k * n, rng) for n in range(9, 21) for k in (1, 2, 3)
              for _ in range(3)]
    graphs += [complete_bipartite_graph(1, 19), complete_bipartite_graph(2, 18),
               complete_graph(20)]
    for g in graphs:
        G = as_networkx(g)
        largest = max(nx.max_weight_clique(nx.complement(G.subgraph(G[v])), weight=None)[1]
                      for v in G)
        assert star_free_parameter(g).m_min == max(2, 1 + largest), g
