import random

import pytest
from hypothesis import given

from autbounds import structure
from autbounds.graphs import (
    Graph,
    SizeLimitError,
    complete_bipartite_graph,
    complete_graph,
    connected_gnm,
    cycle_graph,
    path_graph,
    star_graph,
)
from autbounds.corpus import all_graphs, connected_graphs
from autbounds.structure import (
    _forest_path_cover,
    _hamiltonian_path,
    _path_cover_dp,
    path_cover_number,
    star_free_parameter,
)

from helpers import (
    brute_path_cover,
    connected_graphs_st,
    graphs,
    karp_hamiltonian_paths,
)
from test_golden import path_cover_graphs


def check_witness(g, res):
    covered = set()
    for path in res.witness:
        for a, b in zip(path, path[1:]):
            assert g.has_edge(a, b)
        for v in path:
            assert v not in covered
            covered.add(v)
    assert covered == set(range(g.n))
    assert len(res.witness) == res.p


def test_path_cover_p5():
    res = path_cover_number(path_graph(5))
    assert res.p == 1
    check_witness(path_graph(5), res)


def test_path_cover_claw():
    res = path_cover_number(star_graph(3))
    assert res.p == 2
    check_witness(star_graph(3), res)


def test_path_cover_k4():
    assert path_cover_number(complete_graph(4)).p == 1


def test_path_cover_single_vertex():
    res = path_cover_number(Graph(1, (0,)))
    assert res.p == 1 and res.witness == ((0,),)


def test_path_cover_disconnected():
    g = Graph.from_edges(5, [(0, 1), (2, 3)])
    res = path_cover_number(g)
    assert res.p == 3
    check_witness(g, res)


def test_size_refusal():
    with pytest.raises(SizeLimitError):
        path_cover_number(path_graph(21))
    with pytest.raises(SizeLimitError):
        star_free_parameter(path_graph(21))


def test_hamiltonian_examples():
    """A Hamiltonian path exists exactly when p == 1."""
    for g in (cycle_graph(6), complete_bipartite_graph(2, 3)):
        res = path_cover_number(g)
        assert res.p == 1 and len(res.witness[0]) == g.n
        check_witness(g, res)
    assert path_cover_number(star_graph(3)).p == 2
    assert path_cover_number(complete_bipartite_graph(2, 4)).p == 2


def test_star_free_examples():
    assert star_free_parameter(complete_graph(3)).m_min == 2
    assert star_free_parameter(path_graph(3)).m_min == 3
    assert star_free_parameter(star_graph(3)).m_min == 4


def test_star_free_witness_fields():
    res = star_free_parameter(star_graph(3))
    assert res.witness_vertex == 0
    assert set(res.witness_set) <= {1, 2, 3} and len(res.witness_set) == 3
    lonely = star_free_parameter(Graph(1, (0,)))
    assert lonely.m_min == 2 and lonely.witness_vertex is None


def test_star_free_takes_a_vertex_with_no_neighbour_left(monkeypatch):
    # a vertex with no neighbour left in the mask is taken without branching:
    # one call per vertex of each neighbourhood plus one for the empty mask,
    # where branching on it makes 2^12 calls on the centre's 12 leaves
    g = star_graph(12)
    calls = []
    real = structure._max_independent_set

    def spied(rows, mask):
        calls.append(mask)
        return real(rows, mask)

    monkeypatch.setattr(structure, "_max_independent_set", spied)
    res = star_free_parameter(g)
    assert res.m_min == 13 and res.witness_set == tuple(range(1, 13))
    assert len(calls) <= sum(d + 1 for d in g.degrees)


def brute_has_induced_star(g, m):
    """Does some vertex have m pairwise non-adjacent neighbours?"""
    from itertools import combinations
    for v in range(g.n):
        nbrs = [w for w in range(g.n) if g.has_edge(v, w)]
        for combo in combinations(nbrs, m):
            if all(not g.has_edge(a, b) for a, b in combinations(combo, 2)):
                return True
    return False


def test_star_free_against_brute(corpus7):
    for n in range(1, 8):
        for g in corpus7[n]:
            m_min = star_free_parameter(g).m_min
            assert not brute_has_induced_star(g, m_min)
            if m_min > 2:
                assert brute_has_induced_star(g, m_min - 1)


def test_equivalence_p1_hamiltonian():
    """p equals the brute-force minimum over all vertex orders on every graph
    with n <= 6, disconnected ones included; so p == 1 exactly when some order
    is a Hamiltonian path, and p >= 2 is minimal."""
    for n in range(1, 7):
        for g in all_graphs(n):
            res = path_cover_number(g)
            assert res.p == brute_path_cover(g), g
            check_witness(g, res)


def karp_graphs():
    """Seeded G(n, m) for n = 1..12 with m = n (sparse) and 2/5 of all pairs
    (dense), each drawn once as it falls (often disconnected when sparse)
    and once redrawn until connected."""
    rng = random.Random(1982)
    out = []
    for n in range(1, 13):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for m in sorted({min(n, len(pairs)), 2 * len(pairs) // 5}):
            out.append(Graph.from_edges(n, rng.sample(pairs, m)))
            if m >= n - 1:
                out.append(connected_gnm(n, m, rng))
    return out


def test_p1_verdict_matches_karp_count():
    """p == 1 exactly when Karp's inclusion-exclusion count of Hamiltonian
    paths, which shares no code with the package, is positive."""
    verdicts = []
    for g in karp_graphs():
        res = path_cover_number(g)
        check_witness(g, res)
        verdicts.append(res.p == 1)
        assert verdicts[-1] == (karp_hamiltonian_paths(g) > 0), g
    assert True in verdicts and False in verdicts


def test_dp_alone_matches_search_first(corpus7):
    """The DP alone gives the same p, with a valid witness, as the forest
    rule and the search do on every connected graph with n <= 7 and the
    golden path-cover graphs, and the known p of a single vertex, K1,3 and
    K2,4."""
    cases = [g for n in range(1, 8) for g in corpus7[n]] + path_cover_graphs()
    cases = [(g, path_cover_number(g).p) for g in cases]
    cases += [(Graph(1, (0,)), 1), (star_graph(3), 2), (complete_bipartite_graph(2, 4), 2)]
    for g, p in cases:
        res = _path_cover_dp(g)
        assert res.p == p, g
        check_witness(g, res)


def forests():
    """The trees of the n <= 8 corpus, 234 seeded random trees with
    2 <= n <= 14 and 120 seeded forests with n <= 12: each vertex is joined
    to a uniformly chosen earlier one, in a forest with probability 0.7."""
    rng = random.Random(11)
    cases = [g for n in range(1, 9) for g in connected_graphs(n) if g.e == n - 1]
    cases += [Graph.from_edges(n, [(rng.randrange(v), v) for v in range(1, n)])
              for n in range(2, 15) for _ in range(18)]
    cases += [Graph.from_edges(n, [(rng.randrange(v), v) for v in range(1, n)
                                   if rng.random() < 0.7])
              for n in range(1, 13) for _ in range(10)]
    return cases


def test_forest_rule_matches_dp():
    """On a forest the leaf-up rule gives the DP's p, with a valid witness,
    and no search runs; on K1,19 (the DP takes seconds there) the centre
    joins two of the 19 leaves, p = 18."""
    for g in forests():
        res = _forest_path_cover(g)
        assert res == path_cover_number(g)
        assert res.p == _path_cover_dp(g).p, g
        check_witness(g, res)
    res = path_cover_number(star_graph(19))
    assert res.p == 18
    check_witness(star_graph(19), res)


def test_forest_rule_refuses_cycles():
    assert _forest_path_cover(cycle_graph(5)) is None
    # five edges on six vertices: a triangle beside a path on three
    g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)])
    assert _forest_path_cover(g) is None


def test_k8_10_spends_the_whole_search_budget():
    """K8,10 has no Hamiltonian path (its sides differ by two), so the search
    runs out of budget and the DP proves p == 2."""
    g = complete_bipartite_graph(8, 10)
    budget = structure._SEARCH_NODES_PER_N2 * g.n * g.n
    assert _hamiltonian_path(g, budget) == (None, budget)
    res = path_cover_number(g)
    assert res.p == 2
    check_witness(g, res)


@given(graphs(max_n=8))
def test_witness_always_valid(g):
    res = path_cover_number(g)
    check_witness(g, res)
    if g.n <= 7:
        assert res.p == brute_path_cover(g)


@given(connected_graphs_st(max_n=8))
def test_star_free_witness_is_independent(g):
    res = star_free_parameter(g)
    if res.witness_vertex is None:
        return
    v, ws = res.witness_vertex, res.witness_set
    assert len(ws) == res.m_min - 1
    for w in ws:
        assert g.has_edge(v, w)
    for i, a in enumerate(ws):
        for b in ws[i + 1:]:
            assert not g.has_edge(a, b)
