import random
import sys
import threading
import warnings
from collections import deque
from dataclasses import fields

import pytest
from hypothesis import given

from autbounds.corpus import all_graphs
from autbounds.graphs import (
    SYMMETRIC_FAMILIES,
    Graph,
    GraphParseError,
    SizeLimitError,
    _classes,
    _root,
    _union,
    _walk,
    bits,
    complete_bipartite_graph,
    complete_graph,
    connected_gnm,
    cycle_graph,
    is_connected,
    parse_edgelist,
    paley_graph,
    parse_graph6,
    path_graph,
    petersen_graph,
    star_graph,
    write_graph6,
)

from helpers import graphs


# Reference strings below were cross-checked against the networkx graph6
# codec for the same labeled graphs.
REFERENCE_G6 = {
    "@": Graph(1, (0,)),
    "A_": complete_graph(2),
    "A?": Graph(2, (0, 0)),
    "C~": complete_graph(4),
    "Cl": cycle_graph(4),
    "Dhc": cycle_graph(5),
    "Bg": path_graph(3),
    "Cs": star_graph(3),
    "D]o": complete_bipartite_graph(2, 3),
    "IheA@GUAo": petersen_graph(),
}


def test_parse_graph6_reference_strings():
    for text, expected in REFERENCE_G6.items():
        assert parse_graph6(text) == expected


def test_write_graph6_reference_strings():
    for text, g in REFERENCE_G6.items():
        assert write_graph6(g) == text


def test_k4_shape():
    g = parse_graph6("C~")
    assert g.n == 4 and g.e == 6
    assert all(g.has_edge(u, v) for u in range(4) for v in range(4) if u != v)


def test_graph6_header_accepted():
    assert parse_graph6(">>graph6<<C~") == complete_graph(4)


def test_graph6_invalid_byte_offset():
    with pytest.raises(GraphParseError) as exc:
        parse_graph6("C\x19")
    assert exc.value.offset == 1


def test_graph6_truncated():
    with pytest.raises(GraphParseError, match="truncated"):
        parse_graph6("D")  # n=5 needs two data bytes


def test_graph6_trailing_garbage():
    with pytest.raises(GraphParseError, match="trailing garbage") as exc:
        parse_graph6("C~~")
    assert exc.value.offset == 2


def test_graph6_nonzero_padding():
    # K_2 uses one data byte with 5 padding bits; force one of them on.
    with pytest.raises(GraphParseError, match="padding"):
        parse_graph6("A" + chr(63 + 0b100001))
    # C_5's ten bits take two bytes; the offset is the last byte's, header counted
    for text, offset in (("D?@", 2), (">>graph6<<D?@", 12)):
        with pytest.raises(GraphParseError, match="padding") as exc:
            parse_graph6(text)
        assert exc.value.offset == offset


def test_graph6_cap():
    with pytest.raises(SizeLimitError):
        parse_graph6("~" + chr(63) + chr(65) + chr(63))  # n = 128


@pytest.mark.parametrize("text,message,offset", [
    (">>graph6<<", "empty graph6 input", 10),
    ("~~??", "truncated 8-byte vertex count", 4),
    ("~?", "truncated 4-byte vertex count", 2),
    ("?", "graph6 vertex count must be at least 1", 0),
])
def test_graph6_vertex_count_errors(text, message, offset):
    with pytest.raises(GraphParseError) as exc:
        parse_graph6(text)
    assert str(exc.value) == f"{message} (byte offset {offset})"
    assert exc.value.offset == offset


def test_graph6_eight_byte_count_above_cap():
    # '~~' then six 6-bit digits 0, 0, 0, 0, 1, 1: n = 65.
    with pytest.raises(SizeLimitError) as exc:
        parse_graph6("~~????@@")
    assert str(exc.value) == "graph has 65 vertices, above the cap of 64"


def test_graph6_long_form_roundtrip():
    g = path_graph(63)
    s = write_graph6(g)
    assert s.startswith("~")
    assert parse_graph6(s) == g


@pytest.mark.parametrize("text", ["DQc", "~??DQc", ">>graph6<<DQc", "DQc\r\n",
                                  ">>graph6<<~??DQc\r\n"])
def test_parsed_graph_writes_the_shortest_form(text):
    # '~??D' spells n = 5 in the 4-byte count form; the writer, and so the
    # line a parsed graph keeps, uses the 1-byte form.
    g = parse_graph6(text)
    assert write_graph6(g) == "DQc" == write_graph6(Graph(g.n, g.rows))


def test_parsed_long_form_writes_the_shortest_form():
    # n = 63 needs the 4-byte count; the 8-byte count spells it too.
    g = path_graph(63)
    short = write_graph6(g)
    long = "~~?????~" + short[4:]
    assert short.startswith("~??~")
    assert write_graph6(parse_graph6(long)) == short == write_graph6(parse_graph6(short))


def test_graph6_line_is_not_a_field():
    # The kept line is a cached fact: it leaves equality, hashing and the
    # dataclass fields alone, and a graph built from a parsed one encodes
    # its own rows.
    parsed, built = parse_graph6("DQc"), Graph.from_edges(5, parse_graph6("DQc").edges())
    assert vars(parsed)["graph6"] == "DQc" and "graph6" not in vars(built)
    assert parsed == built and hash(parsed) == hash(built)
    assert [f.name for f in fields(Graph)] == ["n", "rows"]
    flipped = parsed.relabel((4, 3, 2, 1, 0))
    assert write_graph6(flipped) == write_graph6(Graph(5, flipped.rows)) != "DQc"
    assert write_graph6(parsed.complement()) == write_graph6(Graph(5, parsed.complement().rows))


def test_graph6_fact_matches_the_encoder():
    # every graph on 1..7 vertices and every named family the parser takes:
    # the parsed graph keeps exactly the line a new graph encodes to
    graphs = [g for n in range(1, 8) for g in all_graphs(n)]
    graphs += [g for g in (build() for build, _ in SYMMETRIC_FAMILIES.values()) if g.n <= 64]
    for g in graphs:
        line = write_graph6(Graph(g.n, g.rows))
        parsed = parse_graph6(line)
        assert parsed == g and vars(parsed)["graph6"] == line == write_graph6(parsed)


def test_parse_edgelist_path():
    g = parse_edgelist("3\n0 1\n1 2")
    assert g == path_graph(3)


def test_parse_edgelist_k4():
    g = parse_edgelist("4\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3")
    assert g == complete_graph(4)


def test_parse_edgelist_loop_rejected():
    with pytest.raises(GraphParseError, match="loop"):
        parse_edgelist("2\n0 0")


def test_parse_edgelist_range_rejected():
    with pytest.raises(GraphParseError, match="out of range"):
        parse_edgelist("2\n0 5")


@pytest.mark.parametrize("text,message", [
    ("", "empty edge-list input"),
    ("x", "first line must be the vertex count, got 'x'"),
    ("0", "vertex count must be at least 1"),
    ("3\n0 1 2", "expected 'u v', got '0 1 2'"),
    ("3\n0 a", "non-integer vertex in '0 a'"),
])
def test_parse_edgelist_errors(text, message):
    with pytest.raises(GraphParseError) as exc:
        parse_edgelist(text)
    assert str(exc.value) == message and exc.value.offset is None


def test_parse_edgelist_duplicate_warns():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        g = parse_edgelist("3\n0 1\n0 1\n1 2")
    assert g == path_graph(3)
    assert any("duplicate" in str(w.message) for w in caught)


def test_degree_stats_k4():
    g = complete_graph(4)
    assert g.degrees == (3, 3, 3, 3)
    assert g.delta_max == g.delta_min == 3


def test_degree_stats_star():
    g = star_graph(3)
    assert g.delta_max == 3 and g.delta_min == 1


def test_degree_stats_c5():
    g = cycle_graph(5)
    assert g.delta_max == g.delta_min == 2


def test_bits_matches_its_definition():
    def low_bit_loop(mask):
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out

    rng = random.Random(64)
    for mask in [*range(1024), *(rng.getrandbits(64) for _ in range(200))]:
        assert list(bits(mask)) == low_bit_loop(mask)
    assert list(bits(0)) == []


def test_is_connected():
    assert is_connected(complete_graph(4))
    assert not is_connected(Graph.from_edges(4, [(0, 1), (2, 3)]))
    assert is_connected(Graph(1, (0,)))


def shuffled(n: int, edges, rng) -> Graph:
    """The graph on n vertices with these edges, relabelled at random, so
    that no component is a block of consecutive vertices."""
    label = list(range(n))
    rng.shuffle(label)
    return Graph.from_edges(n, [(label[u], label[v]) for u, v in edges])


def tree_plus(k: int, first: int, rng) -> list[tuple[int, int]]:
    """A random tree on first..first + k - 1 and k more random edges among
    those vertices: connected by construction, not by is_connected."""
    edges = [(v, rng.randrange(v)) for v in range(1, k)]
    edges += [tuple(rng.sample(range(k), 2)) for _ in range(k)]
    return [(first + u, first + v) for u, v in edges]


def test_is_connected_matches_walk():
    # rows_connected walks its frontier with bits(): a tuple below bit 8, a
    # generator above; _walk counts one root (-1 parent) per component
    rng = random.Random(9)
    small = [g for n in range(1, 8) for g in all_graphs(n)]
    large = [shuffled(n, tree_plus(n, 0, rng), rng) for n in range(9, 65)]
    large += [shuffled(n, tree_plus(n // 2, 0, rng) + tree_plus(n - n // 2, n // 2, rng), rng)
              for n in range(9, 65)]
    cycle = cycle_graph(32).edges()
    large.append(shuffled(64, cycle + [(u + 32, v + 32) for u, v in cycle], rng))
    assert [is_connected(g) for g in large] == [True] * 56 + [False] * 57
    for g in small + large:
        assert is_connected(g) == (_walk(g.rows)[1].count(-1) == 1)


@pytest.mark.parametrize("n, m", [(6, 4), (6, 0), (2, 0), (6, 16), (4, 7)])
def test_connected_gnm_refuses_impossible_edge_counts(n, m):
    # fewer than n - 1 edges never connect (the redraw loop never ended), and
    # more than n(n-1)/2 cannot be drawn; both are refused before any draw
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError, match=f"no connected graph on {n} vertices has {m} edges"):
        connected_gnm(n, m, rng)
    assert rng.getstate() == state


def test_connected_gnm_extreme_edge_counts():
    rng = random.Random(0)
    assert connected_gnm(1, 0, rng) == Graph(1, (0,))
    assert connected_gnm(6, 15, rng) == complete_graph(6)
    tree = connected_gnm(6, 5, rng)
    assert tree.e == 5 and is_connected(tree)


# graphs._walk is the one breadth-first walk of the tree, path-cover and
# labeled-copy code; graphs._classes the one reader of union-find classes.

def walk_reference(rows, skip):
    """A deque breadth-first search over the vertices outside skip: each
    component from its lowest vertex, neighbours in increasing order."""
    n = len(rows)
    parent, order, seen = [-1] * n, [], {v for v in range(n) if skip >> v & 1}
    for root in range(n):
        if root in seen:
            continue
        seen.add(root)
        queue = deque([root])
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in range(n):
                if rows[v] >> w & 1 and w not in seen:
                    seen.add(w)
                    parent[w] = v
                    queue.append(w)
    return order, parent


def component_minima(rows, skip):
    """The lowest vertex of each component of the graph less skip."""
    n = len(rows)
    left = ((1 << n) - 1) & ~skip
    minima = []
    while left:
        reach = frontier = left & -left
        minima.append(reach.bit_length() - 1)
        while frontier:
            nxt = 0
            for v in bits(frontier):
                nxt |= rows[v] & left
            frontier = nxt & ~reach
            reach |= nxt
        left &= ~reach
    return minima


def walk_inputs():
    """Seeded forests (each vertex joins a random earlier one or starts a
    tree, then the labels are shuffled) and G(n, 1/2) graphs, each with a
    random skip mask and with none."""
    rng = random.Random(239)
    for n in range(1, 21):
        for _ in range(5):
            edges = [(v, rng.randrange(v)) for v in range(1, n) if rng.random() < 0.8]
            forest = Graph.from_edges(n, edges).relabel(rng.sample(range(n), n))
            dense = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                         if rng.random() < 0.5])
            for g in (forest, dense):
                yield g.rows, 0
                yield g.rows, rng.getrandbits(n)


def test_walk_is_a_breadth_first_forest():
    for rows, skip in walk_inputs():
        order, parent = _walk(rows, skip)
        assert (order, parent) == walk_reference(rows, skip)
        assert sorted(order) == [v for v in range(len(rows)) if not skip >> v & 1]
        position = {v: i for i, v in enumerate(order)}
        for v in order:
            if parent[v] >= 0:
                assert position[parent[v]] < position[v]
                assert rows[v] >> parent[v] & 1
        assert [v for v in order if parent[v] < 0] == component_minima(rows, skip)
        assert all(parent[v] == -1 for v in bits(skip))


def test_classes_are_the_sorted_orbit_form():
    rng = random.Random(235)
    for n in range(1, 41):
        parent = list(range(n))
        for _ in range(rng.randrange(n + 1)):
            _union(parent, rng.randrange(n), rng.randrange(n))
        groups = {}
        for v in range(n):
            groups.setdefault(_root(parent, v), []).append(v)
        expected = tuple(sorted((tuple(sorted(grp)) for grp in groups.values()), key=min))
        assert tuple(map(tuple, _classes(parent))) == expected


def test_generate_named():
    k4 = Graph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert complete_graph(4) == k4
    kb = complete_bipartite_graph(2, 3)
    assert kb.n == 5 and kb.e == 6
    pet = petersen_graph()
    assert pet.n == 10 and pet.e == 15
    assert set(pet.degrees) == {3}
    assert is_connected(pet)


def test_generate_named_rejects():
    with pytest.raises(ValueError):
        complete_graph(0)
    with pytest.raises(ValueError):
        cycle_graph(2)


# Z_q's difference graph is the Paley graph only for a prime q = 1 (mod 4):
# Z_7 gives degrees 3-5, and P(9) and P(25) live on GF(9) and GF(25).

@pytest.mark.parametrize("q", [1, 2, 3, 7, 9, 11, 15, 25])
def test_paley_graph_refuses_other_q(q):
    with pytest.raises(ValueError, match="prime q = 1"):
        paley_graph(q)


def test_complete_family_invariants():
    for n in range(1, 11):
        g = complete_graph(n)
        assert g.e == n * (n - 1) // 2
        assert is_connected(g)


def test_roundtrip_corpus(corpus7):
    for graphs_n in corpus7.values():
        for g in graphs_n:
            assert parse_graph6(write_graph6(g)) == g


def test_graph6_non_ascii_rejected():
    with pytest.raises(GraphParseError, match="non-ASCII") as exc:
        parse_graph6("Cé")
    assert exc.value.offset == 1


@given(graphs(max_n=12))
def test_roundtrip_random(g):
    assert parse_graph6(write_graph6(g)) == g


@given(graphs(max_n=12))
def test_degree_sum_is_twice_edges(g):
    assert sum(g.degrees) == 2 * g.e


@given(graphs(max_n=10))
def test_roundtrip_against_networkx(g):
    nx = pytest.importorskip("networkx")
    s = write_graph6(g)
    G = nx.from_graph6_bytes(s.encode())
    assert G.number_of_nodes() == g.n
    assert {frozenset(e) for e in G.edges()} == {frozenset(e) for e in g.edges()}


@pytest.mark.parametrize("name", SYMMETRIC_FAMILIES)
def test_write_graph6_against_networkx_families(name):
    # Q8, T20 and Kneser(10,4) have more than 62 vertices: the 4-byte count
    nx = pytest.importorskip("networkx")
    g = SYMMETRIC_FAMILIES[name][0]()
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges())
    s = write_graph6(g)
    assert s + "\n" == nx.to_graph6_bytes(G, header=False).decode("ascii")
    if g.n <= 64:
        assert parse_graph6(s) == g


def test_graph_validation():
    with pytest.raises(ValueError, match="loop"):
        Graph(2, (1, 2))
    with pytest.raises(ValueError, match="asymmetric"):
        Graph(2, (2, 0))
    with pytest.raises(ValueError):
        Graph(0, ())
    with pytest.raises(ValueError, match=r"^adjacency row count must equal n$"):
        Graph(2, (0,))
    with pytest.raises(ValueError, match=r"^row 0 mentions vertices >= n$"):
        Graph(2, (0b100, 0))


@pytest.mark.parametrize("one_sided, first", [
    ([(2, 5), (30, 35)], (2, 5)),     # row 2 < 256: bits() is a tuple
    ([(30, 35), (30, 33)], (30, 33)),  # row 30 past bit 8: a generator
    ([(12, 3), (5, 30)], (5, 30)),     # rows in index order: 5 before 12
])
def test_asymmetric_rows_name_the_first_bad_pair(one_sided, first):
    rows = list(cycle_graph(40).rows)
    for v, w in one_sided:
        rows[v] |= 1 << w
    with pytest.raises(ValueError, match=rf"^asymmetric adjacency between {first[0]} and {first[1]}$"):
        Graph(40, tuple(rows))


def test_lazy_facts_under_racing_threads():
    """Threads that switch every microsecond and race on the first read of
    the same graphs' facts all see what one thread computes alone, and the
    graphs keep those values."""
    def fresh():
        return [cycle_graph(n) for n in range(3, 40)] + [petersen_graph(), star_graph(9)]

    def facts(gs):
        return [(g.e, g.degrees, g.delta_max, g.delta_min) for g in gs]

    expected, shared, seen = facts(fresh()), fresh(), []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: seen.append(facts(shared)))
                   for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert seen == [expected] * 6 and facts(shared) == expected
    assert all({"e", "degrees", "delta_max", "delta_min"} <= vars(g).keys()
               for g in shared)


def test_complement_and_relabel():
    g = path_graph(3)
    assert g.complement() == Graph.from_edges(3, [(0, 2)])
    assert g.relabel((2, 1, 0)) == path_graph(3)
    assert g.relabel((1, 0, 2)) == Graph.from_edges(3, [(0, 1), (0, 2)])
