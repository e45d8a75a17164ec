"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of the workload seed, so the same seed
always yields the same graphs in the same order.  Families that
``autbounds.graphs`` does not provide (the 6-cube, the Paley graph, random
graphs, the graph atlas) are built here and handed to the program as graph6.
"""

from __future__ import annotations

import random
from math import factorial

from autbounds import (
    Graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    is_connected,
    write_graph6,
)

# Random 8-vertex graphs appended to the atlas in batch-mixed, per density.
# Each has round(p * 28) edges, the mean edge count of G(8, p): the dense
# tail sets report_p99_ms, and with a binomial edge count it moved by about
# a third between seeds.
BATCH_RANDOM_PER_P = 100
BATCH_DENSITIES = (0.3, 0.5, 0.7)
# (n, edges) of the connected random graphs in analyze-hard.  The structural
# DPs are exponential in n, so cost is set mostly by n; a fixed edge count
# keeps the rest of the cost from swinging with the seed.
ANALYZE_RANDOM = ((15, 40), (15, 40), (16, 40))
# Non-isomorphic graphs on n vertices (OEIS A000088), the atlas and the corpus.
ALL_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}


def gnm(n: int, m: int, rng: random.Random) -> Graph:
    """Uniform graph with n vertices and m edges, G(n, m)."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph.from_edges(n, rng.sample(pairs, m))


def connected_gnm(n: int, m: int, rng: random.Random) -> Graph:
    """Uniform connected graph with n vertices and m edges (by rejection)."""
    while True:
        g = gnm(n, m, rng)
        if is_connected(g):
            return g


def hypercube(d: int) -> Graph:
    """Q_d: vertices are d-bit words, adjacent when they differ in one bit."""
    return Graph.from_edges(1 << d, [(v, v ^ (1 << i)) for v in range(1 << d)
                                     for i in range(d) if v < v ^ (1 << i)])


def paley(q: int) -> Graph:
    """Paley graph on Z_q for a prime q = 1 (mod 4)."""
    squares = {x * x % q for x in range(1, q)}
    return Graph.from_edges(q, [(u, v) for u in range(q) for v in range(u + 1, q)
                                if (v - u) % q in squares])


def atlas() -> list[Graph]:
    """Every graph on 1..7 vertices, decoded from networkx's graph atlas."""
    import networkx  # only the atlas needs it; the program never sees it

    out = [Graph.from_edges(a.number_of_nodes(), a.edges())
           for a in networkx.graph_atlas_g() if a.number_of_nodes() >= 1]
    counts: dict[int, int] = {}
    for g in out:
        counts[g.n] = counts.get(g.n, 0) + 1
    if counts != ALL_COUNTS:
        raise RuntimeError(f"atlas decode gave {counts}, expected {ALL_COUNTS}")
    return out


def batch_mixed(seed: int) -> list[str]:
    """graph6 lines: the whole atlas, then seeded G(8, round(28 p)) graphs."""
    rng = random.Random(f"batch-mixed/{seed}")
    graphs = atlas()
    for p in BATCH_DENSITIES:
        graphs += [gnm(8, round(p * 28), rng) for _ in range(BATCH_RANDOM_PER_P)]
    return [write_graph6(g) for g in graphs]


def analyze_hard(seed: int) -> list[tuple[str, str, int | None]]:
    """(label, graph6, expected aut order or None) for each hard input."""
    rng = random.Random(f"analyze-hard/{seed}")
    named = [
        ("K32", complete_graph(32), factorial(32)),
        ("K16,16", complete_bipartite_graph(16, 16), 2 * factorial(16) ** 2),
        ("Q6", hypercube(6), 2 ** 6 * factorial(6)),
        ("C64", cycle_graph(64), 128),
        ("Paley61", paley(61), 61 * 30),
    ]
    items = [(label, write_graph6(g), aut) for label, g, aut in named]
    for i, (n, m) in enumerate(ANALYZE_RANDOM):
        items.append((f"random{i}-n{n}-m{m}", write_graph6(connected_gnm(n, m, rng)), None))
    return items


def build(workload: str, seed: int):
    """The inputs every pass of a workload receives (JSON-serialisable)."""
    if workload == "batch-mixed":
        return batch_mixed(seed)
    if workload == "analyze-hard":
        return analyze_hard(seed)
    return None  # verify-n7 builds its own corpus; the seed drives its oracle
