"""Shared strategies and naive oracles for the test suite.

The oracles here deliberately stay brute force and independent of the
package's algorithms: orbits, labeled copies and path covers come from
enumerating all n! permutations, Hamiltonian paths are counted by
inclusion-exclusion over walks, random graphs are drawn bit by bit, and
random spanning trees come from Kruskal's rule on shuffled edges.  A leaf
check is judged pair by pair against the definition of an isomorphism.  One
oracle is a kept copy rather than a brute force: ``refine_reference`` is the
refinement that scans every cell for every splitter, which the faster
``automorphisms._refine`` must match split for split.  The
symmetric families (rook, Shrikhande, Paley, hypercube, triangular, Kneser)
are built from their textbook definitions and shared with
``scripts/bench.py``, and so are the two 24-vertex greedy-tree hosts.
"""

import random
from collections import deque
from itertools import combinations, permutations

from hypothesis import strategies as st

from autbounds.graphs import (
    Graph,
    bits,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    is_connected,
)
from autbounds.trees import SpanningTree


def is_automorphism(g: Graph, p) -> bool:
    return all(g.has_edge(p[u], p[v]) for u, v in g.edges())


def is_isomorphism(rows_a, rows_b, perm) -> bool:
    """The definition, pair by pair: u ~ v in a exactly when perm[u] ~ perm[v]
    in b, for all n^2 ordered pairs (u = v included)."""
    n = len(rows_a)
    return all(((rows_a[u] >> v) & 1) == ((rows_b[perm[u]] >> perm[v]) & 1)
               for u in range(n) for v in range(n))


def refine_reference(rows, cells, splitters=None):
    """automorphisms._refine as it was before it learned to skip cells: every
    popped splitter scans every cell.  Same contract, same (cells, trace)."""
    cells = list(cells)
    queue = deque(cells if splitters is None else splitters)
    trace = []
    n = len(rows)
    while queue and len(cells) < n:
        w = queue.popleft()
        nw = 0
        for u in bits(w):
            nw |= rows[u]
        ci = 0
        while ci < len(cells):
            cell = cells[ci]
            hit = cell & nw
            if hit and cell & (cell - 1):
                counts = {0: cell ^ hit} if hit != cell else {}
                if w & (w - 1) == 0:  # W = {u}: the neighbours of u count 1
                    counts[1] = hit
                else:
                    for v in bits(hit):
                        c = (rows[v] & w).bit_count()
                        counts[c] = counts.get(c, 0) | 1 << v
                if len(counts) > 1:
                    ordered = sorted(counts.items())
                    cells[ci:ci + 1] = [m for _, m in ordered]
                    queue.extend(m for _, m in ordered)
                    trace.append((ci, tuple((c, m.bit_count()) for c, m in ordered)))
                    ci += len(ordered) - 1
            ci += 1
    return cells, tuple(trace)


def naive_automorphisms(g: Graph):
    """Every automorphism, found by testing all n! permutations (n <= 8)."""
    return [p for p in permutations(range(g.n)) if is_automorphism(g, p)]


def naive_orbits(g: Graph):
    """Vertex orbits by explicit enumeration of all automorphisms (n <= 8)."""
    autos = naive_automorphisms(g)
    orbits = []
    seen = set()
    for v in range(g.n):
        if v in seen:
            continue
        orb = sorted({p[v] for p in autos})
        seen.update(orb)
        orbits.append(tuple(orb))
    return tuple(orbits)


def brute_labeled_embeddings(f: Graph, g: Graph) -> int:
    """Labeled copies of f in g: the vertex bijections, out of all n!, that
    send every edge of f to an edge of g (n <= 8)."""
    f_edges = list(f.edges())
    return sum(all(g.has_edge(p[u], p[v]) for u, v in f_edges)
               for p in permutations(range(f.n)))


def brute_path_cover(g: Graph) -> int:
    """Minimum vertex-disjoint path cover by enumerating all vertex orders
    (n <= 7).  Cutting an order at its non-adjacent consecutive pairs gives a
    cover with 1 + that many paths, and concatenating the paths of any cover
    gives an order with at most that many cuts."""
    return min(1 + sum(not g.has_edge(a, b) for a, b in zip(order, order[1:]))
               for order in permutations(range(g.n)))


def karp_hamiltonian_paths(g: Graph) -> int:
    """Karp's inclusion-exclusion count (Oper. Res. Lett. 1982): the sum over
    vertex subsets S of (-1)^(n - |S|) times the number of walks with n - 1
    steps in G[S].  Walks that miss a vertex cancel out, so what remains
    counts each Hamiltonian path once per direction (once when n == 1); it
    is > 0 exactly when g has a Hamiltonian path."""
    n = g.n
    total = 0
    for mask in range(1, 1 << n):
        members = [v for v in range(n) if (mask >> v) & 1]
        nbrs = [[i for i, u in enumerate(members) if g.has_edge(u, v)] for v in members]
        walks = [1] * len(members)    # walks with k steps ending at each member
        for _ in range(n - 1):
            walks = [sum(walks[u] for u in row) for row in nbrs]
        total += (-1) ** (n - len(members)) * sum(walks)
    return total


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


def hypercube(d):
    return Graph.from_edges(1 << d, [(v, v ^ (1 << i)) for v in range(1 << d)
                                     for i in range(d) if v < v ^ (1 << i)])


def kneser_graph(m, k):
    """K(m, k): the k-subsets of {0..m-1}, adjacent when disjoint."""
    sets = [sum(1 << i for i in c) for c in combinations(range(m), k)]
    return Graph.from_edges(len(sets), [(i, j) for i in range(len(sets))
                                        for j in range(i + 1, len(sets))
                                        if not sets[i] & sets[j]])


def triangular_graph(m):
    """T(m), the line graph of K_m: the 2-subsets of {0..m-1}, adjacent when
    they meet."""
    return kneser_graph(m, 2).complement()


def aut_families() -> dict[str, Graph]:
    """Nine vertex-transitive graphs, on which refinement of the unit
    partition splits nothing and the search finds the whole group: K32 and
    K16,16 with their wide cells, Q6, C64, Paley 61, T(20), Kneser(10, 4),
    and rook 4x4 and Shrikhande, strongly regular with equal parameters."""
    return {
        "K32": complete_graph(32),
        "K16,16": complete_bipartite_graph(16, 16),
        "Q6": hypercube(6),
        "C64": cycle_graph(64),
        "Paley61": paley_graph(61),
        "T20": triangular_graph(20),
        "Kneser10,4": kneser_graph(10, 4),
        "rook4x4": rook_graph(4),
        "Shrikhande": shrikhande_graph(),
    }


def graph_from_bits(n: int, bitcode: int) -> Graph:
    rows = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if (bitcode >> k) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            k += 1
    return Graph(n, tuple(rows))


def as_tree(g: Graph) -> SpanningTree:
    return SpanningTree(g.n, g.rows)


def random_spanning_tree(g: Graph, rng) -> SpanningTree:
    """A spanning tree of the connected graph g by Kruskal's rule on edges in
    rng's shuffled order: keep each edge that joins two components."""
    edges = g.edges()
    rng.shuffle(edges)
    comp = list(range(g.n))
    kept = []
    for u, v in edges:
        cu, cv = comp[u], comp[v]
        if cu != cv:
            comp = [cu if c == cv else c for c in comp]
            kept.append((u, v))
    return SpanningTree.from_edges(g.n, kept)


def connected_gnm(n: int, m: int, rng) -> Graph:
    """m edges drawn uniformly with rng, redrawn until the graph is connected."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    while True:
        g = Graph.from_edges(n, rng.sample(pairs, m))
        if is_connected(g):
            return g


def grid_graph(a: int, b: int) -> Graph:
    """The a-by-b grid: cell (r, c) is vertex r*b + c, adjacent to the cells
    beside, above and below it."""
    edges = [(r * b + c, r * b + c + 1) for r in range(a) for c in range(b - 1)]
    edges += [(r * b + c, (r + 1) * b + c) for r in range(a - 1) for c in range(b)]
    return Graph.from_edges(a * b, edges)


def greedy_hosts() -> dict[str, Graph]:
    """Two 24-vertex hosts on which best_greedy_tree's leaf choices branch
    widely: the 4x6 grid and a seeded connected G(24, 60)."""
    return {"grid4x6": grid_graph(4, 6), "G(24,60)": connected_gnm(24, 60, random.Random(24))}


@st.composite
def graphs(draw, min_n=1, max_n=8):
    n = draw(st.integers(min_n, max_n))
    bitcode = draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    return graph_from_bits(n, bitcode)


@st.composite
def connected_graphs_st(draw, min_n=2, max_n=8):
    """Random graph unioned with a random spanning path, so always connected."""
    n = draw(st.integers(min_n, max_n))
    bitcode = draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    g = graph_from_bits(n, bitcode)
    order = draw(st.permutations(list(range(n))))
    rows = list(g.rows)
    for a, b in zip(order, order[1:]):
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    return Graph(n, tuple(rows))


@st.composite
def random_trees(draw, min_n=2, max_n=10):
    """Uniform-ish random tree: each vertex attaches to an earlier one."""
    n = draw(st.integers(min_n, max_n))
    edges = []
    for v in range(1, n):
        u = draw(st.integers(0, v - 1))
        edges.append((u, v))
    return SpanningTree.from_edges(n, edges)


@st.composite
def permutations_of(draw, n: int):
    return tuple(draw(st.permutations(list(range(n)))))
