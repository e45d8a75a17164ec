"""Shared strategies and naive oracles for the test suite.

The oracles here deliberately stay brute force and independent of the
package's algorithms: orbits, labeled copies and path covers come from
enumerating all n! permutations, Hamiltonian paths are counted by
inclusion-exclusion over walks, random graphs are drawn bit by bit, and
random spanning trees come from Kruskal's rule on shuffled edges.  A leaf
check is judged pair by pair against the definition of an isomorphism.  Four
oracles are kept copies rather than brute force: ``refine_reference`` is the
refinement that scans every cell for every splitter, which the faster
``automorphisms._refine`` must match split for split; ``search_reference`` is
the search that descends to a leaf for every bijection it finds, which
``automorphisms._search`` must match result for result in an automorphism
search and in whether it finds one between two graphs;
``all_graphs_reference`` is the corpus generator that tries every orbit-least
augmentation, which ``corpus.all_graphs`` must match graph for graph; and
``report_to_dict_reference`` is the JSON report builder that went through a
helper per row and an isinstance check per context value, which
``cli.report_to_dict`` must match dict for dict.  The
graph families themselves, and their known automorphism group orders, come
from ``autbounds.graphs``; the helpers here only pick from them.
"""

import random
from collections import deque
from fractions import Fraction
from functools import lru_cache
from itertools import permutations

from hypothesis import strategies as st

from autbounds.automorphisms import _first_path, _individualized, _is_mapping, _refine, _search
from autbounds.corpus import _least_masks
from autbounds.graphs import SYMMETRIC_FAMILIES, Graph, bits, connected_gnm, grid_graph
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


def search_reference(rows_a, rows_b, first, level, cells_b):
    """automorphisms._search as it was before it tried the cell-aligned
    bijection: every level branches on its target cell and only a discrete
    leaf is checked.  Same contract, same bijection or None."""
    levels, leaf = first
    if level == len(levels):
        perm = [0] * len(rows_a)
        for ca, cb in zip(leaf, cells_b):
            perm[ca.bit_length() - 1] = cb.bit_length() - 1
        perm = tuple(perm)
        return perm if _is_mapping(rows_a, rows_b, perm) else None
    _, ti, _, trace = levels[level]
    for y in bits(cells_b[ti]):
        child, tr = _refine(rows_b, _individualized(cells_b, ti, y), (1 << y,))
        if tr == trace:
            found = search_reference(rows_a, rows_b, first, level + 1, child)
            if found is not None:
                return found
    return None


@lru_cache(maxsize=None)
def all_graphs_reference(n):
    """corpus.all_graphs as it was before the degree rule: every orbit-least
    augmentation of every base is refined and compared with its
    bucket-mates.  Same contract, same graphs in the same order."""
    if n == 1:
        return (Graph(1, (0,)),)
    full = [(1 << n) - 1]
    new = 1 << (n - 1)
    buckets = {}
    kept = []
    for base in all_graphs_reference(n - 1):
        for nbrs in _least_masks(base):
            rows = tuple(row | new if (nbrs >> w) & 1 else row
                         for w, row in enumerate(base.rows)) + (nbrs,)
            e = base.e + nbrs.bit_count()
            cells, trace = _refine(rows, full)
            bucket = buckets.setdefault((e, trace), [])
            if any(_search(seen, rows, first, 0, cells) is not None
                   for seen, first in bucket):
                continue
            bucket.append((rows, _first_path(rows, cells)))
            kept.append((e, rows))
    kept.sort()
    return tuple(Graph(n, rows) for _, rows in kept)


def report_to_dict_reference(report):
    """cli.report_to_dict as it was when each row went through its own
    bound_to_dict and each context value through isinstance(v, Fraction).
    Same contract, same dict."""
    def exact_str(fr):
        return None if fr is None else str(fr)

    def bound_to_dict(bv, gap):
        return {
            "id": bv.bound_id,
            "applicable": bv.applicable,
            "reason": bv.reason,
            "exact": exact_str(bv.exact_value),
            "log2": bv.log2_value,
            "gap_log2": gap,
            "context": {k: exact_str(v) if isinstance(v, Fraction) else v
                        for k, v in bv.context.items()},
        }

    return {
        "schema": "autbounds-report/1",
        "graph": {"graph6": report.graph_id, "n": report.n, "e": report.e,
                  "connected": report.connected},
        "aut": str(report.aut_exact) if report.aut_exact is not None else None,
        "orbits": [list(o) for o in report.orbits] if report.orbits is not None else None,
        "bounds": [bound_to_dict(bv, report.gaps.get(bv.bound_id)) for bv in report.bounds],
        "notes": report.notes,
    }


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


def aut_families() -> dict[str, Graph]:
    """Nine vertex-transitive graphs, on which refinement of the unit
    partition splits nothing and the search finds the whole group: K32 and
    K16,16 with their wide cells, Q6, C64, Paley 61, T(20), Kneser(10, 4),
    and rook 4x4 and Shrikhande, strongly regular with equal parameters."""
    names = ("K32", "K16,16", "Q6", "C64", "Paley61", "T20", "Kneser10,4",
             "rook4x4", "Shrikhande")
    return {name: SYMMETRIC_FAMILIES[name][0]() for name in names}


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
