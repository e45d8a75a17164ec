"""Brute-force counting of labeled copies and subgraph copies of a spanning
subgraph.

Two genuinely independent routes feed the identity
``labeled == copies * aut_f``: labeled copies come from placement search over
bitmask candidate sets, the last vertex counted by popcount; subgraph copies
come from edge-subset enumeration with an edge-by-edge isomorphism test; and
aut_f comes from the naive permutation oracle.  ``count_embeddings`` checks
the identity on every call and raises RuntimeError if it fails, so a bug in
any one route trips immediately.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, SizeLimitError, bits
from .automorphisms import aut_order_naive

EMBED_VERTEX_LIMIT = 8


@dataclass(frozen=True)
class EmbeddingCount:
    labeled: int     # vertex bijections mapping every edge of f to an edge of g
    copies: int      # distinct edge subsets of g isomorphic to f
    aut_f: int


def _check_pair(f: Graph, g: Graph):
    if f.n != g.n:
        raise ValueError(f"spanning subgraph must share the vertex count ({f.n} != {g.n})")
    if g.n > EMBED_VERTEX_LIMIT:
        raise SizeLimitError(
            f"embedding counts are brute force; n={g.n} exceeds {EMBED_VERTEX_LIMIT}")


def count_labeled_embeddings(f: Graph, g: Graph) -> int:
    """Number of bijections on the shared vertex set sending every edge of f
    to an edge of g (non-edges of f are unconstrained)."""
    _check_pair(f, g)
    n = f.n
    # Place vertices component by component so each new vertex is constrained
    # by an already-placed neighbour whenever possible.
    order: list[int] = []
    placed = 0
    while len(order) < n:
        start = next(v for v in range(n) if not (placed >> v) & 1)
        queue = [start]
        placed |= 1 << start
        while queue:
            v = queue.pop(0)
            order.append(v)
            for w in bits(f.rows[v] & ~placed):
                placed |= 1 << w
                queue.append(w)
    pos = {v: i for i, v in enumerate(order)}
    # earlier[i]: neighbours of order[i] that are placed before it
    earlier = [[w for w in bits(f.rows[v]) if pos[w] < i] for i, v in enumerate(order)]

    image = [0] * n
    g_rows = g.rows
    last = n - 1

    def place(i: int, free: int) -> int:
        # Candidates for order[i]: free vertices adjacent in g to the image of
        # every earlier-placed neighbour.
        cand = free
        for w in earlier[i]:
            cand &= g_rows[image[w]]
        if i == last:
            return cand.bit_count()
        v = order[i]
        count = 0
        while cand:
            low = cand & -cand
            image[v] = low.bit_length() - 1
            count += place(i + 1, free ^ low)
            cand ^= low
        return count

    return place(0, (1 << n) - 1)


def _isomorphism_test(f: Graph):
    """Edge-set isomorphism test against f for graphs given as bit rows with
    f's vertex count, edge count and degree multiset.  f's vertices are placed
    in decreasing-degree order, which is fixed once for all the calls."""
    n = f.n
    f_rows, f_deg = f.rows, f.degrees
    order = sorted(range(n), key=lambda v: -f_deg[v])
    earlier = [order[:i] for i in range(n)]
    image = [0] * n

    def isomorphic(rows, degs) -> bool:
        def place(i: int, used: int) -> bool:
            if i == n:
                return True
            v = order[i]
            row_v = f_rows[v]
            for u in range(n):
                if (used >> u) & 1 or degs[u] != f_deg[v]:
                    continue
                row_u = rows[u]
                for w in earlier[i]:
                    if (row_v >> w) & 1 != (row_u >> image[w]) & 1:
                        break
                else:
                    image[v] = u
                    if place(i + 1, used | 1 << u):
                        return True
            return False

        return place(0, 0)

    return isomorphic


def count_subgraph_copies(f: Graph, g: Graph) -> int:
    """Number of edge subsets of g isomorphic to f, by subset enumeration."""
    _check_pair(f, g)
    from itertools import combinations

    n = f.n
    f_deg_sorted = sorted(f.degrees)
    isomorphic = _isomorphism_test(f)
    copies = 0
    for subset in combinations(g.edges(), f.e):
        degs = [0] * n
        rows = [0] * n
        for u, v in subset:
            degs[u] += 1
            degs[v] += 1
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        if sorted(degs) != f_deg_sorted:
            continue
        if isomorphic(rows, degs):
            copies += 1
    return copies


def count_embeddings(f: Graph, g: Graph) -> EmbeddingCount:
    """Labeled copies, subgraph copies, and aut(f), each computed by an
    independent route; their identity is verified before returning."""
    _check_pair(f, g)
    labeled = count_labeled_embeddings(f, g)
    copies = count_subgraph_copies(f, g)
    aut_f = aut_order_naive(f)
    if labeled != copies * aut_f:
        raise RuntimeError(
            f"counting identity violated: labeled={labeled}, copies={copies}, aut={aut_f}")
    return EmbeddingCount(labeled, copies, aut_f)

