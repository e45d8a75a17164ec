"""Brute-force counting of labeled copies and subgraph copies of a spanning
subgraph.

Two genuinely independent routes feed the identity
``labeled == copies * aut_f``: labeled copies come from bijection
backtracking, subgraph copies from edge-subset enumeration with an
isomorphism test, and aut_f from the naive permutation oracle.  The identity
is asserted on every call so a bug in any one route trips immediately.
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
    # earlier_nbrs[i]: neighbours of order[i] that are placed before it
    earlier = [[w for w in bits(f.rows[v]) if pos[w] < i] for i, v in enumerate(order)]

    image = [0] * n
    g_rows = g.rows
    count = 0

    def place(i: int, used: int):
        nonlocal count
        if i == n:
            count += 1
            return
        v = order[i]
        for u in range(n):
            if (used >> u) & 1:
                continue
            if all((g_rows[u] >> image[w]) & 1 for w in earlier[i]):
                image[v] = u
                place(i + 1, used | 1 << u)

    place(0, 0)
    return count


def _isomorphic_rows(rows_a, rows_b, n: int) -> bool:
    """Edge-set isomorphism test for two graphs given as bit rows with the
    same vertex count and edge count."""
    deg_a = [r.bit_count() for r in rows_a]
    deg_b = [r.bit_count() for r in rows_b]
    if sorted(deg_a) != sorted(deg_b):
        return False
    order = sorted(range(n), key=lambda v: -deg_a[v])
    pos = {v: i for i, v in enumerate(order)}
    earlier = [[w for w in range(n) if pos.get(w, n) < i] for i, _ in enumerate(order)]
    image = [0] * n

    def place(i: int, used: int) -> bool:
        if i == n:
            return True
        v = order[i]
        row_v = rows_a[v]
        for u in range(n):
            if (used >> u) & 1 or deg_b[u] != deg_a[v]:
                continue
            ok = True
            for w in earlier[i]:
                adj_a = (row_v >> w) & 1
                adj_b = (rows_b[u] >> image[w]) & 1
                if adj_a != adj_b:
                    ok = False
                    break
            if ok:
                image[v] = u
                if place(i + 1, used | 1 << u):
                    return True
        return False

    return place(0, 0)


def count_subgraph_copies(f: Graph, g: Graph) -> int:
    """Number of edge subsets of g isomorphic to f, by subset enumeration."""
    _check_pair(f, g)
    from itertools import combinations

    n = f.n
    f_deg_sorted = sorted(f.degrees)
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
        if _isomorphic_rows(rows, f.rows, n):
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

