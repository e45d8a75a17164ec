"""Brute-force counting of labeled copies and subgraph copies of a spanning
subgraph.

Two genuinely independent routes feed the identity
``labeled == copies * aut_f``: labeled copies come from placement search over
bitmask candidate sets, the last vertex counted by popcount; sibling leaves
(k >= 2 leaves of f on one neighbour, or k >= 2 isolated vertices) are never
placed, but counted once the rest is, as k! times the ways to split the free
vertices among them.  Subgraph copies come from edge-subset enumeration with
an edge-by-edge isomorphism test, and aut_f comes from the naive permutation
oracle.  ``count_embeddings`` checks the identity on every call and raises
RuntimeError if it fails, so a bug in any one route trips immediately.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial

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
    f_rows = f.rows
    # Sibling leaves are not searched: the k >= 2 leaves of f on one
    # neighbour p.  Isolated vertices count as leaves of a phantom vertex n,
    # which stays on its own image n, adjacent in g to every vertex.
    full = (1 << n) - 1
    leaves = isolated = 0
    for v, row in enumerate(f_rows):
        if not row & (row - 1):
            leaves |= 1 << v
            if not row:
                isolated |= 1 << v
    groups = []        # (p, k) per sibling group
    grouped = 0
    factor = 1         # the k! orders inside each group
    for p, row in enumerate(f_rows + (isolated,)):
        sib = row & leaves
        if sib & (sib - 1):
            groups.append((p, sib.bit_count()))
            grouped |= sib
            factor *= factorial(sib.bit_count())

    # Place the other vertices component by component so each new vertex is
    # constrained by an already-placed neighbour whenever possible.
    order: list[int] = []
    placed = grouped
    while placed != full:
        low = ~placed & (placed + 1)
        placed |= low
        queue = [low.bit_length() - 1]
        for v in queue:
            new = f_rows[v] & ~placed
            placed |= new
            queue.extend(bits(new))
        order += queue
    if not order:      # f has no edges
        return factor
    # earlier[i]: neighbours of order[i] that are placed before it
    earlier = []
    before = 0
    for v in order:
        earlier.append(list(bits(f_rows[v] & before)))
        before |= 1 << v

    image = [0] * n + [n]
    g_rows = g.rows + (full,)
    last = len(order) - 1
    tail = _sibling_tail(order[last], groups, image, g_rows) if groups else None

    def place(i: int, free: int) -> int:
        # Candidates for order[i]: free vertices adjacent in g to the image of
        # every earlier-placed neighbour.
        cand = free
        for w in earlier[i]:
            cand &= g_rows[image[w]]
        if i == last:
            return cand.bit_count() if tail is None else tail(free, cand)
        v = order[i]
        count = 0
        while cand:
            low = cand & -cand
            image[v] = low.bit_length() - 1
            count += place(i + 1, free ^ low)
            cand ^= low
        return count

    return factor * place(0, full)


def _sibling_tail(x, groups, image, g_rows):
    """tail(free, cand): the number of ways to place x, the last searched
    vertex, on one of cand and to split the rest of free among the sibling
    groups.  Group (p, k) takes k free vertices adjacent in g to p's image,
    in any order (the caller's k! factor)."""
    from itertools import combinations

    def split(free: int, j: int = 0) -> int:
        p, k = groups[j]
        avail = free & g_rows[image[p]]
        if j == len(groups) - 1:
            return comb(avail.bit_count(), k)
        if j == len(groups) - 2:
            # Free vertices the last group cannot take are forced on this
            # one; it chooses the rest of its k from what both can take.
            other = free & g_rows[image[groups[-1][0]]]
            if free & ~(avail | other):
                return 0
            forced = (free & ~other).bit_count()
            return comb((avail & other).bit_count(), k - forced) if forced <= k else 0
        return sum(split(free & ~sum(1 << w for w in chosen), j + 1)
                   for chosen in combinations(bits(avail), k))

    if len(groups) == 1 and x != groups[0][0]:
        # x and the group share free: x must take the one free vertex the
        # group cannot, or any of cand when there is none.
        p = groups[0][0]

        def tail(free: int, cand: int) -> int:
            bad = free & ~g_rows[image[p]]
            if bad & (bad - 1):
                return 0
            return (bad & cand if bad else cand).bit_count()
        return tail

    def tail(free: int, cand: int) -> int:
        count = 0
        while cand:
            low = cand & -cand
            image[x] = low.bit_length() - 1
            count += split(free ^ low)
            cand ^= low
        return count
    return tail


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

