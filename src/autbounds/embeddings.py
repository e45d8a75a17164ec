"""Brute-force counting of labeled copies and subgraph copies of spanning
trees.

Two genuinely independent routes feed the identity
``labeled == copies * aut_f``: labeled copies come from placement search over
bitmask candidate sets, the last vertex counted by popcount; sibling leaves
(k >= 2 leaves of the tree on one neighbour) are never placed, but counted
once the rest is, as k! times the ways to split the free vertices among them.
Subgraph copies come from one pass over the host's (n-1)-edge subsets: each
is matched by degree multiset, dropped by a flood fill if it has a cycle,
and counted under its tree class.  ``_tree_class`` classifies each labeled
tree once per process, by an edge-by-edge isomorphism test against the
first member of each known class with its degrees, never by the tree
certificates the census is checked against.
aut_f comes from the naive permutation oracle.
``count_embeddings`` checks the identity for every tree and raises
CountingIdentityError if it fails, so a bug in one route trips at once.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb, factorial

from .graphs import Graph, SizeLimitError, _walk, bits, rows_connected
from .automorphisms import aut_order_naive
from .trees import SpanningTree

EMBED_VERTEX_LIMIT = 8


class CountingIdentityError(RuntimeError):
    """labeled != copies * aut_f for some tree: one of the routes is wrong."""


@dataclass(frozen=True)
class EmbeddingCount:
    labeled: int     # vertex bijections mapping every edge of f to an edge of g
    copies: int      # distinct edge subsets of g isomorphic to f
    aut_f: int


def _check_pair(f: SpanningTree, g: Graph):
    if not isinstance(f, SpanningTree):
        raise TypeError(f"copies are counted for spanning trees, not {type(f).__name__}")
    if f.n != g.n:
        raise ValueError(f"spanning subgraph must share the vertex count ({f.n} != {g.n})")
    if g.n > EMBED_VERTEX_LIMIT:
        raise SizeLimitError(
            f"embedding counts are brute force; n={g.n} exceeds {EMBED_VERTEX_LIMIT}")


def count_labeled_embeddings(f: SpanningTree, g: Graph) -> int:
    """Number of bijections on the shared vertex set sending every edge of the
    tree f to an edge of g (non-edges of f are unconstrained)."""
    _check_pair(f, g)
    n = f.n
    f_rows = f.rows
    # Sibling leaves are not searched: the k >= 2 leaves of f on one
    # neighbour p.
    leaves = 0
    for v, row in enumerate(f_rows):
        if not row & (row - 1):
            leaves |= 1 << v
    groups = []        # (p, k) per sibling group
    grouped = 0
    factor = 1         # the k! orders inside each group
    for p, row in enumerate(f_rows):
        sib = row & leaves
        if sib & (sib - 1):
            groups.append((p, sib.bit_count()))
            grouped |= sib
            factor *= factorial(sib.bit_count())

    # One walk from the lowest vertex outside the groups (leaves, so the rest
    # of the tree stays connected) places each other vertex after its parent
    # up[i], its one earlier neighbour in f: a second would close a cycle.
    order, parent = _walk(f_rows, grouped)
    up = [parent[v] for v in order]

    image = [0] * n
    g_rows = g.rows
    last = len(order) - 1
    tail = _sibling_tail(order[last], groups, image, g_rows) if groups else None

    def place(i: int, free: int) -> int:
        # Candidates for order[i]: free vertices adjacent to its parent's image.
        cand = free & g_rows[image[up[i]]] if i else free
        if i == last:
            return cand.bit_count() if tail is None else tail(free, cand)
        v = order[i]
        count = 0
        for w in bits(cand):
            image[v] = w
            count += place(i + 1, free ^ (1 << w))
        return count

    return factor * place(0, (1 << n) - 1)


def _sibling_tail(x, groups, image, g_rows):
    """tail(free, cand): the number of ways to place x, the last searched
    vertex, on one of cand and to split the rest of free among the sibling
    groups.  Group (p, k) takes k free vertices adjacent in g to p's image,
    in any order (the caller's k! factor).  There are at most two groups:
    three need three parents and six leaves, past EMBED_VERTEX_LIMIT."""
    (p, k), *rest = groups
    if not rest and x != p:
        # x and the group share free: x must take the one free vertex the
        # group cannot, or any of cand when there is none.
        def tail(free: int, cand: int) -> int:
            bad = free & ~g_rows[image[p]]
            if bad & (bad - 1):
                return 0
            return (bad & cand if bad else cand).bit_count()
        return tail

    def split(free: int) -> int:
        avail = free & g_rows[image[p]]
        if not rest:
            return comb(avail.bit_count(), k)
        # Free vertices the second group cannot take are forced on the first;
        # it chooses the rest of its k from what both can take.
        other = free & g_rows[image[rest[0][0]]]
        if free & ~(avail | other):
            return 0
        forced = (free & ~other).bit_count()
        return comb((avail & other).bit_count(), k - forced) if forced <= k else 0

    def tail(free: int, cand: int) -> int:
        count = 0
        for w in bits(cand):
            image[x] = w
            count += split(free ^ (1 << w))
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


# sorted degrees -> [(class id, isomorphism test of the class's first
# member)]: at most one entry per isomorphism class of trees on
# n <= EMBED_VERTEX_LIMIT vertices (48), never trimmed, so an id is never
# reused and a tree dropped from _tree_class's cache comes back to its id.
_class_tests: dict[tuple[int, ...], list] = {}
_class_lock = threading.Lock()


@lru_cache(maxsize=32768)
def _tree_class(rows: tuple[int, ...]) -> int:
    """The class id of the labeled tree with these bit rows; isomorphic
    trees, and only they, share an id.  32768 entries hold every labeled
    tree on n <= 7 vertices (18,249)."""
    degs = [row.bit_count() for row in rows]
    # One lock over the scan and the append, so racing threads cannot open
    # two classes for one shape; it also guards each test's shared state.
    with _class_lock:
        members = _class_tests.setdefault(tuple(sorted(degs)), [])
        for cid, isomorphic in members:
            if isomorphic(rows, degs):
                return cid
        cid = sum(map(len, _class_tests.values()))
        members.append((cid, _isomorphism_test(Graph(len(rows), rows))))
        return cid


def count_subgraph_copies(trees: list[SpanningTree], g: Graph) -> list[int]:
    """Number of edge subsets of g isomorphic to each of the trees, from one
    pass over g's (n-1)-edge subsets.  A subset with the degree multiset of
    some tree is counted under its class, and every tree in that class gets
    the class's count, so isomorphic trees each get the full count."""
    for t in trees:
        _check_pair(t, g)
    n = g.n
    wanted = {tuple(sorted(t.degrees)) for t in trees}
    counts: Counter[int] = Counter()
    for subset in combinations(g.edges(), n - 1):
        degs = [0] * n
        rows = [0] * n
        for u, v in subset:
            degs[u] += 1
            degs[v] += 1
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        # n - 1 edges span a tree iff they connect all n vertices; only
        # trees enter the class table.
        if tuple(sorted(degs)) in wanted and rows_connected(rows):
            counts[_tree_class(tuple(rows))] += 1
    return [counts[_tree_class(t.rows)] for t in trees]


def count_embeddings(trees: list[SpanningTree], g: Graph) -> list[EmbeddingCount]:
    """Labeled copies, subgraph copies, and aut(t) of each tree, each computed
    by an independent route; their identity is verified before returning."""
    counts = []
    for t, copies in zip(trees, count_subgraph_copies(trees, g)):
        labeled = count_labeled_embeddings(t, g)
        aut_f = aut_order_naive(t)
        if labeled != copies * aut_f:
            raise CountingIdentityError(
                f"counting identity violated: labeled={labeled}, copies={copies}, aut={aut_f}")
        counts.append(EmbeddingCount(labeled, copies, aut_f))
    return counts
