"""Exhaustive small-graph corpora, generated internally.

Graphs on n vertices come from graphs on n-1 vertices by attaching a new
vertex to a neighbour subset, deduplicated up to isomorphism.  Only the least
subset in each orbit of Aut(base) on subsets is tried (orbit-pruned
augmentation, McKay, "Isomorph-free exhaustive generation", J. Algorithms
1998): the orbits are union-find classes over the generators ``aut_order``
returns, and any other subset of the orbit gives a graph isomorphic to an
earlier candidate from the same base, so first-seen-wins output is unchanged.
Of those, only the subsets that give the new vertex maximum degree are tried
(McKay's first-level invariant, the degree).  This relies on the bases coming
in nondecreasing edge count, which ``all_graphs(n - 1)``'s sort by
``(e, rows)`` guarantees.  If X = B + S has a vertex v other than the new one
of degree greater than |S|, then X - v has fewer edges than B, so it is
isomorphic to an earlier base, and an orbit-least augmentation of that base
isomorphic to X comes before X.  So the first candidate of each class, in
the orbit-pruned order, has a new vertex of maximum degree, and dropping the
others keeps every kept graph and its order.  Every base keeps its full
subset, whose size n - 1 exceeds any degree in the base.
Candidates are bucketed on the edge count and the trace of the
unit-partition refinement, an isomorphism invariant that already carries the
degrees and the refined cell sizes.  A kept graph's first path is built once
from the equitable cells of its bucket key, and each candidate is compared
with its bucket-mates by the one-sided search of ``aut_order``.  Known class
counts double as integrity checks for callers.
"""

from __future__ import annotations

from functools import lru_cache

from .graphs import Graph, SizeLimitError, _classes, _union, is_connected
from .automorphisms import _first_path, _refine, _search, aut_order

# Non-isomorphic simple graphs / connected graphs on n vertices
# (OEIS A000088 / A001349).
ALL_GRAPH_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
CONNECTED_GRAPH_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}

GENERATION_LIMIT = 8


def _least_masks(base: Graph) -> list[int]:
    """The least vertex subset (as a bitmask) in each orbit of Aut(base) on
    subsets, in increasing order."""
    size = 1 << base.n
    parent = list(range(size))
    for perm in aut_order(base).generators:
        image = [0] * size
        for mask in range(1, size):
            low = mask & -mask
            image[mask] = image[mask ^ low] | 1 << perm[low.bit_length() - 1]
            _union(parent, mask, image[mask])
    return [c[0] for c in _classes(parent)]


@lru_cache(maxsize=None)
def all_graphs(n: int) -> tuple[Graph, ...]:
    """All simple graphs on n vertices up to isomorphism, deterministic order.
    n above GENERATION_LIMIT is a SizeLimitError, like every other size cap."""
    if not 1 <= n <= GENERATION_LIMIT:
        error = SizeLimitError if n > GENERATION_LIMIT else ValueError
        raise error(f"corpus generation supports 1 <= n <= {GENERATION_LIMIT}")
    if n == 1:
        return (Graph(1, (0,)),)
    full = [(1 << n) - 1]
    new = 1 << (n - 1)
    buckets: dict[tuple, list[tuple]] = {}
    kept: list[tuple] = []
    for base in all_graphs(n - 1):
        delta = base.delta_max
        top = sum(1 << v for v, d in enumerate(base.degrees) if d == delta)
        for nbrs in _least_masks(base):
            k = nbrs.bit_count()
            if k < delta or k == delta and nbrs & top:
                continue  # the new vertex would not have maximum degree
            rows = tuple(row | new if (nbrs >> w) & 1 else row
                         for w, row in enumerate(base.rows)) + (nbrs,)
            e = base.e + k
            cells, trace = _refine(rows, full)
            bucket = buckets.setdefault((e, trace), [])
            if any(_search(seen, rows, first, 0, cells) is not None
                   for seen, first in bucket):
                continue
            bucket.append((rows, _first_path(rows, cells)))
            kept.append((e, rows))
    kept.sort()
    return tuple(Graph(n, rows) for _, rows in kept)


@lru_cache(maxsize=None)
def connected_graphs(n: int) -> tuple[Graph, ...]:
    """All connected graphs on n vertices up to isomorphism."""
    return tuple(g for g in all_graphs(n) if is_connected(g))
