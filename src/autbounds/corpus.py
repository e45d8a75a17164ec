"""Exhaustive small-graph corpora, generated internally.

Graphs on n vertices come from graphs on n-1 vertices by attaching a new
vertex to a neighbour subset, deduplicated up to isomorphism.  Only the least
subset in each orbit of Aut(base) on subsets is tried (orbit-pruned
augmentation, McKay, "Isomorph-free exhaustive generation", J. Algorithms
1998): the orbits are union-find classes over the generators ``aut_order``
returns, and any other subset of the orbit gives a graph isomorphic to an
earlier candidate from the same base, so first-seen-wins output is unchanged.
Candidates are bucketed on the edge count and the trace of the
unit-partition refinement, an isomorphism invariant that already carries the
degrees and the refined cell sizes; bucket-mates are compared with the same
search that ``aut_order`` uses, started from the equitable cells the bucket
key already computed.  Known class counts double as integrity checks for
callers.
"""

from __future__ import annotations

from functools import lru_cache

from .graphs import Graph, _root, _union, is_connected
from .automorphisms import _refine, _search, aut_order

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
    least: dict[int, int] = {}
    for mask in range(size):
        least.setdefault(_root(parent, mask), mask)
    return list(least.values())


@lru_cache(maxsize=None)
def all_graphs(n: int) -> tuple[Graph, ...]:
    """All simple graphs on n vertices up to isomorphism, deterministic order."""
    if not 1 <= n <= GENERATION_LIMIT:
        raise ValueError(f"corpus generation supports 1 <= n <= {GENERATION_LIMIT}")
    if n == 1:
        return (Graph(1, (0,)),)
    full = [(1 << n) - 1]
    new = 1 << (n - 1)
    buckets: dict[tuple, list[tuple]] = {}
    kept: list[tuple] = []
    for base in all_graphs(n - 1):
        for nbrs in _least_masks(base):
            rows = tuple(row | new if (nbrs >> w) & 1 else row
                         for w, row in enumerate(base.rows)) + (nbrs,)
            e = base.e + nbrs.bit_count()
            cells, trace = _refine(rows, full)
            bucket = buckets.setdefault((e, trace), [])
            if any(_search(rows, seen, cells, seen_cells) is not None
                   for seen, seen_cells in bucket):
                continue
            bucket.append((rows, cells))
            kept.append((e, rows))
    kept.sort()
    return tuple(Graph(n, rows) for _, rows in kept)


@lru_cache(maxsize=None)
def connected_graphs(n: int) -> tuple[Graph, ...]:
    """All connected graphs on n vertices up to isomorphism."""
    return tuple(g for g in all_graphs(n) if is_connected(g))
