"""Exhaustive small-graph corpora, generated internally.

Graphs on n vertices come from graphs on n-1 vertices by attaching a new
vertex to every neighbour subset, deduplicated up to isomorphism.  Candidates
are bucketed on the edge count and the trace of the unit-partition
refinement, an isomorphism invariant that already carries the degrees and the
refined cell sizes; bucket-mates are compared with the same search that
``aut_order`` uses.  Known class counts double as integrity checks for
callers.
"""

from __future__ import annotations

from functools import lru_cache

from .graphs import Graph, is_connected
from .automorphisms import _refine, _search

# Non-isomorphic simple graphs / connected graphs on n vertices.
ALL_GRAPH_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
CONNECTED_GRAPH_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}

GENERATION_LIMIT = 7


@lru_cache(maxsize=None)
def all_graphs(n: int) -> tuple[Graph, ...]:
    """All simple graphs on n vertices up to isomorphism, deterministic order."""
    if not 1 <= n <= GENERATION_LIMIT:
        raise ValueError(f"corpus generation supports 1 <= n <= {GENERATION_LIMIT}")
    if n == 1:
        return (Graph(1, (0,)),)
    full = [(1 << n) - 1]
    buckets: dict[tuple, list[Graph]] = {}
    out: list[Graph] = []
    for base in all_graphs(n - 1):
        for nbrs in range(1 << (n - 1)):
            rows = list(base.rows) + [nbrs]
            for w in range(n - 1):
                if (nbrs >> w) & 1:
                    rows[w] |= 1 << (n - 1)
            cand = Graph(n, tuple(rows))
            bucket = buckets.setdefault((cand.e, _refine(cand.rows, full)[1]), [])
            if any(_search(cand.rows, seen.rows, full, full) is not None for seen in bucket):
                continue
            bucket.append(cand)
            out.append(cand)
    out.sort(key=lambda g: (g.e, g.rows))
    return tuple(out)


@lru_cache(maxsize=None)
def connected_graphs(n: int) -> tuple[Graph, ...]:
    """All connected graphs on n vertices up to isomorphism."""
    return tuple(g for g in all_graphs(n) if is_connected(g))
