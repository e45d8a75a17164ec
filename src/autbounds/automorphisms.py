"""Exact automorphism group order, orbits, and generators.

The main routine runs a backtracking search pruned by equitable partition
refinement with a queue of splitter cells: a cell is split by its vertices'
neighbour counts into one splitter at a time, and only the cells a split
changed are queued as new splitters.  It first fixes a base, one
individualised vertex per level, and then counts along the chain of point
stabilisers: the group order is the product over levels of the number of
vertices the level's base point can be sent to by an automorphism fixing the
earlier base points.  That keeps the order exact without ever enumerating
group elements, so orders far beyond enumeration range (64! and the like) are
fine.

Levels are processed deepest first, with one union-find over the generators
found so far (orbit pruning, as in nauty: McKay & Piperno, "Practical graph
isomorphism, II", J. Symb. Comput. 2014).  Those generators fix every earlier
base point, so a vertex already in the base point's class is in its orbit and
needs no search.  Each kept generator joins two classes, so there are at most
n - 1 of them, and the final classes are the orbits.  Pruning does not remove
the exponential worst case of the search itself.

``aut_order_naive`` is the independent cross-check: it literally walks all n!
permutations, which is why it refuses n > 8.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

from .graphs import Graph, SizeLimitError, _root, _union, bits

NAIVE_VERTEX_LIMIT = 8


@dataclass(frozen=True)
class AutResult:
    """Group order, vertex orbits, and the generators found by the search."""

    order: int
    orbits: tuple[tuple[int, ...], ...]
    generators: tuple[tuple[int, ...], ...]

    def orbit_of(self, v: int) -> tuple[int, ...]:
        for orb in self.orbits:
            if v in orb:
                return orb
        raise ValueError(f"vertex {v} not in any orbit")


# ---------------------------------------------------------------------------
# Equitable refinement on ordered partitions of bitmask cells, driven by a
# FIFO queue of splitter masks (McKay & Piperno 2014, without Hopcroft's
# "skip the largest subcell" rule).
#
# A popped splitter W splits every cell by the neighbour count into W; only
# the vertices in N(W) are counted, the rest count 0.  Subcells are ordered
# by count, which is deterministic and isomorphism-invariant, replace the
# cell in place and join the back of the queue, so two sides of a search
# refine in lockstep.  A final cell was queued when it was made and has not
# split since, so the fixed point is equitable.  Individualising v out of an
# equitable partition leaves {v} the only splitter needed: the counts into
# the rest of its old cell are the old counts minus adjacency to v.
# ---------------------------------------------------------------------------

def _refine(rows, cells, splitters=None):
    """Refine to a fixed point, starting from the given splitter masks (every
    cell when None); returns (cells, trace of splits)."""
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


def _target_cell(cells):
    """Index of the first largest non-singleton cell, or None if discrete."""
    best = None
    best_size = 1
    for i, c in enumerate(cells):
        s = c.bit_count()
        if s > best_size:
            best_size = s
            best = i
    return best


def _individualized(cells, ci, v):
    out = list(cells)
    out[ci:ci + 1] = [1 << v, cells[ci] & ~(1 << v)]
    return out


def _is_mapping(rows_a, rows_b, perm) -> bool:
    for v, row in enumerate(rows_a):
        img = 0
        for w in bits(row):
            img |= 1 << perm[w]
        if img != rows_b[perm[v]]:
            return False
    return True


def _search(rows_a, rows_b, cells_a, cells_b, splitters_a=None, splitters_b=None):
    """Find a bijection of rows_a onto rows_b matching the paired ordered
    partitions cell-for-cell, or None.  rows_a may equal rows_b.  The
    splitters are passed to ``_refine`` (every cell when None)."""
    cells_a, tr_a = _refine(rows_a, cells_a, splitters_a)
    cells_b, tr_b = _refine(rows_b, cells_b, splitters_b)
    if tr_a != tr_b:
        return None
    ti = _target_cell(cells_a)
    if ti is None:
        perm = [0] * len(rows_a)
        for ca, cb in zip(cells_a, cells_b):
            perm[ca.bit_length() - 1] = cb.bit_length() - 1
        perm = tuple(perm)
        return perm if _is_mapping(rows_a, rows_b, perm) else None
    x = (cells_a[ti] & -cells_a[ti]).bit_length() - 1
    for y in bits(cells_b[ti]):
        found = _search(rows_a, rows_b,
                        _individualized(cells_a, ti, x),
                        _individualized(cells_b, ti, y),
                        (1 << x,), (1 << y,))
        if found is not None:
            return found
    return None


def _orbits_from_partition(parent):
    groups: dict[int, list[int]] = {}
    for v in range(len(parent)):
        groups.setdefault(_root(parent, v), []).append(v)
    return tuple(sorted((tuple(sorted(grp)) for grp in groups.values()), key=min))


@lru_cache(maxsize=512)
def aut_order(g: Graph) -> AutResult:
    """Exact automorphism group order, orbit partition, and generators."""
    n, rows = g.n, g.rows
    cells, _ = _refine(rows, [(1 << n) - 1])
    levels = []
    while (ti := _target_cell(cells)) is not None:
        b = (cells[ti] & -cells[ti]).bit_length() - 1
        levels.append((cells, ti, b))
        cells, _ = _refine(rows, _individualized(cells, ti, b), (1 << b,))
    # Deepest level first: every generator found so far fixes this level's
    # earlier base points, so a w already in b's class needs no search.
    parent = list(range(n))
    order = 1
    gens: list[tuple[int, ...]] = []
    for cells, ti, b in reversed(levels):
        for w in bits(cells[ti]):
            if _root(parent, w) == _root(parent, b):
                continue
            perm = _search(rows, rows,
                           _individualized(cells, ti, b),
                           _individualized(cells, ti, w),
                           (1 << b,), (1 << w,))
            if perm is not None:
                gens.append(perm)
                for v in range(n):
                    _union(parent, v, perm[v])
        rb = _root(parent, b)
        order *= sum(1 for w in bits(cells[ti]) if _root(parent, w) == rb)
    return AutResult(order, _orbits_from_partition(parent), tuple(gens))


def aut_order_naive(g: Graph) -> int:
    """Count adjacency-preserving permutations by walking all n! of them."""
    if g.n > NAIVE_VERTEX_LIMIT:
        raise SizeLimitError(
            f"naive oracle enumerates n! permutations; n={g.n} exceeds {NAIVE_VERTEX_LIMIT}")
    rows = g.rows
    edge_list = tuple((u, v) for u in range(g.n) for v in bits(rows[u]) if u < v)
    count = 0
    for p in permutations(range(g.n)):
        for u, v in edge_list:
            if not (rows[p[u]] >> p[v]) & 1:
                break
        else:
            count += 1
    return count

