"""Exact automorphism group order, orbits, and generators.

The main routine runs a backtracking search pruned by equitable partition
refinement with a queue of splitter cells: a cell is split by its vertices'
neighbour counts into one splitter at a time, only the non-singleton cells
the splitter's neighbourhood meets are visited, a splitter holding most of
the vertices is counted from its complement, and only the cells a split
changed are queued as new splitters.  It fixes a base once, the first path:
one individualised vertex per level with its refinement trace.  The search is
one-sided: it refines each child on the other side once and goes down only
where the child's trace equals the first path's.  A bijection is checked
row by row, each distinct row mapped once and from its smaller side (its
neighbours or its non-neighbours).  The group order is the
product over levels of the number of vertices the level's base point can be
sent to by an automorphism fixing the earlier base points (the chain of point
stabilisers), so it is exact without enumerating group elements: 64! is fine.

The search has one behaviour, for automorphisms and isomorphism alike: each
level first tries the aligned bijection, each cell of the first path's
partition sent onto the same-index cell of side b's, in increasing order,
and branches only if that does not map; the discrete leaf is the last level.
In an automorphism search a bijection that maps is exactly the leaf the
descent would reach: refinement ignores vertex names, so it maps the first
path below this level onto a path with the same traces, and since it
increases on every cell, and later cells are subsets of these, it sends each
later base point to the lowest vertex of its image cell, the child the
descent tries first.  Corpus deduplication asks only whether one exists.

Levels are processed deepest first, with one union-find over the generators
found so far (orbit pruning, as in nauty: McKay & Piperno, "Practical graph
isomorphism, II", J. Symb. Comput. 2014).  Those generators fix every earlier
base point, so a vertex already in the base point's class is in its orbit and
needs no search.  Each kept generator joins two classes, so there are at most
n - 1 of them, and the final classes are the orbits.  Pruning does not remove
the exponential worst case of the search itself.

``aut_order_naive`` is the independent cross-check: an exhaustive count over
the permutation tree that places vertices in index order and drops a prefix at
its first broken adjacency.  It uses no refinement and no orbits, so its worst
case, a group as large as S_n (K_n or the empty graph), still visits all n!
leaves, which is why it refuses n > 8.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache

from .graphs import Graph, SizeLimitError, _classes, _root, _union, bits

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
# FIFO queue of splitter masks (McKay & Piperno 2014).  Every part of a split
# is queued: Hopcroft's "skip the largest subcell" rule would change the
# traces, so only his smaller-side count is used, below.
#
# A popped splitter W splits every cell by the neighbour count into W; only
# the vertices in N(W) are counted, the rest count 0, so only the
# non-singleton cells that meet N(W) can split.  Those are found in a list of
# the non-singleton cells kept in index order, the live list, so a splitter
# never scans the singletons; the loop ends when the live list is empty, at a
# discrete partition.  Subcells are ordered by count, which is deterministic
# and isomorphism-invariant, replace the cell in place and join the back of
# the queue, so the trace of splits, each at its cell's index at the time (a
# C-level list.index), is an isomorphism invariant that the search compares.
# A final cell was queued when it was made and has not split since, so the
# fixed point is equitable.
#
# When every non-singleton cell is degree-uniform, a splitter W holding more
# than half the vertices is counted from the smaller side (Hopcroft 1971): a
# vertex of degree d with c neighbours in V - W has d - c in W, so the cells
# N(V - W) meets split into the same parts, ordered by d - c, and the rest
# do not split.  Uniformity is declared by the caller, not checked: an
# equitable partition is degree-uniform, and so is one with a vertex
# individualised, which is what ``_split_off`` refines.  There {v} alone is
# the only splitter needed, since the counts into the rest of v's old cell
# are the old counts minus adjacency to v.
# ---------------------------------------------------------------------------

def _refine(rows, cells, splitters=None, uniform=False):
    """Refine to a fixed point, starting from the given splitter masks (every
    cell when None); returns (cells, trace of splits).  ``uniform`` declares
    that the vertices of each non-singleton cell share one degree."""
    cells = list(cells)
    live = [cell for cell in cells if cell & (cell - 1)]
    queue = deque(cells if splitters is None else splitters)
    trace = []
    n = len(rows)
    full = (1 << n) - 1
    while queue and live:
        w = queue.popleft()
        single = w & (w - 1) == 0
        flip = False
        if single:  # kept: counting {u} as any splitter costs analyze-hard report_p50_ms 11 %
            nw = rows[w.bit_length() - 1]
        else:
            if uniform and 2 * w.bit_count() > n:
                flip = True
                w ^= full  # count into V - W
            nw = 0
            x = w
            while x:  # by hand: splitters pass bit 8 at n >= 9, where bits() is a generator
                low = x & -x
                nw |= rows[low.bit_length() - 1]
                x ^= low
        for cell in [cell for cell in live if cell & nw]:
            hit = cell & nw
            if single:  # W = {u}: the neighbours of u count 1, the rest 0
                if hit == cell:
                    continue
                ordered = [(0, cell ^ hit), (1, hit)]
            else:
                counts = {0: cell ^ hit} if hit != cell else {}
                x = hit
                while x:  # by hand too: bits() here and in _is_mapping cost analyze-hard 5-7 %
                    low = x & -x
                    c = (rows[low.bit_length() - 1] & w).bit_count()
                    counts[c] = counts.get(c, 0) | low
                    x ^= low
                if len(counts) == 1:
                    continue
                if flip:
                    d = rows[(cell & -cell).bit_length() - 1].bit_count()
                    ordered = [(d - c, m) for c, m in sorted(counts.items(), reverse=True)]
                else:
                    ordered = sorted(counts.items())
            parts = [m for _, m in ordered]
            ci = cells.index(cell)
            cells[ci:ci + 1] = parts
            li = live.index(cell)
            live[li:li + 1] = [m for m in parts if m & (m - 1)]
            queue.extend(parts)
            trace.append((ci, tuple([(c, m.bit_count()) for c, m in ordered])))
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


def _split_off(rows, cells, ci, v):
    """Individualise v in cell ci of the equitable partition cells and refine
    by {v}; every cell stays degree-uniform, so _refine may count a large
    splitter from its complement."""
    return _refine(rows, _individualized(cells, ci, v), (1 << v,), True)


def _is_mapping(rows_a, rows_b, perm) -> bool:
    """Whether the bijection perm maps each row of rows_a onto the row of
    rows_b at its image.  A vertex v with more than n/2 neighbours maps its
    non-neighbours other than v instead, compared with perm[v]'s: exact
    because perm is a bijection.  Each distinct mask (twins share one) is
    mapped once."""
    n = len(rows_a)
    full = (1 << n) - 1
    image = [1 << pv for pv in perm]  # the bit of each vertex's image
    images = {}
    for v, row in enumerate(rows_a):
        pv = perm[v]
        if 2 * row.bit_count() > n:
            mask = full ^ row ^ (1 << v)
            want = full ^ rows_b[pv] ^ (1 << pv)
        else:
            mask = row
            want = rows_b[pv]
        img = images.get(mask)
        if img is None:
            img = 0
            x = mask
            while x:  # by hand: rows pass bit 8 at n >= 9; bits() cost analyze-hard 5-7 %
                low = x & -x
                img |= image[low.bit_length() - 1]
                x ^= low
            images[mask] = img
        if img != want:
            return False
    return True


def _first_path(rows, cells):
    """From an equitable partition, individualise the lowest vertex b of the
    target cell at every level and refine by {b}; returns each level's
    (cells, ti, b, trace of the refined child) and the discrete leaf."""
    levels = []
    while (ti := _target_cell(cells)) is not None:
        b = (cells[ti] & -cells[ti]).bit_length() - 1
        child, trace = _split_off(rows, cells, ti, b)
        levels.append((cells, ti, b, trace))
        cells = child
    return levels, cells


def _aligned(n, cells_a, cells_b):
    """The bijection of range(n) that sends each cell of cells_a onto the
    same-index cell of cells_b, in increasing order."""
    perm = [0] * n
    for ca, cb in zip(cells_a, cells_b):
        if ca & (ca - 1):
            for u, v in zip(bits(ca), bits(cb)):
                perm[u] = v
        else:  # a singleton, every cell of a leaf: no bit walk, 3x faster at n = 8
            perm[ca.bit_length() - 1] = cb.bit_length() - 1
    return tuple(perm)


def _search(rows_a, rows_b, first, level, cells_b):
    """Find a bijection of rows_a onto rows_b, or None, that maps the first
    path of rows_a from ``level`` down onto a path below cells_b, an
    equitable partition of rows_b that matches that level cell for cell.
    Each level tries the aligned bijection before it branches."""
    levels, leaf = first
    cells_a = levels[level][0] if level < len(levels) else leaf
    perm = _aligned(len(rows_a), cells_a, cells_b)
    if _is_mapping(rows_a, rows_b, perm):
        return perm
    if level == len(levels):
        return None
    _, ti, _, trace = levels[level]
    for y in bits(cells_b[ti]):
        child, tr = _split_off(rows_b, cells_b, ti, y)
        if tr == trace:
            found = _search(rows_a, rows_b, first, level + 1, child)
            if found is not None:
                return found
    return None


@lru_cache(maxsize=512)
def aut_order(g: Graph) -> AutResult:
    """Exact automorphism group order, orbit partition, and generators."""
    n, rows = g.n, g.rows
    first = _first_path(rows, _refine(rows, [(1 << n) - 1])[0])
    # Deepest level first: every generator found so far fixes this level's
    # earlier base points, so a w already in b's class needs no search.
    parent = list(range(n))
    order = 1
    gens: list[tuple[int, ...]] = []
    for level, (cells, ti, b, trace) in reversed(list(enumerate(first[0]))):
        rb = _root(parent, b)
        for w in bits(cells[ti]):
            if _root(parent, w) == rb:
                continue
            child, tr = _split_off(rows, cells, ti, w)
            perm = _search(rows, rows, first, level + 1, child) if tr == trace else None
            if perm is not None:
                gens.append(perm)
                for v, pv in enumerate(perm):
                    if v != pv:
                        _union(parent, v, pv)
                rb = _root(parent, b)
        order *= sum(1 for w in bits(cells[ti]) if _root(parent, w) == rb)
    return AutResult(order, tuple(map(tuple, _classes(parent))), tuple(gens))


def aut_order_naive(g: Graph) -> int:
    """Count adjacency-preserving permutations by an exhaustive walk over the
    permutation tree that drops a prefix at its first broken adjacency."""
    n = g.n
    if n > NAIVE_VERTEX_LIMIT:
        raise SizeLimitError(
            f"naive oracle walks a permutation tree of up to n! leaves; "
            f"n={n} exceeds {NAIVE_VERTEX_LIMIT}")
    rows = g.rows
    image = [0] * n  # the bit of each placed vertex's image

    def extend(u, used):
        # u may go to x only if x's neighbours among the images taken so far
        # are exactly the images of u's earlier neighbours.
        want = 0
        for w in bits(rows[u] & ((1 << u) - 1)):
            want |= image[w]
        count = 0
        for x in bits(((1 << n) - 1) & ~used):
            if rows[x] & used == want:
                if u == n - 1:
                    count += 1
                else:
                    image[u] = 1 << x
                    count += extend(u + 1, used | 1 << x)
        return count

    return extend(0, 0)
