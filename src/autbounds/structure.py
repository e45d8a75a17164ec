"""Structural parameters behind the conditional bounds: the exact minimum
vertex-disjoint path cover (a Hamiltonian path exists iff it is 1), and the
smallest m for which the graph contains no induced star with m leaves.

The path cover of a forest comes from a linear leaf-up rule.  Any other graph
gets a certificate search first: a depth-first search for a Hamiltonian path,
capped at a fixed number of search nodes.  A path it finds proves p = 1.
Otherwise one Held-Karp-style DP over vertex subsets, O(2^n * n) steps and two
tables of 2^n entries, gives the exact p.  Exact and exponential, hence the
hard cap.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, SizeLimitError, _walk, bits

STRUCTURE_VERTEX_LIMIT = 20

# Search nodes per n^2 that the Hamiltonian-path search may spend before the
# DP runs.  Polynomial on purpose: inputs with p >= 2 spend the whole budget,
# so one that grew with the DP's n * 2^n would add a fixed share of the DP's
# cost to every one of them.
_SEARCH_NODES_PER_N2 = 50


@dataclass(frozen=True)
class PathCoverResult:
    """Minimum number of vertex-disjoint covering paths plus one witness."""

    p: int
    witness: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class StarFreeParam:
    """Smallest m >= 2 with no induced star of m leaves.

    The witness is a vertex together with an independent set of m_min - 1 of
    its neighbours; it is None only for edgeless graphs, where no vertex has a
    neighbour at all.
    """

    m_min: int
    witness_vertex: int | None
    witness_set: tuple[int, ...] | None


def _check_size(g: Graph):
    if g.n > STRUCTURE_VERTEX_LIMIT:
        raise SizeLimitError(
            f"exact bitmask DP is capped at n <= {STRUCTURE_VERTEX_LIMIT}, got n={g.n}")


def _hamiltonian_path(g: Graph, budget: int) -> tuple[tuple[int, ...] | None, int]:
    """(a Hamiltonian path or None, search nodes spent) from a depth-first
    search of at most budget nodes, one node per vertex put on the path.

    The path starts at a vertex of least degree (the lowest such index) and
    is extended by the unvisited neighbour with the fewest unvisited
    neighbours first (Warnsdorff's rule), ties to the lower index.  None
    proves nothing: the budget ran out, or no Hamiltonian path starts there.
    """
    rows = g.rows
    degrees = g.degrees
    start = degrees.index(min(degrees))
    path = []
    spent = 0

    def extend(v: int, free: int) -> bool:
        nonlocal spent
        if spent == budget:
            return False
        spent += 1
        path.append(v)
        if not free:
            return True
        nbrs = sorted(bits(rows[v] & free), key=lambda w: (rows[w] & free).bit_count())
        for w in nbrs:
            if extend(w, free ^ (1 << w)):
                return True
        path.pop()
        return False

    found = extend(start, ((1 << g.n) - 1) ^ (1 << start))
    return (tuple(path) if found else None), spent


def _forest_path_cover(g: Graph) -> PathCoverResult | None:
    """The exact path cover of a forest, or None if g has a cycle.

    Each component is walked breadth first from its lowest vertex, and the
    vertices are taken back to front, children before their parent.  A
    vertex links to its parent while both have fewer than two links, so
    each vertex joins at most two child paths that still end at it, which
    links as many edges as any path cover can (Goodman & Hedetniemi 1974,
    Hamiltonian completion of trees).  The links are the paths, so
    p = n - links.
    """
    n = g.n
    if g.e >= n:  # a forest has n - components edges
        return None
    order, parent = _walk(g.rows)
    if g.e != n - parent.count(-1):
        return None
    links = [0] * n
    for v in reversed(order):
        u = parent[v]
        if u >= 0 and links[v].bit_count() < 2 and links[u].bit_count() < 2:
            links[v] |= 1 << u
            links[u] |= 1 << v
    paths, done = [], 0
    for v in range(n):
        if done >> v & 1 or links[v].bit_count() == 2:
            continue
        path = [v]
        done |= 1 << v
        while nxt := links[path[-1]] & ~done:
            path.append(nxt.bit_length() - 1)
            done |= nxt
        paths.append(tuple(path))
    return PathCoverResult(len(paths), tuple(paths))


def path_cover_number(g: Graph) -> PathCoverResult:
    """Exact minimum vertex-disjoint path cover with a verifying witness.

    A forest's cover comes from ``_forest_path_cover``.  A Hamiltonian path
    found by ``_hamiltonian_path`` within ``_SEARCH_NODES_PER_N2 * n^2``
    search nodes is the witness of p = 1.  Otherwise ``_path_cover_dp``
    gives p.
    """
    _check_size(g)
    forest = _forest_path_cover(g)
    if forest is not None:
        return forest
    path, _ = _hamiltonian_path(g, _SEARCH_NODES_PER_N2 * g.n * g.n)
    if path is not None:
        return PathCoverResult(1, (path,))
    return _path_cover_dp(g)


def _path_cover_dp(g: Graph) -> PathCoverResult:
    """Exact minimum path cover of any graph by one pass over vertex subsets
    in increasing order.  It keeps cover[mask], the fewest paths covering
    mask, and ends[mask], every vertex that ends a path in some cover of that
    size.  Dropping the end v of a path leaves mask ^ v covered by as many
    paths if v had a neighbour in ends[mask ^ v], and by one fewer otherwise.
    Larger covers never need keeping: a minimum cover plus one fresh path
    does at least as well.  The witness is read back from the same two
    tables.
    """
    n, rows = g.n, g.rows
    full = (1 << n) - 1
    nbrs = {1 << v: rows[v] for v in range(n)}  # keyed by bit: no index lookups
    cover = [0] * (full + 1)
    ends = [0] * (full + 1)
    for mask in range(1, full + 1):
        best, tips, rest = n + 1, 0, mask
        while rest:  # by hand: masks pass bit 8 at n >= 9; bits() cost 47 % at n = 16
            low = rest & -rest
            rest ^= low
            prev = mask ^ low
            c = cover[prev] if nbrs[low] & ends[prev] else cover[prev] + 1
            if c < best:
                best, tips = c, low
            elif c == best:
                tips |= low
        cover[mask] = best
        ends[mask] = tips
    paths, path, mask, tips = [], [], full, ends[full]
    while mask:
        v = (tips & -tips).bit_length() - 1
        path.append(v)
        prev = mask ^ (1 << v)
        if cover[prev] == cover[mask]:
            tips = rows[v] & ends[prev]
        else:
            paths.append(tuple(path))
            path, tips = [], ends[prev]
        mask = prev
    return PathCoverResult(cover[full], tuple(paths))


def _max_independent_set(rows, mask: int) -> tuple[int, int]:
    """Size and one witness mask of a maximum independent set inside mask."""
    if not mask:
        return 0, 0
    v = (mask & -mask).bit_length() - 1
    s_out, w_out = _max_independent_set(rows, mask ^ (1 << v))
    if not rows[v] & mask:  # no neighbour left: taking v always wins
        return s_out + 1, w_out | 1 << v
    s_in, w_in = _max_independent_set(rows, mask & ~rows[v] & ~(1 << v))
    s_in += 1
    w_in |= 1 << v
    return (s_in, w_in) if s_in > s_out else (s_out, w_out)


def star_free_parameter(g: Graph) -> StarFreeParam:
    """m_min = 2 + the largest independent set found inside any open
    neighbourhood minus 1; i.e. one more than the biggest induced star."""
    _check_size(g)
    best = 0
    best_vertex = None
    best_mask = 0
    for v in range(g.n):
        size, wmask = _max_independent_set(g.rows, g.rows[v])
        if size > best:
            best, best_vertex, best_mask = size, v, wmask
    if best == 0:
        return StarFreeParam(2, None, None)
    return StarFreeParam(best + 1, best_vertex, tuple(bits(best_mask)))
