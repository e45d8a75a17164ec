"""Immutable bit-row graphs, graph6/edge-list codecs, and named families.

Vertices are always 0..n-1.  Adjacency is one Python int per vertex whose set
bits are the neighbours; that keeps degree and neighbourhood queries single
popcounts, makes graphs hashable, and lets every algorithm downstream work on
plain integers.  The vertex cap of 64 on parsed input is a guard for the
exponential algorithms in this package, not a storage limit.

The named families close with ``SYMMETRIC_FAMILIES``, vertex-transitive
graphs with the classical order of their automorphism group: past the
exhaustive corpus, these orders are the independent check on the search.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import combinations
from math import factorial, isqrt

VERTEX_CAP = 64

_GRAPH6_HEADER = ">>graph6<<"


class GraphParseError(ValueError):
    """Malformed graph input; carries the offending byte offset when known."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class SizeLimitError(ValueError):
    """Input exceeds a documented exact-computation size cap."""


def _bit_table() -> tuple[tuple[int, ...], ...]:
    """bits(m) for every m < 256: each bit i doubles the table, appending i."""
    table = [()]
    for i in range(8):
        table += [indices + (i,) for indices in table]
    return tuple(table)


_BITS = _bit_table()  # every row and cell of a graph on n <= 8 vertices


class _lazy:
    """cached_property without a lock: the first access stores the value in
    the instance __dict__, where later accesses find it.  Before Python 3.12
    functools' version holds one lock per attribute, across all instances,
    while it computes.  Two threads racing on one object may both compute it."""

    def __init__(self, fn):
        self.fn = fn
        self.__doc__ = fn.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


def bits(mask: int):
    """The indices of the set bits of ``mask`` in increasing order, to iterate
    over: a shared tuple for 0 <= mask < 256, a generator for larger masks,
    so callers may loop over the result but not call next() on it."""
    if 0 <= mask < 256:
        return _BITS[mask]
    return _bits_above(mask)


def _bits_above(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: no loops, no multi-edges, vertices 0..n-1."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        n, rows = self.n, self.rows
        if n < 1:
            raise ValueError("a graph needs at least one vertex")
        if len(rows) != n:
            raise ValueError("adjacency row count must equal n")
        for v, row in enumerate(rows):
            if row >> n:
                raise ValueError(f"row {v} mentions vertices >= n")
            if (row >> v) & 1:
                raise ValueError(f"loop at vertex {v}")
        for v, row in enumerate(rows):
            for w in bits(row):
                if not (rows[w] >> v) & 1:
                    raise ValueError(f"asymmetric adjacency between {v} and {w}")

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop edge {u}-{v} not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {u}-{v} out of range for n={n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))

    @_lazy
    def e(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    @_lazy
    def degrees(self) -> tuple[int, ...]:
        return tuple(r.bit_count() for r in self.rows)

    @_lazy
    def delta_max(self) -> int:
        return max(self.degrees)

    @_lazy
    def delta_min(self) -> int:
        return min(self.degrees)

    @_lazy
    def graph6(self) -> str:
        """write_graph6(self), encoded on first use and kept on the graph; a
        graph parse_graph6 decoded from the shortest form holds its line."""
        return _encode_graph6(self)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.rows[u] >> v) & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, sorted."""
        return [(u, v) for u in range(self.n) for v in bits(self.rows[u]) if u < v]

    def complement(self) -> "Graph":
        full = (1 << self.n) - 1
        return Graph(self.n, tuple((full & ~r) & ~(1 << v) for v, r in enumerate(self.rows)))

    def relabel(self, perm) -> "Graph":
        """Image of the graph under the permutation v -> perm[v]."""
        return Graph.from_edges(self.n, [(perm[u], perm[v]) for u, v in self.edges()])


def is_connected(g: Graph) -> bool:
    """True iff one traversal from vertex 0 reaches all n vertices."""
    return rows_connected(g.rows)


def rows_connected(rows) -> bool:
    """is_connected on bare bit rows, one per vertex: a bitmask flood fill."""
    seen = 1
    frontier = 1
    while frontier:
        nxt = 0
        for w in bits(frontier):
            nxt |= rows[w]
        frontier = nxt & ~seen
        seen |= nxt
    return seen == (1 << len(rows)) - 1


def _root(parent: list[int], x: int) -> int:
    """Union-find root of x, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _union(parent: list[int], a: int, b: int) -> bool:
    """Join the sets of a and b; False if they were already one set."""
    ra, rb = _root(parent, a), _root(parent, b)
    if ra == rb:
        return False
    parent[ra] = rb
    return True


def _classes(parent: list[int]) -> list[list[int]]:
    """The union-find classes, each ascending, ordered by least member."""
    groups: dict[int, list[int]] = {}
    for v in range(len(parent)):
        groups.setdefault(_root(parent, v), []).append(v)
    return list(groups.values())


def _walk(rows, skip: int = 0) -> tuple[list[int], list[int]]:
    """Breadth-first order of the vertices outside the mask skip, each
    component from its lowest vertex, neighbours in increasing order, and
    each vertex's parent in it (-1 at a root and in skip)."""
    full = (1 << len(rows)) - 1
    parent = [-1] * len(rows)
    order, seen, i = [], skip, 0
    while ~seen & full:
        root = ~seen & (seen + 1)  # the lowest vertex not yet walked
        seen |= root
        order.append(root.bit_length() - 1)
        while i < len(order):
            v = order[i]
            i += 1
            new = rows[v] & ~seen
            seen |= new
            for w in bits(new):
                parent[w] = v
                order.append(w)
    return order, parent


# ---------------------------------------------------------------------------
# graph6 codec.  Format: printable bytes offset by 63; the vertex count in the
# first form below that holds it, each (largest n, leading '~' bytes, 6-bit
# digits), then the upper adjacency triangle column by column, packed 6 bits
# per byte, zero-padded to a byte boundary.
# ---------------------------------------------------------------------------

_GRAPH6_COUNT_FORMS = ((62, 0, 1), (258047, 1, 3), (2 ** 36 - 1, 2, 6))


def _check_cap(n: int):
    if n > VERTEX_CAP:
        raise SizeLimitError(f"graph has {n} vertices, above the cap of {VERTEX_CAP}")


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line (optionally prefixed with '>>graph6<<')."""
    line = text.rstrip("\r\n")
    base = 0
    if line.startswith(_GRAPH6_HEADER):
        line = line[len(_GRAPH6_HEADER):]
        base = len(_GRAPH6_HEADER)
    if not line:
        raise GraphParseError("empty graph6 input", offset=base)
    try:
        data = line.encode("ascii")
    except UnicodeEncodeError as exc:
        raise GraphParseError("non-ASCII byte in graph6 input",
                              offset=base + exc.start) from None

    def val(i: int) -> int:
        b = data[i]
        if not 63 <= b <= 126:
            raise GraphParseError(f"invalid graph6 byte {b!r}", offset=base + i)
        return b - 63

    tildes = 0
    while tildes < 2 and tildes < len(data) and val(tildes) == 63:
        tildes += 1
    pos = tildes + _GRAPH6_COUNT_FORMS[tildes][2]
    if len(data) < pos:
        raise GraphParseError(f"truncated {pos}-byte vertex count", offset=base + len(data))
    n = 0
    for i in range(tildes, pos):
        n = n << 6 | val(i)
    if n < 1:
        raise GraphParseError("graph6 vertex count must be at least 1", offset=base)
    _check_cap(n)

    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - pos < nbytes:
        raise GraphParseError("truncated adjacency bit section", offset=base + len(data))
    if len(data) - pos > nbytes:
        raise GraphParseError("trailing garbage after adjacency bits", offset=base + pos + nbytes)

    x = 0
    for i in range(pos, pos + nbytes):
        x = x << 6 | val(i)
    top = 6 * nbytes
    if x & ((1 << (top - nbits)) - 1):  # the padding, all in the last byte
        raise GraphParseError("nonzero padding bits", offset=base + pos + nbytes - 1)
    rows = [0] * n
    for j in range(1, n):
        top -= j
        for b in bits(x >> top & ((1 << j) - 1)):  # column j's bit b is row j - 1 - b
            rows[j - 1 - b] |= 1 << j
            rows[j] |= 1 << (j - 1 - b)
    g = Graph(n, tuple(rows))
    # The adjacency bytes have one spelling; the vertex count has one per
    # form, and the writer uses the shortest that holds n.
    if not tildes or n > _GRAPH6_COUNT_FORMS[tildes - 1][0]:
        g.__dict__["graph6"] = line
    return g


def write_graph6(g: Graph) -> str:
    """Encode a graph as a plain graph6 line (no header)."""
    return g.graph6


def _encode_graph6(g: Graph) -> str:
    n = g.n
    for largest, tildes, digits in _GRAPH6_COUNT_FORMS:
        if n <= largest:
            break
    out = [126] * tildes + [(n >> shift & 63) + 63 for shift in range(6 * digits - 6, -1, -6)]
    chunk = 0
    filled = 0
    for j in range(1, n):
        for i in range(j):
            chunk = chunk << 1 | ((g.rows[i] >> j) & 1)
            filled += 1
            if filled == 6:
                out.append(chunk + 63)
                chunk = filled = 0
    if filled:
        out.append((chunk << (6 - filled)) + 63)
    return bytes(out).decode("ascii")


def parse_edgelist(text: str) -> Graph:
    """Decode the edge-list format: first line n, then one 'u v' pair per line.

    Blank lines and lines starting with '#' are skipped; duplicate edges are
    tolerated with a warning so hand-written inputs survive.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise GraphParseError("empty edge-list input")
    try:
        n = int(lines[0])
    except ValueError:
        raise GraphParseError(f"first line must be the vertex count, got {lines[0]!r}") from None
    if n < 1:
        raise GraphParseError("vertex count must be at least 1")
    _check_cap(n)
    rows = [0] * n
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphParseError(f"expected 'u v', got {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"non-integer vertex in {ln!r}") from None
        if u == v:
            raise GraphParseError(f"loop edge {u} {v} not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(f"edge {u} {v} out of range for n={n}")
        if (rows[u] >> v) & 1:
            warnings.warn(f"duplicate edge {u} {v} ignored", stacklevel=2)
            continue
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


# ---------------------------------------------------------------------------
# Named families.
# ---------------------------------------------------------------------------

def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    full = (1 << n) - 1
    return Graph(n, tuple(full & ~(1 << v) for v in range(n)))


def complete_bipartite_graph(p: int, q: int) -> Graph:
    """K_{p,q} with part {0..p-1} against part {p..p+q-1}."""
    if p < 1 or q < 1:
        raise ValueError("both parts need at least one vertex")
    n = p + q
    left = (1 << p) - 1
    right = ((1 << n) - 1) ^ left
    return Graph(n, tuple(right if v < p else left for v in range(n)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph.from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])


def star_graph(leaves: int) -> Graph:
    """K_{1,leaves}: centre 0 joined to 1..leaves."""
    if leaves < 1:
        raise ValueError("star needs at least one leaf")
    return Graph.from_edges(leaves + 1, [(0, v) for v in range(1, leaves + 1)])


def petersen_graph() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, edges)


def rook_graph(k: int) -> Graph:
    """K_k x K_k: cells of a k-by-k board, adjacent when in one row or column."""
    edges = []
    for i in range(k):
        for j in range(k):
            v = k * i + j
            edges += [(v, k * i + jj) for jj in range(j + 1, k)]
            edges += [(v, k * ii + j) for ii in range(i + 1, k)]
    return Graph.from_edges(k * k, edges)


def shrikhande_graph() -> Graph:
    """Z_4 x Z_4, adjacent when the difference is +-(1, 0), +-(0, 1) or
    +-(1, 1): strongly regular with the parameters of the 4x4 rook graph."""
    conn = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
    edges = {tuple(sorted((4 * a + b, 4 * ((a + da) % 4) + (b + db) % 4)))
             for a in range(4) for b in range(4) for da, db in conn}
    return Graph.from_edges(16, edges)


def paley_graph(q: int) -> Graph:
    """Z_q, adjacent when the difference is a nonzero square mod the prime q.
    Only a prime q = 1 (mod 4) is taken: for any other q this difference
    graph is not the Paley graph (P(9), say, lives on GF(9), not Z_9)."""
    if q % 4 != 1 or q < 5 or any(q % d == 0 for d in range(2, isqrt(q) + 1)):
        raise ValueError(f"a Paley graph needs a prime q = 1 (mod 4), got {q}")
    residues = {(x * x) % q for x in range(1, q)}
    return Graph.from_edges(q, [(u, v) for u in range(q) for v in range(u + 1, q)
                                if (v - u) % q in residues])


def hypercube(d: int) -> Graph:
    """Q_d: the d-bit words, adjacent when they differ in one bit."""
    return Graph.from_edges(1 << d, [(v, v ^ (1 << i)) for v in range(1 << d)
                                     for i in range(d) if v < v ^ (1 << i)])


def kneser_graph(m: int, k: int) -> Graph:
    """K(m, k): the k-subsets of {0..m-1}, adjacent when disjoint."""
    sets = [sum(1 << i for i in c) for c in combinations(range(m), k)]
    return Graph.from_edges(len(sets), [(i, j) for i in range(len(sets))
                                        for j in range(i + 1, len(sets))
                                        if not sets[i] & sets[j]])


def triangular_graph(m: int) -> Graph:
    """T(m), the line graph of K_m: the 2-subsets of {0..m-1}, adjacent when
    they meet."""
    return kneser_graph(m, 2).complement()


def grid_graph(a: int, b: int) -> Graph:
    """The a-by-b grid: cell (r, c) is vertex r*b + c, adjacent to the cells
    beside, above and below it."""
    edges = [(r * b + c, r * b + c + 1) for r in range(a) for c in range(b - 1)]
    edges += [(r * b + c, (r + 1) * b + c) for r in range(a - 1) for c in range(b)]
    return Graph.from_edges(a * b, edges)


def random_graph(n: int, rng) -> Graph:
    """G(n, 1/2): each pair u < v, in order, is an edge when rng.random() < 0.5."""
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                if rng.random() < 0.5])


def connected_gnm(n: int, m: int, rng) -> Graph:
    """m edges drawn uniformly with rng, redrawn until the graph is connected;
    a ValueError, before any draw, if no such graph exists."""
    if not n - 1 <= m <= n * (n - 1) // 2:
        raise ValueError(f"no connected graph on {n} vertices has {m} edges")
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    while True:
        g = Graph.from_edges(n, rng.sample(pairs, m))
        if is_connected(g):
            return g


# name -> (builder, classical |Aut|) for vertex-transitive graphs: each has
# one orbit.  The builders run only when called, so no graph is built at import.
SYMMETRIC_FAMILIES = {
    "K8": (lambda: complete_graph(8), factorial(8)),
    "Q3": (lambda: hypercube(3), 2 ** 3 * factorial(3)),
    "K64": (lambda: complete_graph(64), factorial(64)),
    "K32,32": (lambda: complete_bipartite_graph(32, 32), 2 * factorial(32) ** 2),
    "32xK2": (lambda: Graph.from_edges(64, [(2 * i, 2 * i + 1) for i in range(32)]),
              2 ** 32 * factorial(32)),
    "rook8x8": (lambda: rook_graph(8), 2 * factorial(8) ** 2),
    "Q6": (lambda: hypercube(6), 2 ** 6 * factorial(6)),
    "C64": (lambda: cycle_graph(64), 128),
    "Paley61": (lambda: paley_graph(61), 61 * 30),
    "Q8": (lambda: hypercube(8), 2 ** 8 * factorial(8)),
    "T20": (lambda: triangular_graph(20), factorial(20)),
    "Kneser10,4": (lambda: kneser_graph(10, 4), factorial(10)),
    "K32": (lambda: complete_graph(32), factorial(32)),
    "K16,16": (lambda: complete_bipartite_graph(16, 16), 2 * factorial(16) ** 2),
    "rook4x4": (lambda: rook_graph(4), 2 * factorial(4) ** 2),
    # same degree sequence and spectrum as rook4x4, a smaller group
    "Shrikhande": (shrikhande_graph, 192),
    "Paley13": (lambda: paley_graph(13), 13 * 6),
    "Paley17": (lambda: paley_graph(17), 17 * 8),
}
