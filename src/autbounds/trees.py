"""Spanning trees: greedy construction, exact tree automorphism counts, and
the product-of-degrees estimates used by the embedding bounds.

A spanning tree is a Graph on the host's vertex set, so it keeps its edges
in the same bit rows as the host, and the degree data, edge listing and
copy counters work on it unchanged.

The greedy construction starts from the full edge star of a chosen root and
repeatedly expands an eligible leaf (one with at least one host edge leaving
the current tree) by all of its outward edges, until no leaf reaches outside.
Each step is recorded as one bitmask: the vertices that expansion attached.
The covered set is then closed under adjacency, so on a connected host the
tree spans; SpanningTree's checks would reject it otherwise.

The best greedy tree's DP state is the covered set alone: an expanded vertex
has every neighbour covered, so the eligible leaves are the covered vertices
with a neighbour outside, in index order.  No state names the start vertex,
so one memo per host answers every start.  Tree codes are rooted at the
centroid, reached from vertex 0 through child subtrees over half the tree.

The builders take each SpanningTree from an intern table keyed on its bit
rows, and each tree caches its own certificate, exact aut and degree-product
ceiling, so each labeled tree is validated, coded and measured once per
process while it stays among the table's 8,192 entries.  A direct
SpanningTree call still runs the checks and computes its own values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, factorial, prod

from .graphs import Graph, SizeLimitError, _lazy, _walk, bits, is_connected, rows_connected

ENUM_VERTEX_LIMIT = 7  # all_spanning_trees refuses larger hosts


class SpanningTree(Graph):
    """Graph on the host's vertex set with exactly n-1 edges that is connected,
    hence acyclic."""

    def __post_init__(self):
        super().__post_init__()
        n = self.n
        if sum(map(int.bit_count, self.rows)) != 2 * (n - 1):
            raise ValueError(f"a spanning tree on {n} vertices needs {n - 1} edges")
        if not is_connected(self):
            raise ValueError("tree is disconnected, so an edge closes a cycle")

    def spans(self, g: Graph) -> bool:
        return self.n == g.n and all(not r & ~h for r, h in zip(self.rows, g.rows))

    @_lazy
    def certificate_aut(self) -> tuple[tuple, int]:
        """(tree_certificate, tree_aut_exact), coded once per tree."""
        return _centroid_code(self.rows)

    @_lazy
    def aut_ceiling(self) -> int:
        """tree_aut_upper: max degree times the product of (degree - 1)!."""
        return self.delta_max * prod(factorial(d - 1) for d in self.degrees)


@dataclass(frozen=True)
class GreedyTree:
    """Greedy spanning tree plus its construction record.

    ``sequence`` is the expanded-vertex order v_0..v_s; ``steps[i]`` is the
    bitmask of vertices attached when v_i was expanded (step 0 is the root's
    whole neighbourhood).
    """

    tree: SpanningTree
    sequence: tuple[int, ...]
    steps: tuple[int, ...]

    @property
    def root(self) -> int:
        return self.sequence[0]

    def step_sizes(self) -> tuple[int, ...]:
        """Number of edges added at each expansion step after the root star."""
        return tuple(step.bit_count() for step in self.steps[1:])


def _grow(g: Graph, v0: int, choose) -> GreedyTree:
    """Run the greedy construction from v0.  ``choose(covered)`` names the
    eligible leaf to expand next, a covered vertex with a neighbour outside
    (an expanded vertex has none), or None once there is none."""
    rows = g.rows
    tree = [0] * g.n
    covered = 1 << v0
    sequence, steps = [], []
    v = v0
    while v is not None:
        new = rows[v] & ~covered
        tree[v] |= new
        for w in bits(new):
            tree[w] = 1 << v
        sequence.append(v)
        steps.append(new)
        covered |= new
        v = choose(covered)
    return GreedyTree(_interned_tree(tuple(tree)), tuple(sequence), tuple(steps))


@lru_cache(maxsize=8192)
def _interned_tree(rows: tuple[int, ...]) -> SpanningTree:
    """The one SpanningTree with these bit rows, checked when first built;
    a frozen Graph, so every builder that meets the rows may share it, and
    with it the values the tree caches.  8192 entries hold every labeled tree
    on n <= 6 vertices (1,442) with the distinct greedy trees of the
    connected n = 8 corpus (3,942)."""
    return SpanningTree(len(rows), rows)


def greedy_spanning_tree(g: Graph, v0: int) -> GreedyTree:
    """Grow the greedy tree from v0, expanding the lowest eligible leaf at
    each step."""
    if not 0 <= v0 < g.n:
        raise ValueError(f"start vertex {v0} out of range")
    if not is_connected(g):
        raise ValueError("greedy spanning tree needs a connected host graph")
    rows = g.rows

    def lowest_eligible(covered: int) -> int | None:
        for v in bits(covered):
            if rows[v] & ~covered:
                return v
        return None

    return _grow(g, v0, lowest_eligible)


def best_greedy_tree(g: Graph) -> tuple[tuple[GreedyTree, int], ...]:
    """(tree, product) for every start vertex in index order: the greedy tree
    minimising the product of (step size)! over all eligible-leaf choices."""
    if not is_connected(g):
        raise ValueError("greedy spanning tree needs a connected host graph")
    rows = g.rows
    memo: dict[int, tuple[int, int | None]] = {}

    def rec(covered: int) -> tuple[int, int | None]:
        if covered in memo:
            return memo[covered]
        best_val, best_v = 1, None
        for v in bits(covered):
            new = rows[v] & ~covered
            if not new:
                continue
            val = factorial(new.bit_count()) * rec(covered | new)[0]
            if best_v is None or val < best_val:
                best_val, best_v = val, v
        memo[covered] = best_val, best_v
        return best_val, best_v

    products = [rec((1 << v0) | rows[v0])[0] for v0 in range(g.n)]  # fills the memo
    return tuple((_grow(g, v0, lambda covered: memo[covered][1]), product)
                 for v0, product in enumerate(products))


class GreedyRecordError(ValueError):
    """A greedy construction record that verify_greedy_tree rejects."""


def verify_greedy_tree(g: Graph, gt: GreedyTree) -> None:
    """Raise GreedyRecordError unless gt is a valid greedy construction
    record on g.

    Written independently of _grow on purpose: greedy_sweep trusts it to
    check the builder, so it must not share the builder's code."""
    n = g.n
    if gt.tree.n != n:
        raise GreedyRecordError("tree host size differs from graph")
    if not gt.tree.spans(g):
        raise GreedyRecordError("tree uses an edge absent from the host")
    if len(gt.sequence) != len(gt.steps):
        raise GreedyRecordError("sequence and step records differ in length")
    v0 = gt.sequence[0]
    if gt.steps[0] != g.rows[v0]:
        raise GreedyRecordError("step 0 must be the full host star at the root")
    covered = (1 << v0) | g.rows[v0]
    expanded = 1 << v0
    for v, step in zip(gt.sequence[1:], gt.steps[1:]):
        if not step:
            raise GreedyRecordError(f"step at {v} added no edges")
        if not (covered >> v) & 1 or (expanded >> v) & 1:
            raise GreedyRecordError(f"expanded vertex {v} was not a leaf of the current tree")
        if step & covered:
            raise GreedyRecordError(f"step at {v} attaches a vertex already in the tree")
        if step != g.rows[v] & ~covered:
            raise GreedyRecordError(f"step at {v} must add every outward host edge")
        covered |= step
        expanded |= 1 << v
    if covered != (1 << n) - 1:
        raise GreedyRecordError("construction stopped before spanning")
    rows = [0] * n
    for v, step in zip(gt.sequence, gt.steps):
        rows[v] |= step
        for w in bits(step):
            rows[w] |= 1 << v
    if tuple(rows) != gt.tree.rows:
        raise GreedyRecordError("step edges do not reassemble the tree")
    # Every vertex except the root enters through exactly one step edge.
    if 1 + g.degree(v0) + sum(gt.step_sizes()) != n:
        raise GreedyRecordError("step sizes violate the degree-sum identity")


# ---------------------------------------------------------------------------
# Exact tree automorphism counting via centroid-rooted canonical codes.
# The count at an internal node is the product of its children's counts times
# m! for every group of m mutually isomorphic child subtrees; a centroid edge
# joining two isomorphic halves doubles the total.
# ---------------------------------------------------------------------------

def _rooted_code_aut(root: int, banned: int, adj) -> tuple[tuple, int]:
    """Canonical code and automorphism count of the subtree at root, not
    crossing into ``banned``."""
    kids = []
    for w in adj[root]:
        if w != banned:
            kids.append(_rooted_code_aut(w, root, adj))
    kids.sort(key=lambda t: t[0])
    aut = 1
    run = 0
    for i, (code, sub_aut) in enumerate(kids):
        aut *= sub_aut
        run += 1
        if i + 1 == len(kids) or kids[i + 1][0] != code:
            aut *= factorial(run)
            run = 0
    return tuple(k[0] for k in kids), aut


def _centroid_code(rows: tuple[int, ...]) -> tuple[tuple, int]:
    """The certificate and aut of the tree with these bit rows, from the codes
    rooted at the centroid, or at each of two centroids with the other's half
    cut off."""
    n = len(rows)
    adj = [list(bits(row)) for row in rows]
    order, parent = _walk(rows)
    size = [1] * n
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    # Walk into the child subtree holding over half the vertices until none
    # does: less than half then lies above, so c is a centroid, and a second
    # one is the child w holding exactly half, if there is one.
    c, w = -1, 0
    while w is not None and 2 * size[w] > n:
        c, w = w, next((x for x in adj[w] if parent[x] == w and 2 * size[x] >= n), None)
    if w is None:
        code, aut = _rooted_code_aut(c, -1, adj)
        return (1, code), aut
    (a, aut_a), (b, aut_b) = _rooted_code_aut(c, w, adj), _rooted_code_aut(w, c, adj)
    # Two isomorphic halves can also be swapped across the central edge.
    return (2, tuple(sorted((a, b)))), aut_a * aut_b * (2 if a == b else 1)


def tree_aut_exact(t: SpanningTree) -> int:
    """Exact automorphism count of the tree as an abstract graph."""
    return t.certificate_aut[1]


def tree_certificate(t: SpanningTree):
    """Hashable canonical form: equal certificates iff isomorphic trees."""
    return t.certificate_aut[0]


def tree_aut_upper(t: SpanningTree) -> int:
    """Degree-product ceiling on the tree automorphism count:
    max degree times the product of (degree - 1)! over all vertices.

    Only valid for trees with an internal vertex (n >= 3): the single-edge
    tree has count 2 but product 1, the one boundary case below the formula.
    """
    if t.n < 2:
        raise ValueError("degree-product bound needs at least two vertices")
    return t.aut_ceiling


def embedding_upper_fs(g: Graph) -> Fraction:
    """Ceiling on the number of spanning-tree copies in g: the product of all
    vertex degrees divided by the maximum degree, as an exact rational."""
    if g.n < 2 or not is_connected(g):
        raise ValueError("estimate needs a connected host with n >= 2")
    return Fraction(prod(g.degrees), g.delta_max)


def all_spanning_trees(g: Graph) -> list[SpanningTree]:
    """Every spanning tree exactly once via edge-subset enumeration, keeping an
    (n-1)-edge subset iff its rows connect, and taking the tree from the
    intern table, so SpanningTree's checks run once per labeled tree, not on
    every keep.  The Laplacian count spanning_tree_count stays its
    independent oracle.

    Hosts with more than 7 vertices are refused, since the subset count
    explodes.
    """
    if not is_connected(g):
        raise ValueError("spanning trees need a connected host graph")
    if g.n > ENUM_VERTEX_LIMIT:
        raise SizeLimitError(
            f"subset enumeration over {comb(g.e, g.n - 1)} candidates refused for "
            f"n={g.n} > {ENUM_VERTEX_LIMIT}")
    n = g.n
    trees: list[SpanningTree] = []
    for subset in combinations(g.edges(), n - 1):
        rows = [0] * n
        for u, v in subset:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        if rows_connected(rows):  # n - 1 edges that connect hold no cycle
            trees.append(_interned_tree(tuple(rows)))
    return trees


def spanning_tree_count(g: Graph) -> int:
    """Spanning trees of g, 0 if it is disconnected, by the reduced-Laplacian
    determinant (exact Bareiss, no row swaps); the independent count oracle."""
    n = g.n
    if n == 1:
        return 1
    m = [[0] * (n - 1) for _ in range(n - 1)]
    for v in range(1, n):
        m[v - 1][v - 1] = g.degree(v)
        for w in bits(g.rows[v]):
            if w >= 1:
                m[v - 1][w - 1] -= 1
    prev = 1
    size = n - 1
    for k in range(size - 1):
        # PSD: a zero leading minor leaves a zero column below it, so det = 0
        if m[k][k] == 0:
            return 0
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return m[size - 1][size - 1]
