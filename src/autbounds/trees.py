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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, prod

from .graphs import Graph, SizeLimitError, _union, bits, is_connected

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


def _check_start(g: Graph, v0: int) -> None:
    if not 0 <= v0 < g.n:
        raise ValueError(f"start vertex {v0} out of range")
    if not is_connected(g):
        raise ValueError("greedy spanning tree needs a connected host graph")


def _grow(g: Graph, v0: int, choose) -> GreedyTree:
    """Run the greedy construction from v0.  ``choose(covered, unexpanded)``
    names the eligible leaf to expand next, or None once there is none."""
    rows = g.rows
    tree = [0] * g.n
    covered = 1 << v0
    unexpanded = 0  # tree leaves that may still have outward edges
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
        unexpanded = (unexpanded & ~(1 << v)) | new
        v = choose(covered, unexpanded)
    return GreedyTree(SpanningTree(g.n, tuple(tree)), tuple(sequence), tuple(steps))


def greedy_spanning_tree(g: Graph, v0: int) -> GreedyTree:
    """Grow the greedy tree from v0, expanding the lowest eligible leaf at
    each step."""
    _check_start(g, v0)
    rows = g.rows
    return _grow(g, v0, lambda covered, unexpanded: next(
        (v for v in bits(unexpanded) if rows[v] & ~covered), None))


def best_greedy_tree(g: Graph, v0: int) -> tuple[GreedyTree, int]:
    """Greedy tree from v0 minimising the product of (step size)! over all
    eligible-leaf choice sequences.  Returns (tree, that product)."""
    _check_start(g, v0)
    rows = g.rows
    memo: dict[tuple[int, int], tuple[int, int | None]] = {}

    def rec(covered: int, unexpanded: int) -> tuple[int, int | None]:
        key = (covered, unexpanded)
        if key in memo:
            return memo[key]
        best_val, best_v = 1, None
        for v in bits(unexpanded):
            new = rows[v] & ~covered
            if not new:
                continue
            sub, _ = rec(covered | new, (unexpanded & ~(1 << v)) | new)
            val = factorial(new.bit_count()) * sub
            if best_v is None or val < best_val:
                best_val, best_v = val, v
        memo[key] = (best_val, best_v)
        return best_val, best_v

    product, _ = rec((1 << v0) | rows[v0], rows[v0])
    return _grow(g, v0, lambda covered, unexpanded: memo[covered, unexpanded][1]), product


def verify_greedy_tree(g: Graph, gt: GreedyTree) -> None:
    """Raise ValueError unless gt is a valid greedy construction record on g.

    Written independently of _grow on purpose: greedy_sweep trusts it to
    check the builder, so it must not share the builder's code."""
    n = g.n
    if gt.tree.n != n:
        raise ValueError("tree host size differs from graph")
    if not gt.tree.spans(g):
        raise ValueError("tree uses an edge absent from the host")
    if len(gt.sequence) != len(gt.steps):
        raise ValueError("sequence and step records differ in length")
    v0 = gt.sequence[0]
    if gt.steps[0] != g.rows[v0]:
        raise ValueError("step 0 must be the full host star at the root")
    covered = (1 << v0) | g.rows[v0]
    expanded = 1 << v0
    for v, step in zip(gt.sequence[1:], gt.steps[1:]):
        if not step:
            raise ValueError(f"step at {v} added no edges")
        if not (covered >> v) & 1 or (expanded >> v) & 1:
            raise ValueError(f"expanded vertex {v} was not a leaf of the current tree")
        if step & covered:
            raise ValueError(f"step at {v} attaches a vertex already in the tree")
        if step != g.rows[v] & ~covered:
            raise ValueError(f"step at {v} must add every outward host edge")
        covered |= step
        expanded |= 1 << v
    if covered != (1 << n) - 1:
        raise ValueError("construction stopped before spanning")
    rows = [0] * n
    for v, step in zip(gt.sequence, gt.steps):
        rows[v] |= step
        for w in bits(step):
            rows[w] |= 1 << v
    if tuple(rows) != gt.tree.rows:
        raise ValueError("step edges do not reassemble the tree")
    # Every vertex except the root enters through exactly one step edge.
    if 1 + g.degree(v0) + sum(gt.step_sizes()) != n:
        raise ValueError("step sizes violate the degree-sum identity")


# ---------------------------------------------------------------------------
# Exact tree automorphism counting via centroid-rooted canonical codes.
# The count at an internal node is the product of its children's counts times
# m! for every group of m mutually isomorphic child subtrees; a centroid edge
# joining two isomorphic halves doubles the total.
# ---------------------------------------------------------------------------

def _centroids(n: int, adj) -> list[int]:
    if n == 1:
        return [0]
    size = [1] * n
    order = []
    parent = [-1] * n
    stack = [0]
    seen = [False] * n
    seen[0] = True
    while stack:
        v = stack.pop()
        order.append(v)
        for w in adj[v]:
            if not seen[w]:
                seen[w] = True
                parent[w] = v
                stack.append(w)
    for v in reversed(order):
        if parent[v] >= 0:
            size[parent[v]] += size[v]
    best, cents = None, []
    for v in range(n):
        heaviest = n - size[v]
        for w in adj[v]:
            if w != parent[v]:
                heaviest = max(heaviest, size[w])
        if best is None or heaviest < best:
            best, cents = heaviest, [v]
        elif heaviest == best:
            cents.append(v)
    return cents


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


def _centroid_codes(t: SpanningTree) -> list[tuple[tuple, int]]:
    """Code and automorphism count rooted at the centroid, or at each of the
    two centroids with the other one's half cut off."""
    adj = [list(bits(row)) for row in t.rows]
    cents = _centroids(t.n, adj)
    if len(cents) == 1:
        return [_rooted_code_aut(cents[0], -1, adj)]
    c1, c2 = cents
    return [_rooted_code_aut(c1, c2, adj), _rooted_code_aut(c2, c1, adj)]


def _certificate_aut(t: SpanningTree) -> tuple[tuple, int]:
    """(tree_certificate(t), tree_aut_exact(t)) from one set of centroid codes."""
    halves = _centroid_codes(t)
    codes = [code for code, _ in halves]
    aut = prod(sub_aut for _, sub_aut in halves)
    # Two isomorphic halves can also be swapped across the central edge.
    if len(codes) == 2 and codes[0] == codes[1]:
        aut *= 2
    return (len(codes), codes[0] if len(codes) == 1 else tuple(sorted(codes))), aut


def tree_aut_exact(t: SpanningTree) -> int:
    """Exact automorphism count of the tree as an abstract graph."""
    return _certificate_aut(t)[1]


def tree_certificate(t: SpanningTree):
    """Hashable canonical form: equal certificates iff isomorphic trees."""
    return _certificate_aut(t)[0]


def tree_aut_upper(t: SpanningTree) -> int:
    """Degree-product ceiling on the tree automorphism count:
    max degree times the product of (degree - 1)! over all vertices.

    Only valid for trees with an internal vertex (n >= 3): the single-edge
    tree has count 2 but product 1, the one boundary case below the formula.
    """
    if t.n < 2:
        raise ValueError("degree-product bound needs at least two vertices")
    return t.delta_max * prod(factorial(d - 1) for d in t.degrees)


def embedding_upper_fs(g: Graph) -> Fraction:
    """Ceiling on the number of spanning-tree copies in g: the product of all
    vertex degrees divided by the maximum degree, as an exact rational."""
    if g.n < 2 or not is_connected(g):
        raise ValueError("estimate needs a connected host with n >= 2")
    return Fraction(prod(g.degrees), g.delta_max)


def all_spanning_trees(g: Graph) -> list[SpanningTree]:
    """Every spanning tree exactly once via edge-subset enumeration.

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
        parent = list(range(n))
        rows = [0] * n
        for u, v in subset:
            if not _union(parent, u, v):
                break
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        else:
            trees.append(SpanningTree(n, tuple(rows)))
    return trees


def spanning_tree_count(g: Graph) -> int:
    """Number of spanning trees by the reduced-Laplacian determinant
    (integer-exact Bareiss elimination); the independent count oracle."""
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
    sign = 1
    size = n - 1
    for k in range(size - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, size) if m[r][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[size - 1][size - 1]
