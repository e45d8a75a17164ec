"""Evaluation of the upper-bound catalogue and report assembly.

Arithmetic policy: eq3-eq6 are products of rational powers, eq3 and eq8
times a power of the edge-excess base 2^(7/8) * 6^(1/24).  ``_power_value``
keeps such a row exact over Fractions when every exponent is an integer and
the excess is 0.  Otherwise the row is log-only: its whole log2 sum is
evaluated at 120 bits and rounded once, and soundness comparisons on it use
a documented 1e-9 slack.  Every other row is exact.  An exact row's log2 is
taken at 120 bits and rounded to a float once.

The precision rule lives in two functions, ``_log2`` and ``_power_value``,
the only code that touches mpmath.  Both hold one re-entrant lock while they
switch its precision, because that precision is process-wide.  Both are
memoised in bounded caches.  ``_log2`` is keyed on a value's numerator and
denominator, so an int and the equal Fraction are one entry and a repeated
value returns the very same mpf.  The edge-excess term, excess * (7/8 +
log2(6)/24), is summed in place at the end of a log-only sum, so no constant
is cached apart from the precision it needs.  ``_power_value`` is keyed on
the (base, exponent) pairs and the edge excess, and gives every number a row
carries, the aut order's log2 for gaps and soundness included.  eq2, eq4,
eq6 and eq7 pass 2e/n, e/(n-1) and the other ratios of small integers as
(numerator, denominator) pairs, so a memo hit builds no Fraction.  A row
that may be log-only passes one factor per term of its formula: its log2 is
a sum over the factors, and a split sum could round to another float.  The
memo's 4,096 entries hold every key of the connected corpus reports
(corollary "both"): 739 distinct keys in 12,234 calls for n <= 7, and 2,152
in 150,905 calls for the 12,113 graphs with n <= 8.

Inapplicable bounds are gated, never raised: each carries a machine-readable
reason so a report over an awkward graph still renders every row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import factorial
from threading import RLock

import mpmath

from .graphs import Graph, _lazy, is_connected, write_graph6
from .automorphisms import AutResult, aut_order
from .trees import (
    GreedyTree,
    SpanningTree,
    best_greedy_tree,
    embedding_upper_fs,
    greedy_spanning_tree,
    tree_aut_upper,
)
from .embeddings import EMBED_VERTEX_LIMIT, count_labeled_embeddings
from .structure import (
    STRUCTURE_VERTEX_LIMIT,
    path_cover_number,
    star_free_parameter,
)

WORKING_PRECISION_BITS = 120
LOG2_COMPARISON_SLACK = 1e-9

# Held around every precision switch.  Re-entrant: a log-only sum
# calls _log2, which may switch again on a memo miss.
_PRECISION_LOCK = RLock()


@dataclass(frozen=True)
class BoundValue:
    """One evaluated bound: exact rational when representable, log2 always."""

    bound_id: str
    applicable: bool
    reason: str | None
    exact_value: Fraction | None
    log2_value: float | None
    context: dict = field(default_factory=dict)


@lru_cache(maxsize=1024)
def _log2(numerator: int, denominator: int) -> mpmath.mpf:
    """log2 of numerator/denominator at WORKING_PRECISION_BITS, whatever
    precision the caller has set.  Callers pass b.numerator, b.denominator,
    so an int and the equal Fraction are one key."""
    with _PRECISION_LOCK, mpmath.workprec(WORKING_PRECISION_BITS):
        if denominator == 1:
            return mpmath.log(mpmath.mpf(numerator), 2)
        return mpmath.log(mpmath.mpf(numerator), 2) - mpmath.log(mpmath.mpf(denominator), 2)


def _power_product(bound_id: str, factors: tuple, context: dict, excess: int = 0) -> BoundValue:
    """The applicable row whose numbers _power_value gives for the pairs."""
    exact, log2v = _power_value(factors, excess)
    return BoundValue(bound_id, True, None, exact, log2v, context)


@lru_cache(maxsize=4096)
def _power_value(factors: tuple, excess: int) -> tuple[Fraction | None, float]:
    """(exact value or None, log2 as a float) of prod(base ** exponent) *
    (2^(7/8) * 6^(1/24)) ** excess: exact when every exponent is an integer
    and excess is 0, else log-only, its log2 sum taken at
    WORKING_PRECISION_BITS and rounded to a float once.

    A base or an exponent is an int, a Fraction, or a (numerator,
    denominator) pair of ints standing for that Fraction.  Memoised on the
    (base, exponent) pairs and the excess, which callers pass positionally,
    so a hit on pairs of ints builds and hashes no Fraction; a miss turns
    each pair into its Fraction before evaluating.  Equal keys share one
    entry and give equal values: (6, 1) and (Fraction(6), 1) are one key,
    and both give Fraction(6).  ((4, 3), 2) and (Fraction(4, 3), 2) are two
    keys with equal values."""
    factors = [(Fraction(*b) if type(b) is tuple else b, Fraction(*q) if type(q) is tuple else q)
               for b, q in factors]
    if not excess and all(q.denominator == 1 for _, q in factors):
        value = 1
        for b, q in factors:
            k = q.numerator
            value = value * b ** k if k >= 0 else Fraction(value, b ** -k)
        return Fraction(value), float(_log2(value.numerator, value.denominator))
    with _PRECISION_LOCK, mpmath.workprec(WORKING_PRECISION_BITS):
        total = 0
        for b, q in factors:
            k = q.numerator if q.denominator == 1 else mpmath.mpf(q.numerator) / q.denominator
            total += k * _log2(b.numerator, b.denominator)
        if excess:
            total += excess * (mpmath.mpf(7) / 8 + _log2(6, 1) / 24)
        return None, float(total)


def _gated(bound_id: str, reason: str, context: dict | None = None) -> BoundValue:
    return BoundValue(bound_id, False, reason, None, None, context or {})


# ---------------------------------------------------------------------------
# The catalogue.  All formulas assume a connected host; the report layer
# gates disconnected inputs before these run.
# ---------------------------------------------------------------------------

def eval_eq1(g: Graph) -> BoundValue:
    """n * delta! * (delta-1)^(n-delta-1); the exponent is >= 0 as delta <= n - 1."""
    n, delta = g.n, g.delta_max
    exponent = n - delta - 1
    ctx = {"delta": delta, "exponent": exponent}
    value = n * factorial(delta) * (delta - 1) ** exponent
    return _power_product("eq1_nashwilliams", ((value, 1),), ctx)


def eval_eq2(g: Graph, t: SpanningTree) -> BoundValue:
    """(delta_T/delta_G) * d_avg^n * prod over vertices of (tree degree - 1)!.

    Gated below n = 3: on the single-edge tree the degree product collapses
    to 1 while the swap automorphism exists, so the estimate is false there.
    """
    ctx = {"tree_edges": tuple(t.edges()), "delta_t": t.delta_max}
    if not t.spans(g):
        raise ValueError("tree does not span the host graph")
    if g.n < 3:
        return _gated("eq2_tree_product",
                      "tree-degree estimate degenerates below n = 3", ctx)
    return _power_product("eq2_tree_product",
                          (((tree_aut_upper(t), g.delta_max), 1), ((2 * g.e, g.n), g.n)), ctx)


def eval_eq3(g: Graph, p: int) -> BoundValue:
    """2p * n^(2p) * (2^(7/8) * 6^(1/24))^(e-n); exact only when e == n."""
    if p < 1:
        raise ValueError("path covering number must be at least 1")
    excess = g.e - g.n
    ctx = {"p": p, "edge_excess": excess}
    return _power_product("eq3_pathcover", ((2 * p * g.n ** (2 * p), 1),), ctx, excess)


def eval_eq4(g: Graph) -> BoundValue:
    """d_avg^n * ((delta-1)!)^((e-n+3-2*delta_min)/((delta_min-1)(delta-2))),
    gated to min degree >= 2 and max degree >= 3.  The exponent is negative
    only on K4 (-1/2), so an integer exponent is never negative."""
    delta, dmin = g.delta_max, g.delta_min
    if dmin < 2 or delta < 3:
        return _gated("eq4_degree_exponent",
                      "requires min degree >= 2 and max degree >= 3",
                      {"delta": delta, "delta_min": dmin})
    exponent = (g.e - g.n + 3 - 2 * dmin, (dmin - 1) * (delta - 2))
    return _power_product("eq4_degree_exponent",
                          (((2 * g.e, g.n), g.n), (factorial(delta - 1), exponent)),
                          {"exponent": Fraction(*exponent)})


def eval_eq5(g: Graph, class_asserted: bool) -> BoundValue:
    """3 * 2^((n-2)/2) * d_avg^n / delta, for squares of graphs and
    3-connected planar graphs; membership is caller-asserted."""
    ctx = {"class_asserted": class_asserted}
    if not class_asserted:
        return _gated("eq5_special_class",
                      "class membership not asserted "
                      "(square of a graph or 3-connected planar)", ctx)
    if g.n < 2:
        return _gated("eq5_special_class", "degenerate on a single vertex", ctx)
    return _power_product("eq5_special_class",
                          ((3, 1), (2, Fraction(g.n - 2, 2)), (g.d_avg, g.n),
                           (g.delta_max, -1)), ctx)


def eval_eq6(g: Graph, m: int) -> BoundValue:
    """(m-1)! * ((m-2)!)^(n/(m-2)) * d_avg^n / delta for hosts with no
    induced star of m leaves; degenerate below m = 3."""
    ctx = {"m": m}
    if m < 3:
        return _gated("eq6_starfree", "formula degenerates below m = 3", ctx)
    if g.n < 2:
        return _gated("eq6_starfree", "degenerate on a single vertex", ctx)
    ctx["exponent"] = Fraction(g.n, m - 2)
    return _power_product("eq6_starfree",
                          ((factorial(m - 1), 1), (factorial(m - 2), (g.n, m - 2)),
                           ((2 * g.e, g.n), g.n), (g.delta_max, -1)), ctx)


def eval_eq7(g: Graph, ham: bool) -> BoundValue:
    """n * (e/(n-1))^(n-1), valid when a Hamiltonian path exists."""
    ctx = {"hamiltonian_path": ham}
    if not ham:
        return _gated("eq7_hamiltonian", "no Hamiltonian path", ctx)
    if g.n < 2:
        return _gated("eq7_hamiltonian", "degenerate on a single vertex", ctx)
    return _power_product("eq7_hamiltonian", ((g.n, 1), ((g.e, g.n - 1), g.n - 1)), ctx)


def eval_eq8(g: Graph, ham: bool) -> BoundValue:
    """2n^2 * (2^(7/8) * 6^(1/24))^(e-n): the path-cover bound pinned at
    p = 1.  Its _power_value key is eval_eq3(g, 1)'s, so the two agree bit
    for bit."""
    ctx = {"hamiltonian_path": ham, "p": 1, "edge_excess": g.e - g.n}
    if not ham:
        return _gated("eq8_hampath_edges", "no Hamiltonian path", ctx)
    return _power_product("eq8_hampath_edges", ((2 * g.n ** 2, 1),), ctx, g.e - g.n)


def eval_thm3(g: Graph, gt: GreedyTree, n1: int | None = None) -> BoundValue:
    """Greedy-tree stabiliser-chain bound:
    n1 * d(v0)! * product over expansion steps of (tree degree - 1)!.

    With n1 absent the orbit length is replaced by n (the always-available
    form)."""
    v0 = gt.root
    factor = n1 if n1 is not None else g.n
    value = factor * factorial(g.degree(v0))
    for k in gt.step_sizes():
        value *= factorial(k)
    ctx = {"v0": v0, "n1": factor, "sequence": gt.sequence,
           "step_sizes": gt.step_sizes()}
    bound_id = "thm3_orbit" if n1 is not None else "thm3_plain"
    return _power_product(bound_id, ((value, 1),), ctx)


# The corollary's alpha as printed, and as corrected; a report may ask for both.
COROLLARY_MODES = ("corrected", "verbatim")


def eval_corollary(g: Graph, mode: str = "corrected") -> BoundValue:
    """n * alpha! * delta! * ((delta-1)!)^r with r = floor((n-delta-1)/(delta-1)).

    verbatim mode uses alpha = n - r*(delta-1) as printed in the source
    statement; corrected mode uses alpha = n - delta - 1 - r*(delta-1), the
    remainder that actually satisfies 0 <= alpha < delta - 1."""
    if mode not in COROLLARY_MODES:
        raise ValueError(f"unknown corollary mode {mode!r}")
    n, delta = g.n, g.delta_max
    if delta < 2:
        return _gated("corollary", "requires max degree >= 2", {"mode": mode})
    r = (n - delta - 1) // (delta - 1)
    alpha = n - r * (delta - 1) if mode == "verbatim" else n - delta - 1 - r * (delta - 1)
    value = n * factorial(alpha) * factorial(delta) * factorial(delta - 1) ** r
    return _power_product("corollary", ((value, 1),), {"mode": mode, "r": r, "alpha": alpha})


def eval_thm1_tree(g: Graph, t: SpanningTree) -> BoundValue:
    """Spanning-tree embedding bound: the exact number of labeled copies of t
    in g when brute force is feasible, otherwise the product of the
    degree-product estimates for copies and tree automorphisms."""
    if not t.spans(g):
        raise ValueError("tree does not span the host graph")
    ctx = {"tree_edges": tuple(t.edges())}
    if g.n <= EMBED_VERTEX_LIMIT:
        ctx["route"] = "exact_embeddings"
        value = count_labeled_embeddings(t, g)
        return _power_product("thm1_tree", ((value, 1),), ctx)
    ctx["route"] = "fs_fa_product"
    value = embedding_upper_fs(g) * tree_aut_upper(t)
    return _power_product("thm1_tree", ((value, 1),), ctx)


# ---------------------------------------------------------------------------
# The registry: one ordered table of the catalogue.  Each evaluator draws on
# a report's _Inputs; a prerequisite that is unavailable gates the row.
# ---------------------------------------------------------------------------

class _Gate(Exception):
    """A prerequisite of a bound is unavailable; the message is the reason."""


class _Inputs:
    """The graph and options of one report plus the prerequisites the
    evaluators share, each computed on first use and at most once."""

    def __init__(self, g: Graph, options: ReportOptions, aut_res: AutResult | None):
        self.g, self.options, self.aut_res = g, options, aut_res
        self.connected = is_connected(g)

    @property
    def host(self) -> Graph:
        """The graph; every formula needs it connected, so this gate comes first."""
        if not self.connected:
            raise _Gate("graph is disconnected")
        return self.g

    @_lazy
    def greedy(self) -> GreedyTree:
        return greedy_spanning_tree(self.host, 0)

    def _structural(self) -> Graph:
        if self.host.n > STRUCTURE_VERTEX_LIMIT:
            raise _Gate(f"exact structural analysis capped at n <= {STRUCTURE_VERTEX_LIMIT}")
        return self.g

    @_lazy
    def p(self) -> int:
        return path_cover_number(self._structural()).p

    @_lazy
    def m(self) -> int:
        return max(3, star_free_parameter(self._structural()).m_min)

    @_lazy
    def thm3_trees(self) -> tuple[GreedyTree, ...]:
        """The greedy tree from 0, or with exhaustive_start the best greedy
        tree from every start vertex."""
        if not self.options.exhaustive_start:
            return (self.greedy,)
        return tuple(gt for gt, _ in best_greedy_tree(self.host))


def _rows(r: _Inputs, bound_id: str, evaluate) -> list[BoundValue]:
    """The rows evaluate(r) gives, or one gated row if a prerequisite is missing."""
    try:
        rows = evaluate(r)
    except _Gate as gate:
        return [_gated(bound_id, str(gate))]
    return rows if isinstance(rows, list) else [rows]


def _thm3(r: _Inputs, with_orbit: bool) -> BoundValue:
    """eval_thm3 minimised over the candidate trees (the first minimum wins)."""
    g = r.host
    if with_orbit and r.aut_res is None:
        raise _Gate("orbit size needs the exact automorphism oracle")
    best = None
    for gt in r.thm3_trees:
        bv = eval_thm3(g, gt, len(r.aut_res.orbit_of(gt.root)) if with_orbit else None)
        if best is None or bv.exact_value < best.exact_value:
            best = bv
    return BoundValue(best.bound_id, True, None, best.exact_value, best.log2_value,
                      {**best.context, "exhaustive": r.options.exhaustive_start})


def _corollary(r: _Inputs) -> BoundValue | list[BoundValue]:
    """One row in the chosen mode; "both" gives a corollary_<mode> row per mode."""
    mode = r.options.corollary_mode
    if mode != "both":
        return eval_corollary(r.host, mode)
    return [BoundValue(f"corollary_{m}", bv.applicable, bv.reason, bv.exact_value,
                       bv.log2_value, bv.context)
            for m in COROLLARY_MODES
            for bv in _rows(r, "corollary", lambda r, m=m: eval_corollary(r.host, m))]


# id -> (CLI alias or None, evaluator); the order is the report's row order.
REGISTRY = {
    "thm1_tree": ("thm1", lambda r: eval_thm1_tree(r.host, r.greedy.tree)),
    "eq1_nashwilliams": ("eq1", lambda r: eval_eq1(r.host)),
    "eq2_tree_product": ("eq2", lambda r: eval_eq2(r.host, r.greedy.tree)),
    "eq3_pathcover": ("eq3", lambda r: eval_eq3(r.host, r.p)),
    "eq4_degree_exponent": ("eq4", lambda r: eval_eq4(r.host)),
    "eq5_special_class": ("eq5", lambda r: eval_eq5(r.host, r.options.class5_asserted)),
    "eq6_starfree": ("eq6", lambda r: eval_eq6(r.host, r.m)),
    "eq7_hamiltonian": ("eq7", lambda r: eval_eq7(r.host, r.p == 1)),
    "eq8_hampath_edges": ("eq8", lambda r: eval_eq8(r.host, r.p == 1)),
    "thm3_orbit": ("thm3", lambda r: _thm3(r, with_orbit=True)),
    "thm3_plain": (None, lambda r: _thm3(r, with_orbit=False)),
    "corollary": (None, _corollary),
}
BOUND_IDS = tuple(REGISTRY)


# ---------------------------------------------------------------------------
# Report assembly.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReportOptions:
    """Engine-level report options; the CLI layers I/O choices on top."""

    bounds: tuple[str, ...] | None = None
    exact_aut: bool = True
    exhaustive_start: bool = False
    class5_asserted: bool = False
    corollary_mode: str = "corrected"  # one of COROLLARY_MODES, or both

    def __post_init__(self):
        if self.bounds is not None:
            unknown = [b for b in self.bounds if b not in BOUND_IDS]
            if unknown:
                raise ValueError(f"unknown bound ids: {unknown}")
        if self.corollary_mode not in (*COROLLARY_MODES, "both"):
            raise ValueError(f"unknown corollary mode {self.corollary_mode!r}")


@dataclass
class BoundReport:
    graph_id: str
    n: int
    e: int
    connected: bool
    aut_exact: int | None
    orbits: tuple[tuple[int, ...], ...] | None
    bounds: list[BoundValue]
    gaps: dict[str, float]
    notes: list[str]

    def bound(self, bound_id: str) -> BoundValue:
        for bv in self.bounds:
            if bv.bound_id == bound_id:
                return bv
        raise KeyError(bound_id)

    def soundness_violations(self) -> list[str]:
        """Bound ids whose applicable value drops below the exact order.
        Exact values compare exactly; log-domain values get the 1e-9 slack."""
        if self.aut_exact is None:
            return []
        bad = []
        log2_aut = _power_value(((self.aut_exact, 1),), 0)[1]
        for bv in self.bounds:
            if not bv.applicable:
                continue
            if bv.exact_value is not None:
                if bv.exact_value < self.aut_exact:
                    bad.append(bv.bound_id)
            elif bv.log2_value < log2_aut - LOG2_COMPARISON_SLACK:
                bad.append(bv.bound_id)
        return bad


def compose_report(g: Graph, options: ReportOptions = ReportOptions()) -> BoundReport:
    """Evaluate every requested bound on g, gated by applicability, and attach
    per-bound log2 tightness gaps against the exact order."""
    aut_res = aut_order(g) if options.exact_aut else None
    r = _Inputs(g, options, aut_res)
    notes: list[str] = []
    if not options.exact_aut:
        notes.append("exact automorphism order suppressed by options; gaps omitted")
    if not r.connected:
        notes.append("graph is disconnected: every bound requires a connected host")

    out: list[BoundValue] = []
    for bid in BOUND_IDS if options.bounds is None else options.bounds:
        out.extend(_rows(r, bid, REGISTRY[bid][1]))

    gaps: dict[str, float] = {}
    if aut_res is not None:
        log2_aut = _power_value(((aut_res.order, 1),), 0)[1]
        for bv in out:
            if bv.applicable:
                gaps[bv.bound_id] = bv.log2_value - log2_aut

    return BoundReport(
        graph_id=write_graph6(g),
        n=g.n,
        e=g.e,
        connected=r.connected,
        aut_exact=aut_res.order if aut_res else None,
        orbits=aut_res.orbits if aut_res else None,
        bounds=out,
        gaps=gaps,
        notes=notes,
    )

