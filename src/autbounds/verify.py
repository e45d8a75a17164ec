"""Verification sweeps over the exhaustive small-graph corpora.

Each suite returns a SuiteResult whose ``violations`` list is empty on
success; every violation about one graph starts with it in graph6 form, so a
failure is reproducible (the corpus-count line, about the whole corpus, is
the one exception).  All randomness is seeded: repeated runs print the same.

The corpus is the connected graphs with n <= nmax, or an external list that
``run_suites`` refuses, before any suite runs, if theorem1 or the oracle
cannot take it.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from math import factorial

from . import bounds as bounds_mod
from .automorphisms import NAIVE_VERTEX_LIMIT, aut_order, aut_order_naive
from .bounds import ReportOptions, compose_report
from .corpus import CONNECTED_GRAPH_COUNTS, GENERATION_LIMIT, connected_graphs
from .embeddings import CountingIdentityError, count_embeddings
from .graphs import (
    Graph,
    SizeLimitError,
    complete_bipartite_graph,
    complete_graph,
    is_connected,
    random_graph,
    write_graph6,
)
from .trees import (
    ENUM_VERTEX_LIMIT,
    GreedyRecordError,
    all_spanning_trees,
    embedding_upper_fs,
    greedy_spanning_tree,
    spanning_tree_count,
    tree_aut_exact,
    tree_aut_upper,
    tree_certificate,
    verify_greedy_tree,
)

DEFAULT_SEED = 20020489


@dataclass
class SuiteResult:
    name: str
    checked: int
    violations: list[str] = field(default_factory=list)
    corpus_counts: dict[int, int] | None = None

    @property
    def passed(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        state = "PASS" if self.passed else "FAIL"
        return f"[{self.name}] {state}: {self.checked} checks, {len(self.violations)} violations"


def _corpus(nmax: int, external: list[Graph] | None = None) -> list[Graph]:
    if external is not None:
        return list(external)
    return [g for n in range(1, nmax + 1) for g in connected_graphs(n)]


def soundness_sweep(nmax: int = 7, external: list[Graph] | None = None) -> SuiteResult:
    """Every applicable bound must dominate the exact order on every connected
    graph: exact comparison for rational values, 1e-9 log2 slack otherwise.
    Orbit sizes dividing the order ride along on the same pass."""
    res = SuiteResult("soundness", 0)
    opts = ReportOptions(corollary_mode="both")
    graphs = _corpus(nmax, external)
    for g in graphs:
        rep = compose_report(g, opts)
        res.checked += 1
        for bid in rep.soundness_violations():
            bv = rep.bound(bid)
            res.violations.append(
                f"{rep.graph_id}: {bid} = {bv.exact_value or bv.log2_value} "
                f"< aut = {rep.aut_exact}")
        for orb in rep.orbits:
            if rep.aut_exact % len(orb) != 0:
                res.violations.append(
                    f"{rep.graph_id}: orbit size {len(orb)} does not divide {rep.aut_exact}")
    res.corpus_counts = dict(sorted(Counter(g.n for g in graphs).items()))
    if external is None:
        expected = {n: CONNECTED_GRAPH_COUNTS[n] for n in range(1, nmax + 1)}
        if res.corpus_counts != expected:
            res.violations.append(f"corpus counts {res.corpus_counts} != expected {expected}")
    return res


def greedy_sweep(nmax: int = 7, external: list[Graph] | None = None) -> SuiteResult:
    """Greedy construction record is valid for every start vertex, including
    the degree-sum identity 1 + d(v0) + sum(step sizes) = n; the resulting
    trees must also sit below the degree-product automorphism estimate.  A
    disconnected graph is one violation; any error but a rejected record
    is a fault, and propagates."""
    res = SuiteResult("greedy-construction", 0)
    for g in _corpus(nmax, external):
        gid = write_graph6(g)
        if not is_connected(g):
            res.checked += 1
            res.violations.append(f"{gid}: disconnected, so it has no spanning tree")
            continue
        for v0 in range(g.n):
            res.checked += 1
            gt = greedy_spanning_tree(g, v0)
            try:
                verify_greedy_tree(g, gt)
            except GreedyRecordError as exc:
                res.violations.append(f"{gid}: start {v0}: {exc}")
                continue
            if g.n >= 3 and tree_aut_exact(gt.tree) > tree_aut_upper(gt.tree):
                res.violations.append(
                    f"{gid}: greedy tree from {v0} above the degree-product estimate")
    return res


def exactness_suite() -> SuiteResult:
    """The greedy-tree orbit bound, minimised over start vertices and leaf
    choices, attains the exact order on complete and complete bipartite
    graphs; the classical degree bound attains it on complete graphs."""
    res = SuiteResult("exactness", 0)
    cases: list[tuple[str, Graph, int]] = []
    for n in range(3, 8):
        cases.append((f"K_{n}", complete_graph(n), factorial(n)))
    for m in range(2, 5):
        cases.append((f"K_{m},{m}", complete_bipartite_graph(m, m), 2 * factorial(m) ** 2))
    for q in range(2, 6):
        for p in range(1, q):
            cases.append((f"K_{p},{q}", complete_bipartite_graph(p, q),
                          factorial(p) * factorial(q)))
    opts = ReportOptions(bounds=("thm3_orbit",), exhaustive_start=True)
    for name, g, target in cases:
        res.checked += 1
        rep = compose_report(g, opts)
        bv = rep.bound("thm3_orbit")
        if rep.aut_exact != target:
            res.violations.append(f"{rep.graph_id} ({name}): aut {rep.aut_exact} != {target}")
        if bv.exact_value != target:
            res.violations.append(
                f"{rep.graph_id} ({name}): thm3_orbit {bv.exact_value} != {target}")
    for n in range(3, 8):
        res.checked += 1
        g = complete_graph(n)
        bv = bounds_mod.eval_eq1(g)
        if bv.exact_value != factorial(n):
            res.violations.append(
                f"{write_graph6(g)} (K_{n}): eq1 {bv.exact_value} != {factorial(n)}")
    return res


def oracle_suite(exhaustive_nmax: int = 6, trials: int = 200,
                 seed: int = DEFAULT_SEED, external: list[Graph] | None = None) -> SuiteResult:
    """Search-based order equals the naive permutation count on the corpus
    (the connected graphs with n <= exhaustive_nmax, or the external list)
    and on ``trials`` seeded random graphs each at n = 7 and 8."""
    res = SuiteResult("oracle-cross-validation", 0)
    rng = random.Random(seed)
    seeded = (random_graph(n, rng) for n in (7, 8) for _ in range(trials))
    for g in chain(_corpus(exhaustive_nmax, external), seeded):
        res.checked += 1
        fancy = aut_order(g).order
        naive = aut_order_naive(g)
        if fancy != naive:
            res.violations.append(f"{write_graph6(g)}: search {fancy} != naive {naive}")
    return res


def theorem1_suite(nmax: int = 6, external: list[Graph] | None = None) -> SuiteResult:
    """For every connected graph and every one of its spanning trees:

    - aut(G) <= labeled copies of the tree, with the counting identity
      labeled = copies * aut(T) re-derived by independent enumeration;
    - the subgraph-copy estimate prod(d_G(v))/delta_G dominates the true
      copy count, and (for trees with an internal vertex) the degree-product
      estimate dominates the true tree automorphism count.

    Trees are enumerated twice (subset+acyclicity here, subset+isomorphism in
    the copy census), reconciled per class and checked against the Laplacian
    determinant.  Each check runs once per class, on its first member:
    isomorphic trees share aut(T) and degrees, so the ceiling too, and the
    census catches a certificate that merges non-isomorphic trees.
    """
    res = SuiteResult("theorem1-embeddings", 0)
    for g in _corpus(nmax, external):
        gid = write_graph6(g)
        if not is_connected(g):
            res.checked += 1
            res.violations.append(f"{gid}: disconnected, so it has no spanning tree")
            continue
        trees = all_spanning_trees(g)
        det = spanning_tree_count(g)
        if det != len(trees):
            res.violations.append(f"{gid}: determinant {det} != enumerated {len(trees)}")
        aut_g = aut_order(g).order
        fs_cap = embedding_upper_fs(g) if g.n >= 2 else None
        classes: dict = {}
        for t in trees:
            classes.setdefault(tree_certificate(t), []).append(t)
        try:
            counts = count_embeddings([members[0] for members in classes.values()], g)
        except CountingIdentityError as exc:
            res.checked += 1
            res.violations.append(f"{gid}: {exc}")
            continue
        for members, ec in zip(classes.values(), counts):
            rep_tree = members[0]
            rep_aut = tree_aut_exact(rep_tree)
            res.checked += 1
            if ec.copies != len(members):
                res.violations.append(
                    f"{gid}: class of {rep_tree.edges()}: subset+iso count "
                    f"{ec.copies} != certificate census {len(members)}")
            if aut_g > ec.labeled:
                res.violations.append(
                    f"{gid}: aut {aut_g} > labeled copies {ec.labeled} "
                    f"of {rep_tree.edges()}")
            if ec.aut_f != rep_aut:
                res.violations.append(
                    f"{gid}: naive tree count {ec.aut_f} != centroid count {rep_aut}")
            if fs_cap is not None and ec.copies > fs_cap:
                res.violations.append(
                    f"{gid}: copies {ec.copies} above degree-product cap {fs_cap}")
            if g.n >= 3 and rep_aut > tree_aut_upper(rep_tree):
                res.violations.append(
                    f"{gid}: tree {rep_tree.edges()}: exact {rep_aut} "
                    f"> estimate {tree_aut_upper(rep_tree)}")
    return res


# Suite name -> its runs, each run(nmax, trials, seed, external).  A run looks
# its suite up in this module when called, so a rebound name (a tracer's wrapper,
# a spy) is what runs.  theorem1 and the exhaustive oracle stay at n <= 6.
SUITES = {
    "soundness": (
        lambda nmax, trials, seed, external: soundness_sweep(nmax=nmax, external=external),
        lambda nmax, trials, seed, external: greedy_sweep(nmax=nmax, external=external)),
    "exactness": (lambda nmax, trials, seed, external: exactness_suite(),),
    "oracle": (lambda nmax, trials, seed, external: oracle_suite(
        exhaustive_nmax=min(nmax, 6), trials=trials, seed=seed, external=external),),
    "theorem1": (lambda nmax, trials, seed, external: theorem1_suite(
        nmax=min(nmax, 6), external=external),),
}


def run_suites(names, nmax: int = 6, trials: int = 50,
               seed: int = DEFAULT_SEED, external: list[Graph] | None = None):
    """Run the named suites, every check done first: unknown names, nmax
    outside 1..GENERATION_LIMIT (a ValueError, a SizeLimitError above), and
    an external graph too large for theorem1 or the oracle.  Returns a list
    of SuiteResults."""
    runs = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
        runs.extend(SUITES[name])
    if nmax > GENERATION_LIMIT:
        raise SizeLimitError(
            f"exhaustive suites are capped at nmax <= {GENERATION_LIMIT}, got {nmax}")
    if nmax < 1:
        raise ValueError(f"nmax must be at least 1, got {nmax}")
    # theorem1 first: its refusal is the one the default suites give.
    for name, what, limit in (("theorem1", "enumerates spanning trees", ENUM_VERTEX_LIMIT),
                              ("oracle", "counts permutations", NAIVE_VERTEX_LIMIT)):
        big = next((g for g in external or () if g.n > limit), None)
        if big is not None and name in names:
            raise SizeLimitError(
                f"{name} {what} only for n <= {limit}; "
                f"{write_graph6(big)} has n={big.n} (drop {name} from --suites)")
    return [run(nmax, trials, seed, external) for run in runs]
