"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The exhaustive sweeps
regenerate their corpora in-process and double-check the class counts, so a
generation bug cannot silently shrink the evidence.
"""

from math import factorial

import pytest

from autbounds.automorphisms import aut_order
from autbounds.bounds import ReportOptions, compose_report
from autbounds.corpus import CONNECTED_GRAPH_COUNTS, connected_graphs
from autbounds.graphs import complete_bipartite_graph, complete_graph
from autbounds.bounds import eval_eq1
from autbounds.trees import SpanningTree, tree_aut_exact, tree_aut_upper
from autbounds.verify import (
    exactness_suite,
    greedy_sweep,
    oracle_suite,
    soundness_sweep,
    theorem1_suite,
)

EXPECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


def _report(name: str, ok: bool, detail: str = ""):
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_1_soundness_sweep():
    res = soundness_sweep(nmax=7)
    counts = res.corpus_counts
    assert counts == EXPECTED_COUNTS, counts
    assert sum(counts.values()) == 996
    _report("criterion 1: soundness sweep over 996 connected graphs (n <= 7)",
            res.passed, f"{res.checked} graphs, {len(res.violations)} violations"
            + ("; first: " + res.violations[0] if res.violations else ""))


def test_criterion_2_orbit_bound_exactness():
    res = exactness_suite()
    # Pin the named targets independently of the suite's own arithmetic.
    targets = {3: 6, 4: 24, 5: 120, 6: 720, 7: 5040}
    for n, want in targets.items():
        rep = compose_report(complete_graph(n),
                             ReportOptions(bounds=("thm3_orbit",), exhaustive_start=True))
        assert rep.aut_exact == want
        assert rep.bound("thm3_orbit").exact_value == want
    for m, want in {2: 8, 3: 72, 4: 1152}.items():
        rep = compose_report(complete_bipartite_graph(m, m),
                             ReportOptions(bounds=("thm3_orbit",), exhaustive_start=True))
        assert rep.aut_exact == want == rep.bound("thm3_orbit").exact_value
    for q in range(2, 6):
        for p in range(1, q):
            rep = compose_report(complete_bipartite_graph(p, q),
                                 ReportOptions(bounds=("thm3_orbit",), exhaustive_start=True))
            want = factorial(p) * factorial(q)
            assert rep.aut_exact == want == rep.bound("thm3_orbit").exact_value
    _report("criterion 2: orbit-bound exactness on K_n, K_{m,m}, K_{p,q}",
            res.passed, f"{res.checked} family checks")


def test_criterion_3_eq1_exact_on_complete_graphs():
    ok = True
    for n in range(3, 8):
        bv = eval_eq1(complete_graph(n))
        ok = ok and bv.exact_value == factorial(n)
    _report("criterion 3: eq1 equals n! on K_n for 3 <= n <= 7", ok)


def test_criterion_4_oracle_cross_validation():
    res = oracle_suite(exhaustive_nmax=6, trials=200)
    exhaustive = sum(CONNECTED_GRAPH_COUNTS[n] for n in range(1, 7))
    assert res.checked == exhaustive + 2 * 200
    _report("criterion 4: search order == naive order "
            "(143 exhaustive + 200 random at n=7 and n=8)",
            res.passed, f"{res.checked} comparisons, {len(res.violations)} mismatches")


def test_criterion_5_and_6_embeddings_and_estimates():
    res = theorem1_suite(nmax=6)
    _report("criterion 5: aut(G) <= labeled tree copies, identity cross-checked, n <= 6",
            res.passed, f"{res.checked} (graph, tree-class) checks"
            + ("; first: " + res.violations[0] if res.violations else ""))
    # Criterion 6 rides on the same sweep (copy estimate and degree-product
    # estimate per spanning tree).  The single-edge tree of K_2 is the one
    # degenerate point below the degree-product formula; pin it explicitly.
    edge = SpanningTree.from_edges(2, [(0, 1)])
    assert tree_aut_exact(edge) == 2 and tree_aut_upper(edge) == 1
    _report("criterion 6: copy and tree-automorphism estimates hold on the sweep "
            "(single-edge boundary case pinned)", res.passed)


@pytest.mark.slow
def test_criterion_5_theorem1_at_n7():
    res = theorem1_suite(nmax=7)
    assert res.checked == 7670
    _report("criterion 5 at n <= 7: aut(G) <= labeled tree copies, identity cross-checked",
            res.passed, f"{res.checked} (graph, tree-class) checks"
            + ("; first: " + res.violations[0] if res.violations else ""))


def test_criterion_7_greedy_invariants():
    res = greedy_sweep(nmax=7)
    assert res.checked == sum(n * CONNECTED_GRAPH_COUNTS[n] for n in range(1, 8))
    _report("criterion 7: greedy construction invariants, every start vertex, n <= 7",
            res.passed, f"{res.checked} constructions")


def test_criterion_8_orbit_sizes_divide_order():
    bad = []
    for n in range(1, 8):
        for g in connected_graphs(n):
            res = aut_order(g)
            for orb in res.orbits:
                if res.order % len(orb) != 0:
                    bad.append((g, orb))
    _report("criterion 8: every orbit size divides the group order (n <= 7)",
            not bad, f"{sum(CONNECTED_GRAPH_COUNTS[n] for n in range(1, 8))} graphs")


def test_criterion_9_no_large_scale_reproduction():
    # No experimental tables exist to reproduce; acceptance rests on the
    # exhaustive property sweeps plus the named exact values above.
    _report("criterion 9: no large-scale results to reproduce; property suites stand in",
            True)
