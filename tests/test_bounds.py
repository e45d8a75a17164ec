import sys
import threading
from dataclasses import replace
from fractions import Fraction
from math import factorial, log2

import mpmath
import pytest
from hypothesis import given, strategies as st

from autbounds import bounds
from autbounds.automorphisms import aut_order, aut_order_naive
from autbounds.bounds import (
    BOUND_IDS,
    COROLLARY_MODES,
    LOG2_COMPARISON_SLACK,
    WORKING_PRECISION_BITS,
    _log2,
    _power_value,
    BoundValue,
    ReportOptions,
    compose_report,
    eval_corollary,
    eval_eq1,
    eval_eq2,
    eval_eq3,
    eval_eq4,
    eval_eq5,
    eval_eq6,
    eval_eq7,
    eval_eq8,
    eval_thm1_tree,
    eval_thm3,
)
from autbounds.corpus import all_graphs
from autbounds.graphs import (
    Graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    grid_graph,
    is_connected,
    path_graph,
    petersen_graph,
    star_graph,
)
from autbounds.trees import SpanningTree, best_greedy_tree, greedy_spanning_tree

from helpers import connected_graphs_st

# log2 of the edge-excess base 2^(7/8) * 6^(1/24), recomputed independently
EDGE_BASE_LOG2 = 7 / 8 + log2(6) / 24


def star_tree(n):
    return SpanningTree.from_edges(n, [(0, v) for v in range(1, n)])


def path_tree(n):
    return SpanningTree.from_edges(n, [(v, v + 1) for v in range(n - 1)])


# --- eq1 ------------------------------------------------------------------

def test_eq1_values():
    assert eval_eq1(complete_graph(4)).exact_value == 24
    assert eval_eq1(cycle_graph(4)).exact_value == 8
    assert eval_eq1(petersen_graph()).exact_value == 3840
    assert eval_eq1(complete_graph(2)).exact_value == 2
    assert eval_eq1(Graph(1, (0,))).exact_value == 1


# --- eq2 ------------------------------------------------------------------

def test_eq2_values():
    assert eval_eq2(complete_graph(4), star_tree(4)).exact_value == 162
    assert eval_eq2(cycle_graph(4), path_tree(4)).exact_value == 16
    assert eval_eq2(path_graph(3), path_tree(3)).exact_value == Fraction(64, 27)


def test_eq2_gated_on_single_edge():
    bv = eval_eq2(complete_graph(2), path_tree(2))
    assert not bv.applicable and "degenerates" in bv.reason


def test_eq2_rejects_non_spanning():
    with pytest.raises(ValueError):
        eval_eq2(path_graph(4), star_tree(4))


# --- eq3 / eq8 -------------------------------------------------------------

def test_eq3_c4_exact():
    bv = eval_eq3(cycle_graph(4), 1)
    assert bv.exact_value == 32 and bv.log2_value == pytest.approx(5.0, abs=1e-12)


def test_eq3_k4():
    bv = eval_eq3(complete_graph(4), 1)
    assert bv.exact_value is None
    assert bv.log2_value == pytest.approx(5 + 2 * EDGE_BASE_LOG2, abs=1e-9)


def test_eq3_claw():
    bv = eval_eq3(star_graph(3), 2)
    assert bv.log2_value == pytest.approx(10 - EDGE_BASE_LOG2, abs=1e-9)


@pytest.mark.parametrize("n, excess", [(4, 2), (8, 20)], ids=["K4", "K8"])
def test_edge_excess_term_is_summed_at_working_precision(n, excess):
    # eq3 at p = 1 on K_n is log2(2n^2) + excess * (7/8 + log2(6)/24), summed
    # at 120 bits and rounded once.  On K8 an edge-excess term taken at 53
    # bits moves the float; on K4 its error stays below the float's ulp.
    with mpmath.workprec(WORKING_PRECISION_BITS):
        edge = mpmath.mpf(7) / 8 + mpmath.log(mpmath.mpf(6), 2) / 24
        expected = float(mpmath.log(mpmath.mpf(2 * n * n), 2) + excess * edge)
    for caller_prec in (53, WORKING_PRECISION_BITS, 200):
        _power_value.cache_clear()
        with mpmath.workprec(caller_prec):
            bv = eval_eq3(complete_graph(n), 1)
        assert bv.context["edge_excess"] == excess and bv.exact_value is None
        assert bv.log2_value.hex() == expected.hex()


def test_eq8_examples():
    assert eval_eq8(cycle_graph(4), True).exact_value == 32
    assert eval_eq8(cycle_graph(5), True).exact_value == 50
    k4 = eval_eq8(complete_graph(4), True)
    assert 2 ** k4.log2_value == pytest.approx(32 * 2 ** (2 * EDGE_BASE_LOG2), rel=1e-12)
    assert not eval_eq8(star_graph(3), False).applicable


@given(connected_graphs_st(max_n=8))
def test_eq8_is_eq3_at_p1(g):
    via_p1 = eval_eq3(g, 1)
    eq8 = eval_eq8(g, True)
    assert eq8.log2_value == via_p1.log2_value  # bit-for-bit
    assert eq8.exact_value == via_p1.exact_value


# --- eq4 ------------------------------------------------------------------

def test_eq4_petersen_exact():
    bv = eval_eq4(petersen_graph())
    assert bv.exact_value == 118098
    assert bv.context["exponent"] == 1


def test_eq4_k4_log_domain():
    bv = eval_eq4(complete_graph(4))
    assert bv.exact_value is None
    assert bv.context["exponent"] == Fraction(-1, 2)
    assert bv.log2_value == pytest.approx(4 * log2(3) - 0.5, abs=1e-9)


def test_eq4_gates():
    bv = eval_eq4(cycle_graph(4))
    assert not bv.applicable  # max degree 2 < 3
    bv = eval_eq4(star_graph(3))
    assert not bv.applicable  # min degree 1 < 2


# --- eq5 ------------------------------------------------------------------

def test_eq5_k4():
    assert eval_eq5(complete_graph(4), True).exact_value == 162


def test_eq5_gate():
    bv = eval_eq5(cycle_graph(4), False)
    assert not bv.applicable and "not asserted" in bv.reason


def test_eq5_cube():
    q3 = Graph.from_edges(8, [(i, i ^ b) for i in range(8) for b in (1, 2, 4) if i < (i ^ b)])
    assert aut_order(q3).order == 48 == aut_order_naive(q3)
    assert eval_eq5(q3, True).exact_value == 52488


def test_eq5_odd_n_log_domain():
    bv = eval_eq5(cycle_graph(5), True)
    assert bv.exact_value is None
    assert bv.log2_value == pytest.approx(log2(3) + 1.5 + 5 * 1 - 1, abs=1e-9)


# --- eq6 ------------------------------------------------------------------

def test_eq6_values():
    assert eval_eq6(complete_graph(4), 3).exact_value == 54
    assert eval_eq6(path_graph(4), 3).exact_value == Fraction(81, 16)
    assert eval_eq6(star_graph(3), 4).exact_value == Fraction(81, 2)


def test_eq6_gate_below_three():
    assert not eval_eq6(complete_graph(3), 2).applicable


def test_eq6_fractional_exponent():
    bv = eval_eq6(star_graph(3), 5)  # n=4, m-2=3 does not divide 4
    assert bv.exact_value is None
    expected = log2(24) + Fraction(4, 3) * log2(6) + 4 * log2(1.5) - log2(3)
    assert bv.log2_value == pytest.approx(float(expected), abs=1e-9)


# --- the one exact/log-only rule --------------------------------------------

def test_log2_of_two_is_exactly_one():
    # eq5's log-only sum multiplies its (n-2)/2 by _log2(2, 1)
    assert _log2(2, 1) == 1


def test_power_product_rows_exact_iff_integer_exponents(corpus7):
    opts = ReportOptions(corollary_mode="both", class5_asserted=True)
    seen = set()
    for n, graphs in corpus7.items():
        for g in graphs:
            rows = {bv.bound_id: bv for bv in compose_report(g, opts).bounds}
            expected = {"eq3_pathcover": g.e == n, "eq8_hampath_edges": g.e == n,
                        "eq5_special_class": n % 2 == 0}
            eq4 = rows["eq4_degree_exponent"]
            if eq4.applicable:
                q = eq4.context["exponent"]
                k4 = n == 4 and g.e == 6
                assert q >= 0 or (k4 and q == Fraction(-1, 2)), g
                expected["eq4_degree_exponent"] = q.denominator == 1
            eq6 = rows["eq6_starfree"]
            if eq6.applicable:
                expected["eq6_starfree"] = n % (eq6.context["m"] - 2) == 0
            for bid, exact in expected.items():
                bv = rows[bid]
                if not bv.applicable:
                    continue
                assert (bv.exact_value is not None) == exact, (bid, g)
                assert bv.log2_value is not None
                seen.add((bid, exact))
    # both routes of every row are taken on the corpus
    assert len(seen) == 10


# --- eq7 ------------------------------------------------------------------

def test_eq7_values():
    assert eval_eq7(cycle_graph(4), True).exact_value == Fraction(256, 27)
    assert eval_eq7(complete_graph(4), True).exact_value == 32
    assert eval_eq7(path_graph(4), True).exact_value == 4
    assert not eval_eq7(star_graph(3), False).applicable


# --- thm3 ------------------------------------------------------------------

def test_thm3_k4():
    k4 = complete_graph(4)
    bv = eval_thm3(k4, greedy_spanning_tree(k4, 0), 4)
    assert bv.exact_value == 24 == aut_order(k4).order


def test_thm3_k23():
    k23 = complete_bipartite_graph(2, 3)
    bv = eval_thm3(k23, greedy_spanning_tree(k23, 0), 2)
    assert bv.exact_value == 12 == aut_order(k23).order


def test_thm3_p4():
    p4 = path_graph(4)
    bv = eval_thm3(p4, greedy_spanning_tree(p4, 0), 2)
    assert bv.exact_value == 2 == aut_order(p4).order


def test_thm3_plain_uses_n():
    p4 = path_graph(4)
    bv = eval_thm3(p4, greedy_spanning_tree(p4, 0))
    assert bv.bound_id == "thm3_plain" and bv.exact_value == 4


# --- corollary --------------------------------------------------------------

def test_corollary_k4():
    k4 = complete_graph(4)
    assert eval_corollary(k4, "corrected").exact_value == 24
    assert eval_corollary(k4, "verbatim").exact_value == 576


def test_corollary_c6():
    bv = eval_corollary(cycle_graph(6), "corrected")
    assert bv.exact_value == 12 == aut_order(cycle_graph(6)).order
    assert bv.context["r"] == 3 and bv.context["alpha"] == 0


def test_corollary_gates():
    assert not eval_corollary(complete_graph(2), "corrected").applicable
    with pytest.raises(ValueError):
        eval_corollary(complete_graph(4), "sideways")


# --- thm1 -------------------------------------------------------------------

def test_thm1_exact_routes():
    assert eval_thm1_tree(complete_graph(4), star_tree(4)).exact_value == 24
    assert eval_thm1_tree(cycle_graph(4), path_tree(4)).exact_value == 8
    bv = eval_thm1_tree(cycle_graph(5), path_tree(5))
    assert bv.exact_value == 10 == aut_order(cycle_graph(5)).order
    assert bv.context["route"] == "exact_embeddings"


def test_thm1_estimate_route():
    pet = petersen_graph()
    t = greedy_spanning_tree(pet, 0).tree
    bv = eval_thm1_tree(pet, t)
    assert bv.context["route"] == "fs_fa_product"
    from autbounds.trees import embedding_upper_fs, tree_aut_upper
    assert bv.exact_value == embedding_upper_fs(pet) * tree_aut_upper(t)
    assert bv.exact_value >= 120


# --- compose_report ---------------------------------------------------------

def test_report_k4_defaults():
    rep = compose_report(complete_graph(4))
    assert rep.aut_exact == 24
    assert len(rep.bounds) == 12
    assert [bv.bound_id for bv in rep.bounds] == list(BOUND_IDS)
    tight = {bid for bid, gap in rep.gaps.items() if abs(gap) < 1e-9}
    assert {"eq1_nashwilliams", "thm3_orbit", "corollary"} <= tight
    assert rep.soundness_violations() == []


def test_report_bounds_filter():
    rep = compose_report(complete_graph(4),
                         ReportOptions(bounds=("eq1_nashwilliams", "thm3_orbit")))
    assert [bv.bound_id for bv in rep.bounds] == ["eq1_nashwilliams", "thm3_orbit"]


def test_report_prerequisites_lazy_and_once(monkeypatch):
    import autbounds.bounds as bounds_mod
    calls = []
    names = ("greedy_spanning_tree", "path_cover_number", "star_free_parameter")
    for name in names:
        real = getattr(bounds_mod, name)
        monkeypatch.setattr(bounds_mod, name,
                            lambda *a, name=name, real=real: calls.append(name) or real(*a))
    rep = compose_report(petersen_graph(), ReportOptions(bounds=("eq1_nashwilliams",)))
    assert rep.bound("eq1_nashwilliams").exact_value == 3840
    assert calls == []
    compose_report(petersen_graph(), ReportOptions(corollary_mode="both"))
    assert sorted(calls) == sorted(names)


GRID_SEQUENCE = (0, 1, 2, 6, 7, 12, 18, 13, 8, 3, 19, 14, 9, 4, 5, 10, 11, 15, 16, 17)

# thm3 rows under exhaustive_start as one best_greedy_tree call per start
# vertex gave them: (bound id, value, start vertex, expansion sequence).
EXHAUSTIVE_THM3 = {
    "K2,3": (complete_bipartite_graph(2, 3),
             [("thm3_orbit", 12, 0, (0, 2)), ("thm3_plain", 20, 2, (2, 0))]),
    "grid4x6": (grid_graph(4, 6),
                [("thm3_orbit", 32, 0, GRID_SEQUENCE), ("thm3_plain", 192, 0, GRID_SEQUENCE)]),
}


@pytest.mark.parametrize("name", EXHAUSTIVE_THM3)
def test_exhaustive_start_runs_one_greedy_dp_per_report(monkeypatch, name):
    import autbounds.bounds as bounds_mod
    calls = []
    real = bounds_mod.best_greedy_tree
    monkeypatch.setattr(bounds_mod, "best_greedy_tree", lambda g: calls.append(g) or real(g))
    g, rows = EXHAUSTIVE_THM3[name]
    rep = compose_report(g, ReportOptions(exhaustive_start=True))
    assert calls == [g]
    for bid, value, v0, sequence in rows:
        bv = rep.bound(bid)
        assert (bv.exact_value, bv.context["v0"], bv.context["sequence"]) == (value, v0, sequence)
        assert bv.context["exhaustive"] is True


def test_report_structural_size_gate():
    rep = compose_report(cycle_graph(22), ReportOptions(exact_aut=False))
    reason = "exact structural analysis capped at n <= 20"
    for bid in ("eq3_pathcover", "eq6_starfree", "eq7_hamiltonian", "eq8_hampath_edges"):
        assert rep.bound(bid).reason == reason
    assert rep.bound("thm3_plain").applicable


def test_report_unknown_bound_rejected():
    with pytest.raises(ValueError, match="unknown bound"):
        ReportOptions(bounds=("eq1_nashwilliams", "eq99"))


def test_report_claw_gates():
    rep = compose_report(star_graph(3))
    assert not rep.bound("eq7_hamiltonian").applicable
    assert not rep.bound("eq8_hampath_edges").applicable
    assert not rep.bound("eq4_degree_exponent").applicable
    assert rep.bound("eq3_pathcover").applicable  # p=2 works fine


def test_report_disconnected():
    rep = compose_report(Graph.from_edges(4, [(0, 1), (2, 3)]))
    assert rep.aut_exact == 8
    assert all(not bv.applicable for bv in rep.bounds)
    assert all(bv.reason == "graph is disconnected" for bv in rep.bounds)
    assert rep.gaps == {}
    rep = compose_report(Graph.from_edges(4, [(0, 1), (2, 3)]),
                         ReportOptions(corollary_mode="both", exact_aut=False))
    assert [bv.bound_id for bv in rep.bounds][-2:] == ["corollary_corrected",
                                                        "corollary_verbatim"]
    assert {bv.reason for bv in rep.bounds} == {"graph is disconnected"}


def test_report_without_oracle():
    rep = compose_report(complete_graph(4), ReportOptions(exact_aut=False))
    assert rep.aut_exact is None and rep.gaps == {}
    assert not rep.bound("thm3_orbit").applicable
    assert rep.bound("thm3_plain").applicable


def test_report_corollary_both():
    rep = compose_report(complete_graph(4), ReportOptions(corollary_mode="both"))
    ids = [bv.bound_id for bv in rep.bounds]
    assert "corollary_corrected" in ids and "corollary_verbatim" in ids
    assert len(rep.bounds) == 13
    assert rep.bound("corollary_corrected").exact_value == 24
    assert rep.bound("corollary_verbatim").exact_value == 576


def test_report_exhaustive_start():
    k23 = complete_bipartite_graph(2, 3)
    rep = compose_report(k23, ReportOptions(exhaustive_start=True))
    assert rep.bound("thm3_orbit").exact_value == 12 == rep.aut_exact


# A report builds each row once, under its final id and context.  The thm3
# rows must equal eval_thm3's on the winning tree with "exhaustive" added,
# and the corollary rows eval_corollary's under the report's id, as the
# report built them by copying before.

def expected_thm3(g, exhaustive, with_orbit):
    trees = [gt for gt, _ in best_greedy_tree(g)] if exhaustive else [greedy_spanning_tree(g, 0)]
    aut = aut_order(g)
    best = None
    for gt in trees:
        bv = eval_thm3(g, gt, len(aut.orbit_of(gt.root)) if with_orbit else None)
        if best is None or bv.exact_value < best.exact_value:
            best = bv
    return BoundValue(best.bound_id, True, None, best.exact_value, best.log2_value,
                      {**best.context, "exhaustive": exhaustive})


def expected_corollary(g, mode):
    if mode != "both":
        return [eval_corollary(g, mode)]
    return [BoundValue(f"corollary_{m}", bv.applicable, bv.reason, bv.exact_value,
                       bv.log2_value, bv.context)
            for m in COROLLARY_MODES for bv in [eval_corollary(g, m)]]


@pytest.mark.parametrize("mode", [*COROLLARY_MODES, "both"])
@pytest.mark.parametrize("exhaustive", [False, True], ids=["greedy0", "exhaustive"])
def test_report_rows_equal_the_evaluators(exhaustive, mode):
    opts = ReportOptions(bounds=("thm3_orbit", "thm3_plain", "corollary"),
                         exhaustive_start=exhaustive, corollary_mode=mode)
    ids = [f"corollary_{m}" for m in COROLLARY_MODES] if mode == "both" else ["corollary"]
    checked = {True: 0, False: 0}
    for n in range(1, 8):
        for g in all_graphs(n):
            connected = is_connected(g)
            checked[connected] += 1
            if connected:
                expected = [expected_thm3(g, exhaustive, True),
                            expected_thm3(g, exhaustive, False), *expected_corollary(g, mode)]
            else:
                expected = [BoundValue(bid, False, "graph is disconnected", None, None, {})
                            for bid in ("thm3_orbit", "thm3_plain", *ids)]
            rows = compose_report(g, opts).bounds
            assert rows == expected, g
            # field for field, the context's key order (the JSON's) included
            for row, want in zip(rows, expected):
                assert type(row) is BoundValue
                assert list(row.context.items()) == list(want.context.items()), g
    assert checked == {True: 996, False: 1252 - 996}


def test_bound_value_contract():
    bv = BoundValue("eq1_nashwilliams", True, None, Fraction(24), 4.5, {"delta": 3})
    # kept: immutable, and the repr the frozen dataclass had
    with pytest.raises(AttributeError):
        bv.exact_value = Fraction(1)
    assert repr(bv) == ("BoundValue(bound_id='eq1_nashwilliams', applicable=True, "
                        "reason=None, exact_value=Fraction(24, 1), log2_value=4.5, "
                        "context={'delta': 3})")
    # the default context is one read-only empty mapping, never a dict to share
    a = BoundValue("eq5_special_class", False, "why", None, None)
    b = BoundValue("eq6_starfree", False, "why", None, None)
    assert a.context == {} and a.context is b.context
    with pytest.raises(TypeError):
        a.context["m"] = 3
    # changed: a row is a tuple, so it equals a plain tuple and iterates
    assert bv == ("eq1_nashwilliams", True, None, Fraction(24), 4.5, {"delta": 3})
    assert list(bv) == ["eq1_nashwilliams", True, None, Fraction(24), 4.5, {"delta": 3}]


def test_log2_matches_exact_value():
    rep = compose_report(complete_graph(7), ReportOptions(corollary_mode="both"))
    for bv in rep.bounds:
        if bv.applicable and bv.exact_value is not None:
            expected = log2(bv.exact_value.numerator) - log2(bv.exact_value.denominator)
            assert bv.log2_value == pytest.approx(expected, abs=1e-9)


def test_log2_memo_equal_keys_give_equal_values():
    _log2.cache_clear()
    six = Fraction(6)
    first = _log2(six.numerator, six.denominator)
    with mpmath.workprec(WORKING_PRECISION_BITS):
        assert _log2(6, 1) == first == mpmath.log(mpmath.mpf(6), 2)
    assert _log2.cache_info().misses == 1


def test_log2_ignores_the_callers_precision():
    x = Fraction(10, 3)
    with mpmath.workprec(WORKING_PRECISION_BITS):
        expected = mpmath.log(mpmath.mpf(10), 2) - mpmath.log(mpmath.mpf(3), 2)
    for prec in (53, 200):
        _log2.cache_clear()
        with mpmath.workprec(prec):
            assert _log2(x.numerator, x.denominator) == expected
            assert mpmath.mp.prec == prec


def test_log2_memo_stays_bounded():
    _log2.cache_clear()
    size = _log2.cache_info().maxsize
    for k in range(2, size + 102):
        _log2(k, 1)
    assert _log2.cache_info().currsize == size


def test_power_value_equal_keys_share_one_entry():
    _power_value.cache_clear()
    first = _power_value(((Fraction(6), 1),), 0)
    assert _power_value(((6, 1),), 0) == first == (Fraction(6), float(_log2(6, 1)))
    assert type(first[0]) is Fraction
    assert _power_value.cache_info().misses == 1


def _fraction_key(factors):
    """factors with every (numerator, denominator) pair as its Fraction."""
    def fraction(x):
        return Fraction(x[0], x[1]) if isinstance(x, tuple) else x
    return tuple((fraction(b), fraction(q)) for b, q in factors)


# Pair-form keys off the corpus: bases and exponents as pairs, with and
# without an edge excess, on the exact route and both log-only routes.
PAIR_KEYS = [
    ((((7, 3), 4), (2, (3, 1))), 0),
    ((((6, 4), 3), ((5, 2), -2)), 0),
    ((((14, 6), 6), (24, (-1, 2))), 0),
    (((6, 1), ((12, 5), 5), (2, (5, 3)), (4, -1)), 0),
    ((((10, 5), 5), (3, 1)), 3),
    ((((22, 7), 7), (6, (7, 4))), 11),
]


def test_power_value_pair_keys_equal_their_fraction_keys(corpus7, monkeypatch):
    """A (numerator, denominator) pair gives what its Fraction gives, value
    for value and log2 bit for bit, on every key the corpus reports make and
    on pair keys with an edge excess."""
    keys = []
    real = _power_value

    def spied(factors, excess):
        keys.append((factors, excess))
        return real(factors, excess)

    monkeypatch.setattr(bounds, "_power_value", spied)
    opts = ReportOptions(corollary_mode="both", class5_asserted=True)
    for n in range(1, 8):
        for g in corpus7[n]:
            compose_report(g, opts)
    monkeypatch.undo()
    routes = set()
    for factors, excess in set(keys) | set(PAIR_KEYS):
        paired = any(isinstance(x, tuple) for pair in factors for x in pair)
        exact, log2v = _power_value.__wrapped__(factors, excess)
        ref_exact, ref_log2 = _power_value.__wrapped__(_fraction_key(factors), excess)
        assert (exact, log2v.hex()) == (ref_exact, ref_log2.hex()), (factors, excess)
        assert exact is None or type(exact) is Fraction
        routes.add((paired, exact is None, bool(excess)))
    assert {(True, False, False), (True, True, False), (True, True, True)} <= routes


def test_log_only_rows_keep_their_factors(corpus7, monkeypatch):
    """eq3-eq6 and eq8 may be log-only, a log2 sum over their factors taken
    at 120 bits, so a row whose factors were split or merged could round to
    another float: each row passes the factors of its formula, one for one,
    a pair read as the Fraction it stands for."""
    seen = {}
    real = bounds._power_product

    def spied(bound_id, factors, context, excess=0):
        seen[bound_id] = (_fraction_key(factors), excess)
        return real(bound_id, factors, context, excess)

    monkeypatch.setattr(bounds, "_power_product", spied)
    opts = ReportOptions(corollary_mode="both", class5_asserted=True)
    for n in range(2, 8):
        for g in corpus7[n]:
            seen.clear()
            rows = {bv.bound_id: bv for bv in compose_report(g, opts).bounds}
            d_avg, delta, dmin = Fraction(2 * g.e, n), g.delta_max, g.delta_min
            p, m = rows["eq3_pathcover"].context["p"], rows["eq6_starfree"].context["m"]
            expected = {
                "eq3_pathcover": (((2 * p * n ** (2 * p), 1),), g.e - n),
                "eq5_special_class": (((3, 1), (2, Fraction(n - 2, 2)), (d_avg, n),
                                       (delta, -1)), 0),
                "eq6_starfree": (((factorial(m - 1), 1), (factorial(m - 2), Fraction(n, m - 2)),
                                  (d_avg, n), (delta, -1)), 0),
            }
            if rows["eq4_degree_exponent"].applicable:
                q = Fraction(g.e - n + 3 - 2 * dmin, (dmin - 1) * (delta - 2))
                expected["eq4_degree_exponent"] = (((d_avg, n), (factorial(delta - 1), q)), 0)
            if rows["eq8_hampath_edges"].applicable:
                expected["eq8_hampath_edges"] = (((2 * n * n, 1),), g.e - n)
            for bid, key in expected.items():
                assert seen[bid] == key, (bid, g)


def test_power_value_memo_stays_bounded():
    _power_value.cache_clear()
    size = _power_value.cache_info().maxsize
    for k in range(2, size + 102):
        _power_value(((k, 1),), 0)
    assert _power_value.cache_info().currsize == size


def test_power_value_memo_keeps_every_row(corpus7, monkeypatch):
    """Rows from a cold memo, from the warm memo and from the unmemoised
    evaluation agree bit for bit; a key that dropped the edge excess would
    hand one graph's eq3 value to another with the same n and p."""
    opts = ReportOptions(corollary_mode="both", class5_asserted=True)
    graphs = [g for n in range(1, 8) for g in corpus7[n]]

    def rows():
        out = []
        for g in graphs:
            rep = compose_report(g, opts)
            out.append([(bv.bound_id, bv.exact_value,
                         None if bv.log2_value is None else bv.log2_value.hex())
                        for bv in rep.bounds])
            out.append(sorted((bid, gap.hex()) for bid, gap in rep.gaps.items()))
        return out

    _power_value.cache_clear()
    cold = rows()
    assert _power_value.cache_info().hits > 0
    warm = rows()
    monkeypatch.setattr("autbounds.bounds._power_value", _power_value.__wrapped__)
    assert cold == warm == rows()


# With class 5 asserted, the Petersen graph (eq3, eq8), C_5 (eq5), K_4 (eq4)
# and the star K_1,4 (eq6) between them take every log-only route.
REPORT_OPTIONS = ReportOptions(corollary_mode="both", class5_asserted=True)


def test_report_ignores_the_callers_precision():
    prec = mpmath.mp.prec
    for g in (petersen_graph(), cycle_graph(5), complete_graph(4), star_graph(4)):
        expected = compose_report(g, REPORT_OPTIONS).bounds
        for caller_prec in (53, 200):
            _log2.cache_clear()
            _power_value.cache_clear()
            with mpmath.workprec(caller_prec):
                assert compose_report(g, REPORT_OPTIONS).bounds == expected
                assert mpmath.mp.prec == caller_prec
    assert mpmath.mp.prec == prec


def test_concurrent_reports_keep_precision():
    """Threads that switch every microsecond get the single-thread rows and
    leave mpmath's process-wide precision where it was."""
    g = petersen_graph()
    expected = compose_report(g, REPORT_OPTIONS).bounds
    prec, interval = mpmath.mp.prec, sys.getswitchinterval()
    results = []

    def work():
        for _ in range(30):
            results.append(compose_report(g, REPORT_OPTIONS).bounds)

    # cold memos, so the threads race on the log sums themselves
    _log2.cache_clear()
    _power_value.cache_clear()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert mpmath.mp.prec == prec
        assert len(results) == 120 and all(rows == expected for rows in results)
    finally:
        sys.setswitchinterval(interval)
        mpmath.mp.prec = prec


def test_concurrent_reports_do_not_wait_on_each_others_prerequisites(monkeypatch):
    """While one report's path cover is still running, a report on another
    graph in a second thread completes: no lock shared between reports is
    held while a prerequisite is computed."""
    slow, entered, release = petersen_graph(), threading.Event(), threading.Event()
    real = bounds.path_cover_number

    def blocking(g):
        if g == slow:
            entered.set()
            release.wait(60)
        return real(g)

    monkeypatch.setattr(bounds, "path_cover_number", blocking)
    first = threading.Thread(target=compose_report, args=(slow, REPORT_OPTIONS), daemon=True)
    first.start()
    try:
        assert entered.wait(30)
        done = []
        second = threading.Thread(
            target=lambda: done.append(compose_report(complete_graph(5), REPORT_OPTIONS)),
            daemon=True)
        second.start()
        second.join(timeout=5)
        assert first.is_alive() and len(done) == 1
    finally:
        release.set()
        first.join(timeout=60)


@given(connected_graphs_st(max_n=7))
def test_report_sound_on_random_graphs(g):
    rep = compose_report(g, ReportOptions(corollary_mode="both"))
    assert rep.soundness_violations() == []


@pytest.mark.parametrize("exact, below, flagged", [
    (None, 2 * LOG2_COMPARISON_SLACK, True),
    (None, LOG2_COMPARISON_SLACK / 2, False),
    (Fraction(23), 0.0, True),
    (Fraction(24), 0.0, False),
], ids=["log-below-slack", "log-within-slack", "exact-below", "exact-equal"])
def test_soundness_violations_slack(exact, below, flagged):
    # K_4 has aut 24: an exact row compares exactly, a log-only row gets the slack.
    rep = compose_report(complete_graph(4), ReportOptions(bounds=("eq1_nashwilliams",)))
    log2_value = float(_log2(exact.numerator if exact is not None else 24, 1)) - below
    row = BoundValue("eq1_nashwilliams", True, None, exact, log2_value)
    assert replace(rep, bounds=[row]).soundness_violations() == (
        ["eq1_nashwilliams"] if flagged else [])


def test_soundness_violations_need_the_exact_order():
    rep = compose_report(complete_graph(4), ReportOptions(exact_aut=False))
    assert rep.aut_exact is None
    low = BoundValue("eq1_nashwilliams", True, None, Fraction(1), 0.0)
    assert replace(rep, bounds=[low]).soundness_violations() == []


@given(connected_graphs_st(max_n=7))
def test_thm3_orbit_below_plain(g):
    rep = compose_report(g, ReportOptions(bounds=("thm3_orbit", "thm3_plain")))
    assert rep.bound("thm3_orbit").exact_value <= rep.bound("thm3_plain").exact_value


def test_corollary_majorizes_worst_start_thm3(corpus7):
    """The corrected remainder bound dominates the plain greedy bound for
    every start vertex: its factorial blocks are the worst case of the
    degree-sum identity."""
    for n in range(1, 8):
        for g in corpus7[n]:
            cor = eval_corollary(g, "corrected")
            if not cor.applicable:
                continue
            for v0 in range(g.n):
                plain = eval_thm3(g, greedy_spanning_tree(g, v0))
                assert plain.exact_value <= cor.exact_value


@given(connected_graphs_st(max_n=7), st.data())
def test_degree_only_bounds_relabel_invariant(g, data):
    perm = tuple(data.draw(st.permutations(list(range(g.n)))))
    h = g.relabel(perm)
    from autbounds.structure import path_cover_number
    p = path_cover_number(g).p
    assert path_cover_number(h).p == p
    pairs = [
        (eval_eq1(g), eval_eq1(h)),
        (eval_eq3(g, p), eval_eq3(h, p)),
        (eval_eq4(g), eval_eq4(h)),
        (eval_eq7(g, p == 1), eval_eq7(h, p == 1)),
        (eval_eq8(g, p == 1), eval_eq8(h, p == 1)),
        (eval_corollary(g), eval_corollary(h)),
    ]
    for a, b in pairs:
        assert a.applicable == b.applicable
        assert a.exact_value == b.exact_value
        assert a.log2_value == b.log2_value  # bit-for-bit: same degree data in
