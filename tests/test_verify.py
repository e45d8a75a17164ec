"""The verify suite table: which suites run_suites calls, and with what."""

import inspect
from dataclasses import replace
from itertools import chain
from pathlib import Path

import pytest

from autbounds import cli, verify
from autbounds.corpus import connected_graphs
from autbounds.graphs import (
    SizeLimitError,
    complete_bipartite_graph,
    complete_graph,
    path_graph,
    write_graph6,
)

SUITE_FUNCTIONS = ("soundness_sweep", "greedy_sweep", "exactness_suite",
                   "oracle_suite", "theorem1_suite")


def _record_calls(monkeypatch):
    """Replace every suite function on verify with a recorder; returns the
    list of (function name, arguments bound to its parameters), in call order."""
    calls = []
    for fn_name in SUITE_FUNCTIONS:
        sig = inspect.signature(getattr(verify, fn_name))

        def recorder(*args, fn_name=fn_name, sig=sig, **kwargs):
            calls.append((fn_name, dict(sig.bind(*args, **kwargs).arguments)))
            return fn_name
        monkeypatch.setattr(verify, fn_name, recorder)
    return calls


def test_unknown_suite_fails_before_any_suite_runs(monkeypatch):
    calls = _record_calls(monkeypatch)
    with pytest.raises(ValueError) as exc:
        verify.run_suites(["oracle", "nope"])
    assert str(exc.value) == ("unknown suite 'nope'; choose from "
                              "['exactness', 'oracle', 'soundness', 'theorem1']")
    assert calls == []


def test_theorem1_size_refusal_comes_before_any_suite(monkeypatch):
    # theorem1 cannot enumerate the spanning trees of K_8; the refusal comes
    # before soundness runs, and without theorem1 K_8 is an ordinary graph.
    calls = _record_calls(monkeypatch)
    k8 = [complete_graph(8)]
    with pytest.raises(SizeLimitError) as exc:
        verify.run_suites(["soundness", "theorem1"], external=k8)
    assert str(exc.value) == ("theorem1 enumerates spanning trees only for n <= 7; "
                              "G~~~~{ has n=8 (drop theorem1 from --suites)")
    assert calls == []
    verify.run_suites(["soundness"], external=k8)
    assert [name for name, _ in calls] == ["soundness_sweep", "greedy_sweep"]


P9 = [path_graph(9)]
REFUSALS = {
    "nmax-0": (["soundness"], {"nmax": 0}, ValueError, "nmax must be at least 1, got 0"),
    "nmax-9": (["exactness", "soundness"], {"nmax": 9}, SizeLimitError,
               "exhaustive suites are capped at nmax <= 8, got 9"),
    "oracle-n9": (["oracle"], {"external": P9}, SizeLimitError,
                  "oracle counts permutations only for n <= 8; "
                  "HhCGGC@ has n=9 (drop oracle from --suites)"),
    "theorem1-first": (["oracle", "theorem1"], {"external": P9}, SizeLimitError,
                       "theorem1 enumerates spanning trees only for n <= 7; "
                       "HhCGGC@ has n=9 (drop theorem1 from --suites)"),
}


@pytest.mark.parametrize("names, kwargs, exc_type, message", REFUSALS.values(), ids=REFUSALS)
def test_refusals_come_before_any_suite(monkeypatch, names, kwargs, exc_type, message):
    calls = _record_calls(monkeypatch)
    with pytest.raises(exc_type) as exc:
        verify.run_suites(names, **kwargs)
    assert type(exc.value) is exc_type and str(exc.value) == message
    assert calls == []


def test_each_suite_gets_its_own_arguments(monkeypatch):
    # theorem1 and the exhaustive oracle are capped at n <= 6; soundness and
    # greedy take nmax as given; exactness takes no size at all.
    calls = _record_calls(monkeypatch)
    results = verify.run_suites(("exactness", "oracle", "soundness", "theorem1"),
                                nmax=7, trials=5, seed=1)
    assert calls == [
        ("exactness_suite", {}),
        ("oracle_suite", {"exhaustive_nmax": 6, "trials": 5, "seed": 1, "external": None}),
        ("soundness_sweep", {"nmax": 7, "external": None}),
        ("greedy_sweep", {"nmax": 7, "external": None}),
        ("theorem1_suite", {"nmax": 6, "external": None}),
    ]
    assert results == [name for name, _ in calls]


def test_tracer_sees_every_suite_under_run_suites(monkeypatch, capsys):
    # perfbench's per-layer verify metrics come from these spans; a change to
    # how run_suites reaches the suites must not hide them from the tracer.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(["verify", "--nmax", "3", "--random-trials", "1"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    spans = tracer.spans
    for fn_name in SUITE_FUNCTIONS:
        mine = [rec for rec in spans if rec[0] == f"verify.{fn_name}"]
        assert len(mine) == 1, fn_name
        parent = mine[0][3]
        assert parent >= 0 and spans[parent][0] == "verify.run_suites", fn_name


def _counts_with(**changes):
    """count_embeddings with the given fields of every count replaced."""
    real = verify.count_embeddings
    return lambda trees, g: [replace(ec, **changes) for ec in real(trees, g)]


def _reports_with(change):
    """compose_report with the exact order replaced by change(order)."""
    real = verify.compose_report

    def fake(g, opts):
        rep = real(g, opts)
        return replace(rep, aut_exact=change(rep.aut_exact))
    return fake


def _bad_record(g, gt):
    raise ValueError("bad record")


def _theorem1():
    return verify.theorem1_suite(nmax=4)


def _greedy():
    return verify.greedy_sweep(nmax=4)


def _soundness():
    return verify.soundness_sweep(nmax=4)


CORPUS4 = {write_graph6(g) for n in range(1, 5) for g in connected_graphs(n)}
EXACTNESS_CASES = {write_graph6(g) for g in chain(
    (complete_graph(n) for n in range(3, 8)),
    (complete_bipartite_graph(m, m) for m in range(2, 5)),
    (complete_bipartite_graph(p, q) for q in range(2, 6) for p in range(1, q)))}

# case id -> (suite, its graphs, name on verify, the name's replacement,
# phrases): every violation starts with one of the graphs and holds one of
# the phrases, and each phrase is in some violation.
BROKEN = {
    "theorem1-disconnected": (_theorem1, CORPUS4, "is_connected", lambda g: False,
                              ["disconnected, so it has no spanning tree"]),
    "theorem1-determinant": (_theorem1, CORPUS4, "spanning_tree_count", lambda g: -1,
                             ["determinant -1 != enumerated"]),
    "theorem1-census": (_theorem1, CORPUS4, "tree_certificate", lambda t: 0,
                        ["!= certificate census"]),
    "theorem1-labeled": (_theorem1, CORPUS4, "count_embeddings", _counts_with(labeled=0),
                         ["> labeled copies 0 of"]),
    "theorem1-tree-aut": (_theorem1, CORPUS4, "count_embeddings", _counts_with(aut_f=0),
                          ["naive tree count 0 != centroid count"]),
    "theorem1-copies-cap": (_theorem1, CORPUS4, "embedding_upper_fs", lambda g: 0,
                            ["above degree-product cap 0"]),
    "theorem1-tree-ceiling": (_theorem1, CORPUS4, "tree_aut_upper", lambda t: 0,
                              ["> estimate 0"]),
    "greedy-record": (_greedy, CORPUS4, "verify_greedy_tree", _bad_record, [": bad record"]),
    "greedy-ceiling": (_greedy, CORPUS4, "tree_aut_upper", lambda t: 0,
                       ["above the degree-product estimate"]),
    "soundness-bound": (_soundness, CORPUS4, "compose_report",
                        _reports_with(lambda aut: aut * 10 ** 6), [" < aut = "]),
    "soundness-orbit": (_soundness, CORPUS4, "compose_report", _reports_with(lambda aut: 1),
                        ["does not divide 1"]),
    "oracle": (lambda: verify.oracle_suite(exhaustive_nmax=4, trials=0), CORPUS4,
               "aut_order_naive", lambda g: 0, ["!= naive 0"]),
    "exactness": (verify.exactness_suite, EXACTNESS_CASES, "factorial", lambda n: 0,
                  ["): aut ", "): thm3_orbit ", "): eq1 "]),
}


@pytest.mark.parametrize("suite, graphs, name, fake, phrases", BROKEN.values(), ids=BROKEN)
def test_each_check_fires(monkeypatch, suite, graphs, name, fake, phrases):
    monkeypatch.setattr(verify, name, fake)
    res = suite()
    assert not res.passed
    for v in res.violations:
        assert v.split()[0].rstrip(":") in graphs, v
        assert any(phrase in v for phrase in phrases), v
    for phrase in phrases:
        assert any(phrase in v for v in res.violations), phrase


def test_corpus_count_check_fires(monkeypatch):
    monkeypatch.setattr(verify, "CONNECTED_GRAPH_COUNTS", dict.fromkeys(range(1, 8), 0))
    res = verify.soundness_sweep(nmax=4)
    assert res.violations == [
        "corpus counts {1: 1, 2: 1, 3: 2, 4: 6} != expected {1: 0, 2: 0, 3: 0, 4: 0}"]


def test_tree_ceiling_is_checked_once_per_class(monkeypatch):
    # With a ceiling of 0 every tree on n >= 3 vertices breaks it: theorem1
    # reports each spanning-tree class of the n <= 4 corpus once (K_3 and P_3
    # one class each, the six 4-vertex graphs nine), greedy each start vertex.
    monkeypatch.setattr(verify, "tree_aut_upper", lambda t: 0)
    assert len(verify.theorem1_suite(nmax=4).violations) == 2 + 9
    assert len(verify.greedy_sweep(nmax=4).violations) == 2 * 3 + 6 * 4
