"""The verify suite table: which suites run_suites calls, and with what."""

import inspect
from pathlib import Path

import pytest

from autbounds import cli, verify
from autbounds.graphs import SizeLimitError, complete_graph

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


def test_each_suite_gets_its_own_arguments(monkeypatch):
    # theorem1 and the exhaustive oracle are capped at n <= 6; soundness and
    # greedy take nmax as given; exactness takes no size at all.
    calls = _record_calls(monkeypatch)
    results = verify.run_suites(("exactness", "oracle", "soundness", "theorem1"),
                                nmax=7, trials=5, seed=1)
    assert calls == [
        ("exactness_suite", {}),
        ("oracle_suite", {"exhaustive_nmax": 6, "trials": 5, "seed": 1}),
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
