import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from autbounds.bounds import ReportOptions, compose_report
from autbounds.cli import COMMANDS, EXIT_PIPE, build_parser, main, report_to_dict
from autbounds.corpus import all_graphs
from autbounds.graphs import write_graph6

from helpers import report_to_dict_reference

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(argv, capsys, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# Options that each change which rows and contexts a report holds.
REPORT_OPTIONS = {
    "corollary-both": ReportOptions(corollary_mode="both"),
    "corollary-verbatim": ReportOptions(corollary_mode="verbatim"),
    "exhaustive-start": ReportOptions(exhaustive_start=True),
    "class5": ReportOptions(class5_asserted=True),
    "no-exact-aut": ReportOptions(exact_aut=False),
    "subset": ReportOptions(bounds=("eq8_hampath_edges", "eq4_degree_exponent",
                                    "eq6_starfree", "thm3_orbit", "corollary")),
}


@pytest.mark.parametrize("opts", REPORT_OPTIONS.values(), ids=REPORT_OPTIONS)
def test_report_to_dict_matches_the_reference(opts):
    # Every graph on 1..7 vertices, the disconnected ones included: the same
    # JSON text, byte for byte, as the reference builder gives.
    for g in (g for n in range(1, 8) for g in all_graphs(n)):
        rep = compose_report(g, opts)
        assert json.dumps(report_to_dict(rep)) == json.dumps(report_to_dict_reference(rep)), g


def test_analyze_table(capsys, monkeypatch):
    code, out, _ = run_cli(["analyze"], capsys, stdin_text="C~\n", monkeypatch=monkeypatch)
    assert code == 0
    assert "aut = 24" in out
    rows = [ln for ln in out.splitlines() if ln.startswith(("eq", "thm", "corollary"))]
    assert len(rows) == 12


def test_analyze_bounds_filter(capsys, monkeypatch):
    code, out, _ = run_cli(["analyze", "--bounds", "eq1,thm3"], capsys,
                           stdin_text="C~\n", monkeypatch=monkeypatch)
    assert code == 0
    rows = [ln for ln in out.splitlines() if ln.startswith(("eq", "thm", "corollary"))]
    assert len(rows) == 2
    assert rows[0].startswith("eq1_nashwilliams")
    assert rows[1].startswith("thm3_orbit")


def test_analyze_unknown_bound_exits_2(capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--bounds", "eq99"])
    assert exc.value.code == 2


def test_analyze_json_roundtrip(capsys, monkeypatch):
    code, out, _ = run_cli(["analyze", "--output", "json", "--corollary-mode", "both"],
                           capsys, stdin_text="C~\n", monkeypatch=monkeypatch)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "autbounds-report/1"
    assert doc["aut"] == "24"
    assert doc["graph"]["graph6"] == "C~"
    # numeric fields must re-serialise bit-exactly
    assert json.loads(json.dumps(doc)) == doc
    for entry in doc["bounds"]:
        if entry["applicable"] and entry["exact"] is not None:
            from fractions import Fraction
            Fraction(entry["exact"])  # parses exactly
        if entry["log2"] is not None:
            assert float(repr(entry["log2"])) == entry["log2"]


def test_analyze_json_fraction_values(capsys, monkeypatch):
    code, out, _ = run_cli(["analyze", "--output", "json"], capsys,
                           stdin_text="Bg\n", monkeypatch=monkeypatch)  # P_3
    doc = json.loads(out)
    eq2 = next(b for b in doc["bounds"] if b["id"] == "eq2_tree_product")
    assert eq2["exact"] == "64/27"


def test_analyze_csv(capsys, monkeypatch):
    code, out, _ = run_cli(["analyze", "--output", "csv"], capsys,
                           stdin_text="C~\n", monkeypatch=monkeypatch)
    lines = out.strip().splitlines()
    assert lines[0] == "graph6,n,e,aut,bound_id,applicable,reason,exact,log2,gap_log2"
    assert len(lines) == 13
    assert lines[1].startswith("C~,4,6,24,thm1_tree,1,")


def test_analyze_edgelist(capsys, monkeypatch):
    code, out, _ = run_cli(["analyze", "--format", "edgelist"], capsys,
                           stdin_text="3\n0 1\n1 2\n", monkeypatch=monkeypatch)
    assert code == 0 and "aut = 2" in out


def test_analyze_parse_error_exit_2(capsys, monkeypatch):
    code, _, err = run_cli(["analyze"], capsys, stdin_text="C\x01\n", monkeypatch=monkeypatch)
    assert code == 2 and "input error" in err


def test_analyze_disconnected_exit_0(capsys, monkeypatch):
    code, out, _ = run_cli(["analyze"], capsys, stdin_text="C`\n", monkeypatch=monkeypatch)
    assert code == 0
    assert "disconnected" in out


def test_analyze_oracle_limit_exit_3(capsys, monkeypatch):
    code, _, err = run_cli(["analyze", "--oracle-limit", "3"], capsys,
                           stdin_text="C~\n", monkeypatch=monkeypatch)
    assert code == 3 and "refusing" in err


def test_analyze_file_input(tmp_path, capsys):
    p = tmp_path / "g.g6"
    p.write_text("C~\n")
    code, out, _ = run_cli(["analyze", str(p)], capsys)
    assert code == 0 and "aut = 24" in out


def test_batch_three_records(tmp_path, capsys):
    p = tmp_path / "batch.g6"
    p.write_text("Bw\nCl\nC~\n")  # K_3, C_4, K_4
    code, out, err = run_cli(["batch", str(p)], capsys)
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 3 * 12
    auts = {ln.split(",")[0]: ln.split(",")[3] for ln in lines[1:]}
    assert auts == {"Bw": "6", "Cl": "8", "C~": "24"}


def test_batch_blank_lines_are_skipped_silently(tmp_path, capsys):
    p = tmp_path / "batch.g6"
    p.write_text("Bw\nCl\nC~\n")
    _, plain, _ = run_cli(["batch", str(p)], capsys)
    p.write_text("\nBw\n\n  \nCl\n\t\nC~\n\n")
    code, out, err = run_cli(["batch", str(p)], capsys)
    assert code == 0 and err == "" and out == plain


def test_batch_malformed_line_skipped(tmp_path, capsys):
    p = tmp_path / "batch.g6"
    p.write_text("Bw\nnot-a-graph~~~\nC~\n")
    code, out, err = run_cli(["batch", str(p), "--output", "json"], capsys)
    assert code == 0
    records = [json.loads(ln) for ln in out.strip().splitlines()]
    assert len(records) == 2
    assert "line 2" in err and "skipped" in err


def test_batch_oracle_limit_skips_line(tmp_path, capsys):
    p = tmp_path / "batch.g6"
    p.write_text("Bw\nC~\nBw\n")  # K_3, K_4, K_3
    code, out, err = run_cli(["batch", str(p), "--output", "json", "--oracle-limit", "3"],
                             capsys)
    assert code == 0
    records = [json.loads(ln) for ln in out.strip().splitlines()]
    assert [r["graph"]["graph6"] for r in records] == ["Bw", "Bw"]
    assert err == ("line 2: skipped: refusing the exact oracle at n=4 > limit 3; "
                   "pass --no-exact-aut or raise --oracle-limit\n")


def test_batch_empty_file(tmp_path, capsys):
    p = tmp_path / "empty.g6"
    p.write_text("")
    code, out, err = run_cli(["batch", str(p)], capsys)
    assert code == 0 and out == ""


def test_batch_unreadable_exit_2(tmp_path, capsys):
    code, out, err = run_cli(["batch", str(tmp_path / "missing.g6")], capsys)
    assert code == 2 and out == "" and "input error" in err


@pytest.mark.parametrize("argv", [["analyze"], ["verify", "--corpus"]], ids=["analyze", "verify"])
def test_missing_file_exit_2(tmp_path, capsys, argv):
    missing = tmp_path / "missing.g6"
    code, out, err = run_cli([*argv, str(missing)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("input error: ") and str(missing) in err


def test_analyze_edgelist_input_error_exit_2(capsys, monkeypatch):
    code, out, err = run_cli(["analyze", "--format", "edgelist"], capsys,
                             stdin_text="3\n0 a\n", monkeypatch=monkeypatch)
    assert code == 2 and out == ""
    assert err == "input error: non-integer vertex in '0 a'\n"


def test_analyze_table_writes_a_long_value_as_a_power_of_two(capsys, monkeypatch):
    # eq1 on K20 is 20!, 19 digits: too wide for the 16-character value column.
    from autbounds.graphs import complete_graph, write_graph6
    code, out, _ = run_cli(["analyze", "--bounds", "eq1"], capsys,
                           stdin_text=write_graph6(complete_graph(20)) + "\n",
                           monkeypatch=monkeypatch)
    assert code == 0
    assert "aut = 2432902008176640000\n" in out
    row = next(ln for ln in out.splitlines() if ln.startswith("eq1_nashwilliams"))
    assert row.split() == ["eq1_nashwilliams", "~2^61.0774", "61.0774", "0.0000", "tight"]


def test_batch_non_ascii_exit_2(tmp_path, capsys):
    p = tmp_path / "batch.g6"
    p.write_bytes("C~\n\u00e9\n".encode("utf-8"))
    code, out, err = run_cli(["batch", str(p)], capsys)
    assert code == 2 and out == "" and "input error" in err


def test_batch_internal_fault_exit_4(tmp_path, capsys, monkeypatch):
    # A ValueError from inside the report is a bug, not a bad input line.
    def broken(g, opts):
        raise ValueError("tree does not span the host graph")

    monkeypatch.setattr("autbounds.cli.compose_report", broken)
    p = tmp_path / "batch.g6"
    p.write_text("Bw\nC~\n")
    code, out, err = run_cli(["batch", str(p)], capsys)
    assert code == 4
    assert "skipped" not in err and "internal error" in err


@pytest.mark.parametrize("exc", [RuntimeError("counting identity violated"),
                                 TypeError("unsupported operand"), KeyError("eq3")])
def test_batch_other_exception_exit_4(tmp_path, capsys, monkeypatch, exc):
    # Any exception escaping a report is a bug: exit 4, not the interpreter's
    # traceback exit 1, which would read as a verification violation.
    def broken(g, opts):
        raise exc

    monkeypatch.setattr("autbounds.cli.compose_report", broken)
    p = tmp_path / "batch.g6"
    p.write_text("Bw\nC~\n")
    code, out, err = run_cli(["batch", str(p)], capsys)
    assert code == 4
    assert f"internal error: {type(exc).__name__}" in err and "skipped" not in err


def test_verify_small_pass(capsys):
    code, out, _ = run_cli(["verify", "--nmax", "4", "--random-trials", "2"], capsys)
    assert code == 0
    assert "[soundness] PASS" in out
    assert "corpus: {1: 1, 2: 1, 3: 2, 4: 6}" in out


def test_verify_nmax_refusal(capsys):
    from autbounds.corpus import GENERATION_LIMIT
    code, out, err = run_cli(["verify", "--nmax", str(GENERATION_LIMIT + 1)], capsys)
    assert code == 3 and out == ""
    assert err == (f"size refusal: exhaustive suites are capped at nmax <= {GENERATION_LIMIT}, "
                   f"got {GENERATION_LIMIT + 1}\n")


@pytest.mark.parametrize("nmax", ["0", "-2"])
def test_verify_vacuous_nmax_exit_2(nmax, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--nmax", nmax])
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert "PASS" not in out and f"argument --nmax: must be at least 1, got {nmax}" in err


def test_verify_negative_trials_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--random-trials", "-5"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert "PASS" not in out and "argument --random-trials: must be at least 0, got -5" in err


@pytest.mark.parametrize("command", ["analyze", "batch"])
def test_oracle_limit_below_one_exit_2(command, capsys):
    # a limit of 0 would refuse every graph with exit 3; argparse refuses the flag
    with pytest.raises(SystemExit) as exc:
        main([command, "--oracle-limit", "0", "-"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert "argument --oracle-limit: must be at least 1, got 0" in err


def test_bound_aliases_come_from_the_registry():
    from autbounds.cli import BOUND_ALIASES
    assert sorted(BOUND_ALIASES) == sorted(
        ["thm1", "thm3"] + [f"eq{i}" for i in range(1, 9)])
    assert BOUND_ALIASES["eq8"] == "eq8_hampath_edges"
    assert BOUND_ALIASES["thm3"] == "thm3_orbit"


def test_verify_deterministic(capsys):
    args = ["verify", "--nmax", "4", "--random-trials", "3", "--suites", "soundness,oracle"]
    code1, out1, _ = run_cli(args, capsys)
    code2, out2, _ = run_cli(args, capsys)
    assert code1 == code2 == 0 and out1 == out2


def test_verify_suite_subset(capsys):
    code, out, _ = run_cli(["verify", "--nmax", "3", "--suites", "exactness"], capsys)
    assert code == 0
    assert "[exactness] PASS" in out and "[soundness]" not in out


def test_verify_external_corpus(tmp_path, capsys):
    # K_5, K_4 and C_4: the corpus line counts the graphs of each order, smallest first.
    p = tmp_path / "corpus.g6"
    p.write_text("D~{\nC~\nCl\n")
    code, out, _ = run_cli(["verify", "--suites", "soundness", "--corpus", str(p)], capsys)
    assert code == 0
    assert out.splitlines()[:2] == ["[soundness] PASS: 3 checks, 0 violations",
                                    "  corpus: {4: 2, 5: 1}"]


def test_verify_oracle_reads_the_external_corpus(tmp_path, capsys):
    # K_4 and C_4, no random graphs: the oracle checks the file's two graphs,
    # not the generated n <= 6 corpus.
    p = tmp_path / "corpus.g6"
    p.write_text("C~\nCl\n")
    code, out, _ = run_cli(["verify", "--suites", "oracle", "--random-trials", "0",
                            "--corpus", str(p)], capsys)
    assert code == 0
    assert out == "[oracle-cross-validation] PASS: 2 checks, 0 violations\n"


@pytest.mark.parametrize("text", ["", "\n  \n\n"], ids=["empty", "blank-lines"])
def test_verify_empty_external_corpus_exit_2(tmp_path, capsys, text):
    p = tmp_path / "empty.g6"
    p.write_text(text)
    code, out, err = run_cli(["verify", "--corpus", str(p)], capsys)
    assert code == 2 and out == ""
    assert f"{p}: the corpus file holds no graphs" in err


def test_verify_corpus_parse_error_names_the_line(tmp_path, capsys):
    # K_4, then a byte outside graph6's range: the error names file and line.
    p = tmp_path / "bad.g6"
    p.write_text("C~\nC!\n")
    code, out, err = run_cli(["verify", "--corpus", str(p)], capsys)
    assert code == 2 and out == ""
    assert err == f"input error: {p} line 2: invalid graph6 byte 33 (byte offset 1)\n"


def test_verify_corpus_size_refusal_names_the_line(tmp_path, capsys):
    # K_4, then a 65-vertex graph: still a size refusal, naming file and line.
    from autbounds.graphs import Graph

    p = tmp_path / "big.g6"
    p.write_text("C~\n" + write_graph6(Graph(65, (0,) * 65)) + "\n")
    code, out, err = run_cli(["verify", "--corpus", str(p)], capsys)
    assert code == 3 and out == ""
    assert err == f"size refusal: {p} line 2: graph has 65 vertices, above the cap of 64\n"


def test_theorem1_internal_fault_exit_4(capsys, monkeypatch):
    # An exception from inside the counting is a bug, not a counterexample to
    # Theorem 1: exit 4 with its traceback, no FAIL line.
    def broken(f, g):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("autbounds.embeddings.count_labeled_embeddings", broken)
    code, out, err = run_cli(["verify", "--suites", "theorem1", "--nmax", "3"], capsys)
    assert code == 4 and out == ""
    assert "Traceback" in err and "internal error: RecursionError" in err


def test_theorem1_identity_failure_is_a_violation(capsys, monkeypatch):
    # Subgraph copies off by one break labeled == copies * aut: a violation
    # per connected graph, exit 1.
    from autbounds import embeddings

    real = embeddings.count_subgraph_copies
    monkeypatch.setattr(embeddings, "count_subgraph_copies",
                        lambda trees, g: [c + 1 for c in real(trees, g)])
    code, out, err = run_cli(["verify", "--suites", "theorem1", "--nmax", "3"], capsys)
    assert code == 1 and err == ""
    assert out.startswith("[theorem1-embeddings] FAIL: 4 checks, 4 violations\n")
    assert "counterexample: @: counting identity violated" in out


def test_verify_external_corpus_disconnected(tmp_path, capsys):
    # K_4 plus a disconnected 4-vertex graph: every suite still prints, and
    # the disconnected graph is one violation each of greedy-construction
    # and theorem1, not an aborted run.
    p = tmp_path / "corpus.g6"
    p.write_text("C~\nCC\n")
    code, out, err = run_cli(["verify", "--suites", "soundness,theorem1",
                              "--corpus", str(p)], capsys)
    assert code == 1 and err == ""
    assert "[soundness] PASS" in out
    assert "[greedy-construction] FAIL: 5 checks, 1 violations" in out
    theorem1 = next(ln for ln in out.splitlines() if ln.startswith("[theorem1-embeddings]"))
    assert "FAIL" in theorem1 and theorem1.endswith(" 1 violations")
    assert out.count("counterexample: CC: disconnected, so it has no spanning tree") == 2


def test_greedy_builder_fault_exit_4(capsys, monkeypatch):
    # A ValueError from inside the greedy builder is a bug, not a rejected
    # construction record: exit 4 with its traceback, no FAIL line.
    from autbounds import verify

    def broken(g, v0):
        raise ValueError("builder fault")

    monkeypatch.setattr(verify, "greedy_spanning_tree", broken)
    code, out, err = run_cli(["verify", "--suites", "soundness", "--nmax", "3"], capsys)
    assert code == 4 and out == ""
    assert "Traceback" in err and "internal error: ValueError: builder fault" in err


def test_verify_external_corpus_too_large_for_theorem1(tmp_path, capsys):
    # K_4 and K_8: theorem1 cannot enumerate the spanning trees of K_8, so the
    # run is refused before any suite runs; without theorem1 it passes.
    p = tmp_path / "k8.g6"
    p.write_text("C~\nG~~~~{\n")
    code, out, err = run_cli(["verify", "--corpus", str(p)], capsys)
    assert code == 3 and out == ""
    assert err.startswith("size refusal: theorem1 enumerates spanning trees only for n <= 7; ")
    assert "G~~~~{ has n=8" in err
    code, out, err = run_cli(["verify", "--suites", "soundness", "--corpus", str(p)], capsys)
    assert code == 0 and err == ""
    assert "[soundness] PASS: 2 checks" in out


@pytest.mark.parametrize("argv,message", [
    (["analyze", "--bounds", "eq1,eq99"],
     "argument --bounds: unknown bound id 'eq99'; known: thm1_tree, eq1_nashwilliams,"),
    (["analyze", "--bounds", " , "], "argument --bounds: empty bound list\n"),
    (["verify", "--suites", "oracle,nope"],
     "argument --suites: unknown suite 'nope'; known: exactness, oracle, soundness, theorem1\n"),
    (["verify", "--suites", ","], "argument --suites: empty suite list\n"),
])
def test_id_list_errors(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv,attr,expected", [
    (["analyze", "--bounds", "eq1,eq1"], "bounds", ("eq1_nashwilliams",)),
    (["analyze", "--bounds", "eq1,eq1_nashwilliams"], "bounds", ("eq1_nashwilliams",)),
    (["batch", "-", "--bounds", "thm3,eq1,thm3_orbit"], "bounds",
     ("thm3_orbit", "eq1_nashwilliams")),
    (["verify", "--suites", "oracle,oracle"], "suites", ("oracle",)),
])
def test_id_list_keeps_first_occurrence(argv, attr, expected, capsys, monkeypatch):
    assert getattr(build_parser().parse_args(argv), attr) == expected
    if argv[0] == "analyze":
        code, out, _ = run_cli([*argv, "--output", "csv"], capsys,
                               stdin_text="C~\n", monkeypatch=monkeypatch)
        assert code == 0 and out.count("eq1_nashwilliams") == 1


def test_analyze_exhaustive_start_flag(capsys, monkeypatch):
    # K_{2,3}: default start gives 12 already; exhaustive must not exceed it
    code, out, _ = run_cli(["analyze", "--exhaustive-start", "--output", "json"],
                           capsys, stdin_text="D]o\n", monkeypatch=monkeypatch)
    doc = json.loads(out)
    orbit = next(b for b in doc["bounds"] if b["id"] == "thm3_orbit")
    assert orbit["exact"] == "12" and orbit["context"]["exhaustive"] is True


def test_analyze_assert_class5_flag(capsys, monkeypatch):
    code, out, _ = run_cli(["analyze", "--assert-class5", "--output", "json"],
                           capsys, stdin_text="C~\n", monkeypatch=monkeypatch)
    doc = json.loads(out)
    eq5 = next(b for b in doc["bounds"] if b["id"] == "eq5_special_class")
    assert eq5["applicable"] and eq5["exact"] == "162"


def test_analyze_no_exact_aut(capsys, monkeypatch):
    code, out, _ = run_cli(["analyze", "--no-exact-aut", "--output", "json"],
                           capsys, stdin_text="C~\n", monkeypatch=monkeypatch)
    doc = json.loads(out)
    assert doc["aut"] is None
    orbit = next(b for b in doc["bounds"] if b["id"] == "thm3_orbit")
    assert not orbit["applicable"]
    plain = next(b for b in doc["bounds"] if b["id"] == "thm3_plain")
    assert plain["applicable"] and all(b["gap_log2"] is None for b in doc["bounds"])


def test_verify_fault_injection(capsys, monkeypatch):
    # Halve one bound in-process; the soundness sweep must flag it and print
    # a counterexample in graph6 form.
    import autbounds.bounds as bounds_mod
    from fractions import Fraction

    real = bounds_mod.eval_eq1

    def sabotaged(g):
        bv = real(g)
        if not bv.applicable:
            return bv
        halved = bv.exact_value / 2
        return bounds_mod.BoundValue(bv.bound_id, True, None, halved,
                                     bv.log2_value - 1.0, bv.context)

    monkeypatch.setattr(bounds_mod, "eval_eq1", sabotaged)
    code, out, _ = run_cli(["verify", "--nmax", "3", "--suites", "soundness"], capsys)
    assert code == 1
    assert "[soundness] FAIL" in out
    assert "counterexample" in out and "eq1_nashwilliams" in out


def test_verify_broken_counting_identity_is_a_counterexample(capsys, monkeypatch):
    # One labeled copy too many breaks labeled = copies * aut(T) on every
    # graph: theorem1 reports each in graph6 form and the run exits 1, not 4.
    import autbounds.embeddings as embeddings_mod

    real = embeddings_mod.count_labeled_embeddings
    monkeypatch.setattr(embeddings_mod, "count_labeled_embeddings",
                        lambda f, g: real(f, g) + 1)
    code, out, err = run_cli(["verify", "--nmax", "3", "--suites", "theorem1"], capsys)
    assert code == 1 and err == ""
    assert out.splitlines() == [
        "[theorem1-embeddings] FAIL: 4 checks, 4 violations",
        "  counterexample: @: counting identity violated: labeled=2, copies=1, aut=1",
        "  counterexample: A_: counting identity violated: labeled=3, copies=1, aut=2",
        "  counterexample: BW: counting identity violated: labeled=3, copies=1, aut=2",
        "  counterexample: Bw: counting identity violated: labeled=7, copies=3, aut=2",
    ]


def test_verify_prints_ten_counterexamples_then_a_count(capsys, monkeypatch):
    from autbounds import verify

    def twelve_violations():
        return verify.SuiteResult("exactness", 12, [f"A_: violation {i}" for i in range(12)])

    monkeypatch.setattr(verify, "exactness_suite", twelve_violations)
    code, out, _ = run_cli(["verify", "--suites", "exactness"], capsys)
    assert code == 1
    assert out.splitlines() == [
        "[exactness] FAIL: 12 checks, 12 violations",
        *(f"  counterexample: A_: violation {i}" for i in range(10)),
        "  ... and 2 more",
    ]


def test_batch_into_a_closed_pipe_exits_141(tmp_path, corpus6):
    # The n <= 6 corpus gives about 120 KB of CSV, more than a pipe buffer
    # holds, so a write fails inside the command once the reader is gone,
    # as in `autbounds batch corpus6.g6 | head -1`.
    path = tmp_path / "corpus6.g6"
    path.write_text("".join(write_graph6(g) + "\n" for graphs in corpus6.values()
                            for g in graphs))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen([sys.executable, "-m", "autbounds.cli", "batch", str(path)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"graph6,n,e,aut,")
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == EXIT_PIPE == 141
    assert err == b""


def test_closed_pipe_on_a_stdout_without_a_descriptor(capsys, monkeypatch):
    # capsys's stdout has no fileno(); main still exits 141 without a word.
    def cut_short(args):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setitem(COMMANDS, "analyze", cut_short)
    assert run_cli(["analyze"], capsys) == (EXIT_PIPE, "", "")
