import io
import json

import pytest

from autbounds.cli import main


def run_cli(argv, capsys, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


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


def test_batch_malformed_line_skipped(tmp_path, capsys):
    p = tmp_path / "batch.g6"
    p.write_text("Bw\nnot-a-graph~~~\nC~\n")
    code, out, err = run_cli(["batch", str(p), "--output", "json"], capsys)
    assert code == 0
    records = [json.loads(ln) for ln in out.strip().splitlines()]
    assert len(records) == 2
    assert "line 2" in err and "skipped" in err


def test_batch_empty_file(tmp_path, capsys):
    p = tmp_path / "empty.g6"
    p.write_text("")
    code, out, err = run_cli(["batch", str(p)], capsys)
    assert code == 0 and out == ""


def test_batch_unreadable_exit_2(tmp_path, capsys):
    code, _, err = run_cli(["batch", str(tmp_path / "missing.g6")], capsys)
    assert code == 2


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


def test_verify_small_pass(capsys):
    code, out, _ = run_cli(["verify", "--nmax", "4", "--random-trials", "2"], capsys)
    assert code == 0
    assert "[soundness] PASS" in out
    assert "corpus: {1: 1, 2: 1, 3: 2, 4: 6}" in out


def test_verify_nmax_refusal(capsys):
    from autbounds.corpus import GENERATION_LIMIT
    code, _, err = run_cli(["verify", "--nmax", str(GENERATION_LIMIT + 1)], capsys)
    assert code == 3 and f"nmax <= {GENERATION_LIMIT}" in err


@pytest.mark.parametrize("nmax", ["0", "-2"])
def test_verify_vacuous_nmax_exit_2(nmax, capsys):
    code, out, err = run_cli(["verify", "--nmax", nmax], capsys)
    assert code == 2
    assert "PASS" not in out and "--nmax must be at least 1" in err


def test_verify_negative_trials_exit_2(capsys):
    code, out, err = run_cli(["verify", "--random-trials", "-5"], capsys)
    assert code == 2
    assert "PASS" not in out and "--random-trials must be at least 0" in err


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
    p = tmp_path / "corpus.g6"
    p.write_text("C~\nCl\n")
    code, out, _ = run_cli(["verify", "--suites", "soundness", "--corpus", str(p)], capsys)
    assert code == 0 and "2 checks" in out


@pytest.mark.parametrize("text", ["", "\n  \n\n"], ids=["empty", "blank-lines"])
def test_verify_empty_external_corpus_exit_2(tmp_path, capsys, text):
    p = tmp_path / "empty.g6"
    p.write_text(text)
    code, out, err = run_cli(["verify", "--corpus", str(p)], capsys)
    assert code == 2 and out == ""
    assert f"{p}: the corpus file holds no graphs" in err


def test_verify_external_corpus_disconnected(tmp_path, capsys):
    # K_4 plus a disconnected 4-vertex graph: every suite still prints, and
    # the disconnected graph is one theorem1 violation, not an aborted run.
    p = tmp_path / "corpus.g6"
    p.write_text("C~\nCC\n")
    code, out, err = run_cli(["verify", "--suites", "soundness,theorem1",
                              "--corpus", str(p)], capsys)
    assert code == 1 and err == ""
    assert "[soundness] PASS" in out and "[greedy-construction] FAIL" in out
    theorem1 = next(ln for ln in out.splitlines() if ln.startswith("[theorem1-embeddings]"))
    assert "FAIL" in theorem1 and theorem1.endswith(" 1 violations")
    assert "counterexample: CC: disconnected" in out


def test_verify_external_corpus_too_large_for_theorem1(tmp_path, capsys):
    # K_4 and K_8: theorem1 cannot enumerate the spanning trees of K_8, so the
    # run is refused before any suite runs; without theorem1 it passes.
    p = tmp_path / "k8.g6"
    p.write_text("C~\nG~~~~{\n")
    code, out, err = run_cli(["verify", "--corpus", str(p)], capsys)
    assert code == 3 and out == ""
    assert "G~~~~{ has n=8" in err and "n <= 7" in err
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

    def sabotaged(stats, n):
        bv = real(stats, n)
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
