"""Smoke tests: the scripts under scripts/ still run against the package's
public names."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_tightness_table_runs():
    proc = run_script("tightness_table.py", "--nmax", "4")
    assert proc.returncode == 0, proc.stderr
    assert "10 connected graphs analysed" in proc.stdout


def test_export_corpus_runs(tmp_path):
    proc = run_script("export_corpus.py", "--nmax", "4", "--outdir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    counts = [len((tmp_path / f"connected_{n}.g6").read_text().splitlines())
              for n in range(1, 5)]
    assert counts == [1, 1, 2, 6]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        f"connected_{n}.g6" for n in range(1, 5)]


@pytest.mark.parametrize("nmax", ["0", "9"])
def test_scripts_refuse_nmax_out_of_range(tmp_path, nmax):
    # argparse refuses before any graph is generated or file written
    proc = run_script("tightness_table.py", "--nmax", nmax)
    assert proc.returncode == 2 and "invalid choice" in proc.stderr
    assert proc.stdout == ""
    proc = run_script("export_corpus.py", "--nmax", nmax, "--outdir", str(tmp_path / "out"))
    assert proc.returncode == 2 and "invalid choice" in proc.stderr
    assert not (tmp_path / "out").exists()


def test_bench_aut_quick(tmp_path):
    # --outdir names a directory that does not exist yet: bench.py makes it
    outdir = tmp_path / "new" / "dir"
    proc = run_script("bench.py", "--layer", "aut", "--quick", "--label", "smoke",
                      "--outdir", str(outdir))
    assert proc.returncode == 0, proc.stderr
    record = json.loads((outdir / "BENCH_smoke.json").read_text())
    assert record["label"] == "smoke" and record["cpu_count"] == os.cpu_count()
    assert sorted(record["aut_order_best_s"]) == ["K8", "Q3"]
    assert all(s >= 0 for s in record["aut_order_best_s"].values())
    # each family is called at least three times, and more until 0.2 s are timed
    assert sorted(record["aut_order_repeats"]) == ["K8", "Q3"]
    assert all(3 <= r <= 1000 for r in record["aut_order_repeats"].values())
    # one top-level _search finds each kept generator, n - 1 of them for K8,
    # and returns the aligned bijection at once: it never branches
    assert record["search_calls"] == {"K8": 7, "Q3": 3}
    # K8: the unit partition, 7 first-path levels, and one child per level,
    # refined by aut_order before its search: 1 + 7 + 7
    assert sorted(record["refine_calls"]) == ["K8", "Q3"]
    assert record["refine_calls"]["K8"] == 1 + 7 + 7
    # one mapping check per kept generator (K8: 7, Q3: 3); none fails on them
    assert record["is_mapping_calls"] == {"K8": 7, "Q3": 3}
    # (order, orbits, generators) of K8 and Q3: the digest the descent-only
    # search, helpers.search_reference, gives
    assert record["generators_sha256"] == (
        "bbb0d8a97ecf7f539ab991edf65154857684491549f79a23614914790a44a655")


@pytest.mark.parametrize("layer, key, groups", [
    ("embeddings", "count_labeled_embeddings_best_s",
     ["G(8,14)", "G(8,20)", "G(8,24)", "G(8,27)", "G(8,8)", "n<=5"]),
    ("log2", "log2_best_s", ["corpus"]),
    pytest.param("trees", "trees_best_s",
                 ["all_spanning_trees", "best_greedy", "best_greedy n=24", "greedy",
                  "tree_certificate"], id="trees"),
    ("theorem1", "theorem1_suite_best_s", ["n<=4"]),
    ("pathcover", "path_cover_number_best_s",
     ["G(14,15..18)", "K3,5", "analyze-hard", "n<=5"]),
    ("naive", "aut_order_naive_best_s", ["G(7,1/2)", "K6", "n<=5", "tree classes n<=5"]),
    ("starfree", "star_free_parameter_best_s",
     ["G(n,2n)", "G(n,3n)", "G(n,n)", "K1,19", "K2,18", "K20", "n<=5"]),
    ("serialise", "serialise_best_s",
     ["parse_graph6", "report_json", "report_line", "write_graph6"]),
])
def test_bench_layers_quick(tmp_path, layer, key, groups):
    proc = run_script("bench.py", "--layer", layer, "--quick", "--label", "smoke",
                      "--outdir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    record = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert record["layer"] == layer and record["cpu_count"] == os.cpu_count()
    assert sorted(record[key]) == groups
    assert all(s >= 0 for s in record[key].values())
    if layer == "log2":
        # every repeat starts with both memos cold and misses once per
        # distinct key; _log2 runs only on _power_value's misses
        for name in ("power_value", "log2"):
            memo = record[name]
            assert memo["misses"] == [memo["distinct"]] * 3
        assert record["power_value"]["calls"] > record["power_value"]["distinct"]
        assert record["log2"]["calls"] < record["power_value"]["calls"]
    if layer in ("trees", "theorem1"):
        # every repeat starts from a cold intern table and new tree objects,
        # so each repeat counts the same hits, misses and codings; a warm
        # table or a tree with values cached on it would change later repeats
        for memos in record["tree_memos"].values():
            assert sorted(memos) == ["codings", "intern"]
            for counts in (memos["intern"]["hits"], memos["intern"]["misses"], memos["codings"]):
                assert counts == [counts[0]] * 3
    if layer == "trees":
        # each labeled tree is built once and coded once: all n^(n-2) of
        # them, since each spans K_n
        memos = record["tree_memos"]
        assert memos["all_spanning_trees"]["intern"]["misses"] == [1 + 1 + 3 + 16 + 125] * 3
        assert memos["tree_certificate"]["intern"]["misses"] == [1 + 1 + 3 + 16 + 125] * 3
        assert memos["tree_certificate"]["codings"] == [1 + 1 + 3 + 16 + 125] * 3
        # tests/test_golden.py's tree_layer_lines format over n <= 5
        assert record["starts"] == 1 + 2 + 2 * 3 + 6 * 4 + 21 * 5
        assert record["trees_sha256"] == (
            "208592e51756c2c0e40b70d8ff2b8c4c0ac2138703b5efa67c67d3b64a706290")
        # the two 24-vertex hosts, the same graphs as helpers.greedy_hosts()
        assert record["best_greedy_n24_sha256"] == (
            "0a0dadb5d630f37f8b6cc5baf921af9b89ace3d3c22af066688d90c86ffa93b7")
    if layer == "theorem1":
        memos = record["tree_memos"]["n<=4"]
        assert memos["intern"]["misses"] == memos["codings"] == [1 + 1 + 3 + 16] * 3
        # one check per spanning-tree class: 1, 1 and 2 at n = 1..3, 9 at n = 4
        assert record["checks"] == {"n<=4": 13} and record["violations"] == {"n<=4": 0}
    if layer == "pathcover":
        # 31 connected graphs with n <= 5, 4 of them without a Hamiltonian path
        assert record["p_counts"]["n<=5"] == {"1": 27, "2": 3, "3": 1}
        assert record["p_counts"]["analyze-hard"] == {"1": 3}
        assert record["p_sha256"] == (
            "2080e4cc687270da6a8b7cc7ffc8790ecb1945eafb4e6278cc1f6c418e6586d0")
    if layer == "naive":
        assert record["graphs"] == {"n<=5": 31, "G(7,1/2)": 5, "K6": 1,
                                    "tree classes n<=5": 60}
        # the orders of every group, the same as the n! walk computed
        assert record["orders_sha256"] == (
            "e25b58530d9664ba84547f853815b323006743534507ff150f29df1971f6715e")
    if layer == "starfree":
        # 31 connected graphs with n <= 5; K_{p,q} with p < q has m_min q + 1
        assert sum(record["m_min_counts"]["n<=5"].values()) == 31
        assert record["m_min_counts"]["K1,19"] == {"20": 1}
        assert record["m_min_counts"]["K2,18"] == {"19": 1}
        assert record["m_min_counts"]["K20"] == {"2": 1}
        assert record["witness_sha256"] == (
            "e22fe2979f8a47f1a4ac1df9115036328dbd6f6ded7353104c3600b32bed2702")
    if layer == "serialise":
        # all graphs with n <= 5, 3 x 5 G(8, m), K8 and Q3
        assert record["graphs"] == 1 + 2 + 4 + 11 + 34 + 15 + 2
        assert record["graph6_sha256"] == (
            "7ebc6e76b0a774f8dd9466f34166c10bf56d35170e00433040eb328548b92dd0")
        assert record["json_sha256"] == (
            "d9c81c7bb4f9e7bad9fcbda97101cbaf880c73add0d126d4a4e90ec0f07a6faf")


def test_bench_corpus_quick(tmp_path):
    proc = run_script("bench.py", "--layer", "corpus", "--quick", "--label", "smoke",
                      "--outdir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    record = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert record["layer"] == "corpus" and record["all_graphs_best_s"]["n<=5"] >= 0
    assert record["graphs"] == 1 + 2 + 4 + 11 + 34
    assert sorted(record["candidates"]) == ["2", "3", "4", "5"]
    assert record["candidates_total"] == sum(record["candidates"].values())
    # each orbit minimum is either refined or dropped by the degree rule;
    # 118 is every orbit minimum of the bases with n <= 4
    assert sorted(record["orbit_minima"]) == sorted(record["dropped_by_degree"]) == [
        "2", "3", "4", "5"]
    for n, total in record["orbit_minima"].items():
        assert record["candidates"][n] + record["dropped_by_degree"][n] == total
    assert sum(record["orbit_minima"].values()) == 118
    assert sum(record["dropped_by_degree"].values()) > 0
    # all_graphs(1..5) as graph6 lines, the same bytes as before orbit pruning
    assert record["graph6_sha256"] == (
        "861f74fe9f54d253816176caca294d5cd13e80ff22665d0174137117b6ceb6c9")
