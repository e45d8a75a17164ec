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


def test_bench_aut_quick(tmp_path):
    proc = run_script("bench.py", "--layer", "aut", "--quick", "--label", "smoke",
                      "--outdir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    record = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert record["label"] == "smoke" and record["cpu_count"] == os.cpu_count()
    assert sorted(record["aut_order_best_s"]) == ["K8", "Q3"]
    assert all(s >= 0 for s in record["aut_order_best_s"].values())


@pytest.mark.parametrize("layer, key, groups", [
    ("embeddings", "count_labeled_embeddings_best_s",
     ["G(8,14)", "G(8,20)", "G(8,24)", "G(8,27)", "G(8,8)", "n<=5"]),
    ("log2", "log2_best_s", ["corpus"]),
])
def test_bench_layers_quick(tmp_path, layer, key, groups):
    proc = run_script("bench.py", "--layer", layer, "--quick", "--label", "smoke",
                      "--outdir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    record = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert record["layer"] == layer and record["cpu_count"] == os.cpu_count()
    assert sorted(record[key]) == groups
    assert all(s >= 0 for s in record[key].values())


def test_bench_corpus_quick(tmp_path):
    proc = run_script("bench.py", "--layer", "corpus", "--quick", "--label", "smoke",
                      "--outdir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    record = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert record["layer"] == "corpus" and record["all_graphs_best_s"]["n<=5"] >= 0
    assert record["graphs"] == 1 + 2 + 4 + 11 + 34
    assert sorted(record["candidates"]) == ["2", "3", "4", "5"]
    assert record["candidates_total"] == sum(record["candidates"].values())
    # all_graphs(1..5) as graph6 lines, the same bytes as before orbit pruning
    assert record["graph6_sha256"] == (
        "861f74fe9f54d253816176caca294d5cd13e80ff22665d0174137117b6ceb6c9")
