"""Time one layer of autbounds and record the result.

Layers:
  aut         aut_order on large symmetric graph families, the known group
              order checked; the cache is cleared before every call.
  embeddings  count_labeled_embeddings of the greedy spanning tree (from
              vertex 0) in every connected graph with n <= 7, plus 40 seeded
              connected G(8, m) for each m in 8, 14, 20, 24, 27: 1,196 pairs.
  log2        bounds._log2 over the arguments, in call order, that
              compose_report(corollary_mode="both") passes it on the
              connected n <= 7 corpus; any log2 memo is cleared first.
  corpus      all_graphs(1..7), the all_graphs, connected_graphs and
              aut_order caches cleared first; also records the candidates
              tried per n (the bucket-key refinements corpus makes, one per
              candidate).

Each group is timed best-of-3.  The record is written to BENCH_<label>.json
with the Python version, os.cpu_count(), the git sha of the checkout that
holds the imported autbounds, and the seconds per group.  The embeddings and
log2 layers also record a SHA-256 over their results, so two checkouts can be
shown to compute the same values; the corpus layer hashes the graph6 lines
of all_graphs(1..7) in order, the digest tests/test_golden.py pins.

Usage:
    python scripts/bench.py --layer aut --label change [--outdir .] [--quick]

To time another checkout, put its src/ first on PYTHONPATH.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import subprocess
import time
from math import factorial
from pathlib import Path

import mpmath

import autbounds
from autbounds import bounds, corpus
from autbounds.automorphisms import aut_order
from autbounds.bounds import ReportOptions, compose_report
from autbounds.corpus import connected_graphs
from autbounds.embeddings import count_labeled_embeddings
from autbounds.graphs import (
    Graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    is_connected,
    write_graph6,
)
from autbounds.trees import greedy_spanning_tree

REPEATS = 3
SEED = 20020489


def hypercube(d):
    return Graph.from_edges(1 << d, [(v, v ^ (1 << i)) for v in range(1 << d)
                                     for i in range(d) if v < v ^ (1 << i)])


def rook_graph(k):
    return Graph.from_edges(k * k, [(k * i + j, k * i2 + j2)
                                    for i in range(k) for j in range(k)
                                    for i2 in range(k) for j2 in range(k)
                                    if (i == i2) != (j == j2) and k * i + j < k * i2 + j2])


def paley(q):
    squares = {x * x % q for x in range(1, q)}
    return Graph.from_edges(q, [(u, v) for u in range(q) for v in range(u + 1, q)
                                if (v - u) % q in squares])


def families(quick):
    """(name, graph, known |Aut|) for each timed family."""
    if quick:
        return [("K8", complete_graph(8), factorial(8)),
                ("Q3", hypercube(3), 2 ** 3 * factorial(3))]
    return [
        ("K64", complete_graph(64), factorial(64)),
        ("K32,32", complete_bipartite_graph(32, 32), 2 * factorial(32) ** 2),
        ("32xK2", Graph.from_edges(64, [(2 * i, 2 * i + 1) for i in range(32)]),
         2 ** 32 * factorial(32)),
        ("rook8x8", rook_graph(8), 2 * factorial(8) ** 2),
        ("Q6", hypercube(6), 2 ** 6 * factorial(6)),
        ("C64", cycle_graph(64), 128),
        ("Paley61", paley(61), 61 * 30),
    ]


def connected_gnm(n, m, rng):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    while True:
        g = Graph.from_edges(n, rng.sample(pairs, m))
        if is_connected(g):
            return g


def connected_corpus(quick):
    return [g for n in range(1, 6 if quick else 8) for g in connected_graphs(n)]


def embedding_groups(quick):
    """{group name: [(tree graph, host graph)]} for the embeddings layer."""
    rng = random.Random(SEED)
    hosts = {"n<=5" if quick else "n<=7": connected_corpus(quick)}
    for m in (8, 14, 20, 24, 27):
        hosts[f"G(8,{m})"] = [connected_gnm(8, m, rng) for _ in range(1 if quick else 40)]
    return {name: [(greedy_spanning_tree(g, 0).tree.to_graph(), g) for g in gs]
            for name, gs in hosts.items()}


def log2_arguments(quick):
    """(argument, precision) of every _log2 call made by the corpus reports."""
    calls = []
    real = bounds._log2

    def spy(x):
        calls.append((x, mpmath.mp.prec))
        return real(x)

    bounds._log2 = spy
    try:
        opts = ReportOptions(corollary_mode="both")
        for g in connected_corpus(quick):
            compose_report(g, opts)
    finally:
        bounds._log2 = real
    return calls


def clear_log2_memo():
    memo = getattr(bounds, "_log2_at", None)  # absent where _log2 is not memoised
    if memo is not None:
        memo.cache_clear()


def best_of(run, reset):
    """(best seconds, result) of REPEATS calls of run(), reset() before each."""
    best = float("inf")
    for _ in range(REPEATS):
        reset()
        t0 = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - t0)
    return best, result


def digest(values):
    return hashlib.sha256(repr(values).encode()).hexdigest()


def bench_aut(quick):
    seconds = {}
    for name, g, order in families(quick):
        seconds[name], res = best_of(lambda: aut_order(g), aut_order.cache_clear)
        if res.order != order:
            raise SystemExit(f"{name}: wrong order {res.order}, expected {order}")
    return {"aut_order_best_s": seconds}


def bench_embeddings(quick):
    seconds, counts = {}, {}
    for name, pairs in embedding_groups(quick).items():
        seconds[name], counts[name] = best_of(
            lambda: [count_labeled_embeddings(f, g) for f, g in pairs], lambda: None)
    return {"count_labeled_embeddings_best_s": seconds,
            "pairs": {name: len(c) for name, c in counts.items()},
            "counts_sha256": digest(counts)}


def bench_log2(quick):
    calls = log2_arguments(quick)

    def run():
        out = []
        for x, prec in calls:
            with mpmath.workprec(prec):
                out.append(float(bounds._log2(x)))
        return out

    seconds, values = best_of(run, clear_log2_memo)
    return {"log2_best_s": {"corpus": seconds},
            "calls": len(calls),
            "distinct": len(set(calls)),
            "values_sha256": digest(values)}


def clear_corpus_caches():
    for fn in (corpus.all_graphs, corpus.connected_graphs, aut_order):
        fn.cache_clear()


def bench_corpus(quick):
    nmax = 5 if quick else 7
    candidates = {}
    real = corpus._refine

    def spy(rows, cells):
        candidates[len(rows)] = candidates.get(len(rows), 0) + 1
        return real(rows, cells)

    corpus._refine = spy
    try:
        clear_corpus_caches()
        for n in range(1, nmax + 1):
            corpus.all_graphs(n)
    finally:
        corpus._refine = real
    seconds, graphs = best_of(
        lambda: [g for n in range(1, nmax + 1) for g in corpus.all_graphs(n)],
        clear_corpus_caches)
    text = "".join(write_graph6(g) + "\n" for g in graphs)
    return {"all_graphs_best_s": {f"n<={nmax}": seconds},
            "candidates": dict(sorted(candidates.items())),
            "candidates_total": sum(candidates.values()),
            "graphs": len(graphs),
            "graph6_sha256": hashlib.sha256(text.encode("ascii")).hexdigest()}


LAYERS = {"aut": bench_aut, "embeddings": bench_embeddings, "log2": bench_log2,
          "corpus": bench_corpus}


def git_sha():
    """(sha, dirty) of the checkout holding the imported package, or (None, None)."""
    here = Path(autbounds.__file__).resolve().parent

    def git(*args):
        return subprocess.run(["git", "-C", str(here), *args], capture_output=True,
                              text=True, check=True).stdout.strip()
    try:
        return git("rev-parse", "HEAD"), bool(git("status", "--porcelain", "--", "."))
    except (OSError, subprocess.CalledProcessError):
        return None, None


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--layer", choices=sorted(LAYERS), required=True)
    ap.add_argument("--label", required=True)
    ap.add_argument("--outdir", default=".")
    ap.add_argument("--quick", action="store_true",
                    help="a smoke run: K8 and Q3, or the n <= 5 corpus (and 5 G(8, m))")
    args = ap.parse_args()

    result = LAYERS[args.layer](args.quick)
    for key, value in result.items():
        if key.endswith("_best_s"):
            for name, s in value.items():
                value[name] = round(s, 4)
                print(f"{name:10s} {value[name]:9.4f} s")
    sha, dirty = git_sha()
    record = {
        "label": args.label,
        "layer": args.layer,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_sha": sha,
        "git_dirty": dirty,
        "repeats": REPEATS,
        **result,
    }
    path = Path(args.outdir) / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
