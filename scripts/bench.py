"""Time one layer of autbounds and record the result.

Layers:
  aut         aut_order on large symmetric graph families from
              autbounds.graphs.SYMMETRIC_FAMILIES, the known group order
              checked.  Also records each family's call count, the
              _search, the _refine and the _is_mapping (bijection check)
              calls of one more cold call per family, recursive ones
              included, and one digest of every family's order, orbits and
              generators.
  embeddings  count_labeled_embeddings of the greedy spanning tree (from
              vertex 0) in every connected graph with n <= 7, plus 40 seeded
              connected G(8, m) for each m in 8, 14, 20, 24, 27: 1,196 pairs.
              The trees are built outside the timing, and rebuilt before
              each repeat, one per bit rows as in the intern table, so no
              repeat reads a search plan cached on the last.
  log2        bounds._power_value over the keys, in call order, that
              compose_report(corollary_mode="both") passes it on the
              connected n <= 7 corpus: every number a report carries.
              _log2 runs only on that memo's misses.  Records, for each
              memo, the calls of one replay, the distinct keys and the
              misses of each repeat.  A _power_value key is a tuple of
              (base, exponent) factors and the edge excess; a base or an
              exponent is an integer, a Fraction, or a (numerator,
              denominator) pair of integers standing for that Fraction.  An
              integer and the equal Fraction are one key, a pair and its
              Fraction are two.
              _log2's keys are (numerator, denominator) pairs.
  corpus      all_graphs(1..7); also records, per n, the candidates
              tried (the bucket-key refinements corpus makes, one per
              candidate), the orbit-least neighbour subsets of the bases,
              and those of them the degree rule dropped (an orbit minimum
              that never reached a refinement).
  trees       greedy_spanning_tree from every start vertex of every
              connected graph with n <= 7, and one best_greedy_tree call per
              graph, which answers every start; one best_greedy_tree call
              per 24-vertex host (the 4x6 grid and a seeded connected
              G(24, 60)), of which vertex 0's tree and product are hashed;
              and all_spanning_trees for n <= 6, then tree_certificate of
              every tree it returned, timed apart on new tree objects built
              before each repeat.  Each repeat records the hits and misses
              of the intern table (the one SpanningTree per bit rows) and
              the trees it coded.  The table of K_n's spanning trees that
              all_spanning_trees reads, for n <= 6, is also timed on its
              own; every timed all_spanning_trees repeat builds it too.
  theorem1    verify.theorem1_suite over the connected n <= 6 corpus and
              over every 8th connected n = 7 graph, each corpus built
              outside the timing and passed as external=; also records the
              checks and violations of each group, and the intern table's
              hits and misses, the trees coded and the naive-oracle calls
              (SpanningTree.naive_aut, count_embeddings' aut_f) per repeat,
              and, each timed on its own, the build of the tables of K_n's
              spanning trees for each group's vertex counts and the build
              of the copy census's class tables over them (with K_n's
              tables already built), which every timed repeat also makes.
  pathcover   structure.path_cover_number on every connected graph with
              n <= 7, on the random graphs of perfbench's analyze-hard
              workload for seeds 0-3 (all have p = 1), on seeded sparse
              connected G(18, m) for m = 19..22 and on K8,10 (p >= 2: the
              Hamiltonian-path search fails, on K8,10 only after its whole
              budget, and the DP runs); also records the p values of each
              group as counts.
  naive       automorphisms.aut_order_naive on oracle_suite's inputs (the
              connected n <= 6 corpus, then 50 graphs.random_graph at n = 7
              and 50 at n = 8 from DEFAULT_SEED), on one representative of
              each spanning-tree class of every connected graph with n <= 6
              (the trees theorem1_suite counts), and on K8 and the empty
              graph on 8 vertices, whose groups are S_8 and prune nothing.
  starfree    structure.star_free_parameter on every connected graph with
              n <= 7, on five seeded connected G(n, m) for each n = 9..20
              and m in n, 2n, 3n, and on K1,19, K2,18 and K20; also records
              the m_min values of each group as counts.
  serialise   parse_graph6 and write_graph6 on the graph6 lines of every
              graph with n <= 7, 100 seeded connected G(8, m) for each m in
              8, 14, 20, and the SYMMETRIC_FAMILIES rows with n <= 64, and
              cli.report_to_dict plus json.dumps on their
              compose_report(corollary_mode="both") reports, whose building
              is timed apart, as compose_report_best_s, so the cost of the
              reports shows apart from the JSON encoder.  write_graph6 runs
              on new Graph(n, rows) copies built before each repeat, so it
              times the encoder, not the line a graph keeps once encoded or
              parsed.  The report_line group times what a batch over these
              lines costs: parse_graph6, compose_report and
              json.dumps(cli.report_to_dict(...)) on each line; records
              each repeat's intern misses.

Every group is timed by one rule: its number is the best of at least 3
calls, with more calls until 1 s has been timed, and at most 1,000 calls.
Every call starts cold: cold() first clears the package's eight lru_caches
(aut_order, the two corpus caches, the intern table of trees, which takes
the values cached on each tree with it, the table of K_n's spanning trees,
both bound memos and the copy census's class tables), as in a fresh
process.  mpmath's own caches, such as its constants at each precision
used, are not cleared.
--quick is a smoke run on smaller inputs that makes exactly 3 calls per
group.  The record is written to BENCH_<label>.json with the Python version,
os.cpu_count(), the git sha of the checkout that holds the imported
autbounds, the timing rule and the seconds per group.  The embeddings and
log2 layers also record a SHA-256 over their results, so two checkouts can be
shown to compute the same values; the corpus layer hashes the graph6 lines
of all_graphs(1..7) in order, and the trees layer hashes its records in the
format of tests/test_golden.py's tree_layer_lines; both are digests that
file pins.  The trees layer also hashes the best greedy tree and product
from vertex 0 of each 24-vertex host under its own key.  The pathcover layer
hashes the p values of every group, the naive layer the orders of every
group, and the starfree layer the m_min and witness of every graph.  The
serialise layer hashes the graph6 lines and the JSON lines of its inputs.

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
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import autbounds
from autbounds import automorphisms, bounds, corpus, embeddings
from autbounds.automorphisms import aut_order, aut_order_naive
from autbounds.bounds import ReportOptions, compose_report
from autbounds.cli import report_to_dict
from autbounds.corpus import connected_graphs
from autbounds.embeddings import count_labeled_embeddings
from autbounds.graphs import (
    SYMMETRIC_FAMILIES,
    Graph,
    complete_bipartite_graph,
    complete_graph,
    connected_gnm,
    grid_graph,
    parse_graph6,
    random_graph,
    write_graph6,
)
from autbounds.structure import path_cover_number, star_free_parameter
from autbounds.trees import (
    SpanningTree,
    all_spanning_trees,
    best_greedy_tree,
    greedy_spanning_tree,
    tree_aut_exact,
    tree_aut_upper,
    tree_certificate,
)
from autbounds.verify import DEFAULT_SEED, theorem1_suite

REPEATS = 3
# A group's calls go on until MIN_SECONDS have been timed, so a millisecond
# group is the best of hundreds of calls, not three.
MIN_SECONDS = 1.0
MAX_REPEATS = 1000
# Every lru_cache of the package, as (module, name).  cold() looks each up at
# call time, so a cache that goes raises AttributeError, not a warm timing.
CACHES = ((automorphisms, "aut_order"), (corpus, "all_graphs"), (corpus, "connected_graphs"),
          (autbounds.trees, "_interned_tree"), (autbounds.trees, "_complete_trees"),
          (bounds, "_power_value"), (bounds, "_log2"), (embeddings, "_tree_classes"))


def families(quick):
    """The names of the timed SYMMETRIC_FAMILIES rows."""
    if quick:
        return ("K8", "Q3")
    return ("K64", "K32,32", "32xK2", "rook8x8", "Q6", "C64", "Paley61", "Q8", "T20",
            "Kneser10,4")


def connected_corpus(quick):
    return [g for n in range(1, 6 if quick else 8) for g in connected_graphs(n)]


def embedding_groups(quick):
    """{group name: [(tree graph, host graph)]} for the embeddings layer."""
    rng = random.Random(DEFAULT_SEED)
    hosts = {"n<=5" if quick else "n<=7": connected_corpus(quick)}
    for m in (8, 14, 20, 24, 27):
        hosts[f"G(8,{m})"] = [connected_gnm(8, m, rng) for _ in range(1 if quick else 40)]
    return {name: [(greedy_spanning_tree(g, 0).tree, g) for g in gs]
            for name, gs in hosts.items()}


@contextmanager
def spy(module, name):
    """Record the positional arguments of every call of module.<name> made
    while the block runs, recursive calls included; yields the list of
    argument tuples.  An AttributeError, not a silent empty list, if the
    name goes."""
    calls = []
    real = getattr(module, name)

    def spied(*args):
        calls.append(args)
        return real(*args)

    setattr(module, name, spied)
    try:
        yield calls
    finally:
        setattr(module, name, real)


def power_value_keys(quick):
    """The (factors, excess) key of every _power_value call made by the
    corpus reports."""
    opts = ReportOptions(corollary_mode="both")
    with spy(bounds, "_power_value") as calls:
        for g in connected_corpus(quick):
            compose_report(g, opts)
    return calls


def cold():
    """Clear every cache in CACHES, as in a fresh process.  A tree the
    caller still holds keeps the values cached on it, so a layer that holds
    trees across repeats rebuilds them in repeated()'s reset."""
    for module, name in CACHES:
        getattr(module, name).cache_clear()


def repeated(run, quick, reset=lambda: None):
    """(best seconds, result, calls) of run(), cold() and then reset() before
    each call: at least REPEATS calls, and more until MIN_SECONDS have been
    timed in all, but at most MAX_REPEATS; exactly REPEATS if quick."""
    min_seconds = 0.0 if quick else MIN_SECONDS
    best, spent, calls = float("inf"), 0.0, 0
    while calls < REPEATS or spent < min_seconds and calls < MAX_REPEATS:
        cold()
        reset()
        t0 = time.perf_counter()
        result = run()
        took = time.perf_counter() - t0
        best, spent, calls = min(best, took), spent + took, calls + 1
    return best, result, calls


def time_groups(groups, fn, quick):
    """({name: best seconds}, {name: [fn(x) for x in inputs]}) of
    {name: inputs}, each group timed by repeated()."""
    seconds, results = {}, {}
    for name, inputs in groups.items():
        seconds[name], results[name], _ = repeated(lambda: [fn(x) for x in inputs], quick)
    return seconds, results


def tree_counts_repeated(run, quick, reset=lambda: None):
    """repeated(run, quick, reset)'s best seconds and result, and per repeat
    the hits and misses of the intern table of trees and the trees the repeat
    coded (trees._centroid_code calls)."""
    counts = {"intern": {"hits": [], "misses": []}, "codings": []}

    def counted():
        codings.clear()
        result = run()
        info = autbounds.trees._interned_tree.cache_info()
        counts["intern"]["hits"].append(info.hits)
        counts["intern"]["misses"].append(info.misses)
        counts["codings"].append(len(codings))
        return result

    with spy(autbounds.trees, "_centroid_code") as codings:
        return (*repeated(counted, quick, reset)[:2], counts)


def table_seconds(ns, quick):
    """Best seconds to build trees._complete_trees(n), the table of K_n's
    spanning trees, for every n in ns, from cold."""
    return repeated(lambda: [autbounds.trees._complete_trees(n) for n in ns], quick)[0]


def class_table_seconds(ns, quick):
    """Best seconds to build embeddings._tree_classes(n), the copy census's
    class table, for every n in ns, from cold but with the tables of K_n's
    trees that it classifies built before the timing."""
    return repeated(lambda: [embeddings._tree_classes(n) for n in ns], quick,
                    lambda: [autbounds.trees._complete_trees(n) for n in ns])[0]


def digest(values):
    return hashlib.sha256(repr(values).encode()).hexdigest()


def bench_aut(quick):
    seconds, repeats, searches, refines, leaves, results = {}, {}, {}, {}, {}, {}
    for name in families(quick):
        build, order = SYMMETRIC_FAMILIES[name]
        g = build()
        seconds[name], res, repeats[name] = repeated(lambda: aut_order(g), quick)
        if res.order != order:
            raise SystemExit(f"{name}: wrong order {res.order}, expected {order}")
        results[name] = (res.order, res.orbits, res.generators)
        cold()
        with (spy(automorphisms, "_search") as search, spy(automorphisms, "_refine") as refine,
              spy(automorphisms, "_is_mapping") as is_mapping):
            aut_order(g)
        searches[name], refines[name], leaves[name] = len(search), len(refine), len(is_mapping)
    return {"aut_order_best_s": seconds, "aut_order_repeats": repeats,
            "search_calls": searches,
            "refine_calls": refines, "is_mapping_calls": leaves,
            "generators_sha256": digest(results)}


def bench_embeddings(quick):
    seconds, counts, fresh = {}, {}, []
    for name, pairs in embedding_groups(quick).items():
        def rebuild():  # new trees, so no repeat reads a plan cached on the last
            copies = {t.rows: SpanningTree(t.n, t.rows) for t, _ in pairs}
            fresh[:] = [(copies[t.rows], g) for t, g in pairs]

        seconds[name], counts[name], _ = repeated(
            lambda: [count_labeled_embeddings(t, g) for t, g in fresh], quick, rebuild)
    return {"count_labeled_embeddings_best_s": seconds,
            "pairs": {name: len(c) for name, c in counts.items()},
            "counts_sha256": digest(counts)}


def bench_log2(quick):
    keys = power_value_keys(quick)
    misses = {"power_value": [], "log2": []}

    def run():
        out = [bounds._power_value(*key) for key in keys]
        misses["power_value"].append(bounds._power_value.cache_info().misses)
        misses["log2"].append(bounds._log2.cache_info().misses)
        return out

    cold()
    with spy(bounds, "_log2") as log2_calls:
        for key in keys:
            bounds._power_value(*key)
    seconds, values, _ = repeated(run, quick)
    return {"log2_best_s": {"corpus": seconds},
            "power_value": {"calls": len(keys), "distinct": len(set(keys)),
                            "misses": misses["power_value"]},
            "log2": {"calls": len(log2_calls), "distinct": len(set(log2_calls)),
                     "misses": misses["log2"]},
            "values_sha256": digest([(exact, log2v.hex()) for exact, log2v in values])}


def bench_corpus(quick):
    nmax = 5 if quick else 7
    cold()
    with spy(corpus, "_refine") as calls, spy(corpus, "_least_masks") as bases:
        for n in range(1, nmax + 1):
            corpus.all_graphs(n)
    candidates = Counter(len(rows) for rows, _ in calls)
    # (base rows, neighbour mask) of each refined candidate
    tried = {(tuple(r & ~(1 << (len(rows) - 1)) for r in rows[:-1]), rows[-1])
             for rows, _ in calls}
    minima, dropped = Counter(), Counter()
    for (base,) in bases:
        for mask in corpus._least_masks(base):
            minima[base.n + 1] += 1
            dropped[base.n + 1] += (base.rows, mask) not in tried
    seconds, graphs, _ = repeated(
        lambda: [g for n in range(1, nmax + 1) for g in corpus.all_graphs(n)], quick)
    text = "".join(write_graph6(g) + "\n" for g in graphs)
    return {"all_graphs_best_s": {f"n<={nmax}": seconds},
            "candidates": dict(sorted(candidates.items())),
            "candidates_total": sum(candidates.values()),
            "orbit_minima": dict(sorted(minima.items())),
            "dropped_by_degree": dict(sorted(dropped.items())),
            "graphs": len(graphs),
            "graph6_sha256": hashlib.sha256(text.encode("ascii")).hexdigest()}


def bench_trees(quick):
    hosts = connected_corpus(quick)
    large_hosts = [grid_graph(4, 6), connected_gnm(24, 60, random.Random(24))]
    small_n = 5 if quick else 6
    small = [g for g in hosts if g.n <= small_n]
    starts = [(g, v0) for g in hosts for v0 in range(g.n)]
    seconds, memos = {}, {}
    seconds["greedy"], greedy, memos["greedy"] = tree_counts_repeated(
        lambda: [greedy_spanning_tree(g, v0) for g, v0 in starts], quick)
    seconds["best_greedy"], best, memos["best_greedy"] = tree_counts_repeated(
        lambda: [pair for g in hosts for pair in best_greedy_tree(g)], quick)
    seconds["best_greedy n=24"], large, memos["best_greedy n=24"] = tree_counts_repeated(
        lambda: [best_greedy_tree(g) for g in large_hosts], quick)
    seconds["all_spanning_trees"], trees, memos["all_spanning_trees"] = tree_counts_repeated(
        lambda: [t for g in small for t in all_spanning_trees(g)], quick)
    fresh = []

    def rebuild():  # new tree objects, so no repeat reads a certificate cached on the last
        fresh[:] = [t for g in small for t in all_spanning_trees(g)]

    seconds["tree_certificate"], certs, memos["tree_certificate"] = tree_counts_repeated(
        lambda: [tree_certificate(t) for t in fresh], quick, rebuild)
    lines = [f"{gt.tree.edges()} {gt.sequence} {gt.step_sizes()} {bt.tree.edges()} {product}\n"
             for gt, (bt, product) in zip(greedy, best)]
    lines += [f"{t.edges()} {cert} {tree_aut_exact(t)} "
              f"{tree_aut_upper(t) if t.n >= 2 else None}\n" for t, cert in zip(trees, certs)]
    large_lines = [f"{bt.tree.edges()} {product}\n" for bt, product in (r[0] for r in large)]
    return {"trees_best_s": seconds,
            "complete_trees_best_s": {f"n<={small_n}": table_seconds(
                range(1, small_n + 1), quick)},
            "starts": len(starts),
            "spanning_trees": len(trees),
            "tree_memos": memos,
            "trees_sha256": hashlib.sha256("".join(lines).encode("ascii")).hexdigest(),
            "best_greedy_n24_sha256":
                hashlib.sha256("".join(large_lines).encode("ascii")).hexdigest()}


def bench_theorem1(quick):
    nmax = 4 if quick else 6
    corpora = {f"n<={nmax}": [g for n in range(1, nmax + 1) for g in connected_graphs(n)]}
    if not quick:
        corpora["n=7/8"] = connected_graphs(7)[::8]
    seconds, checks, violations, memos, naive = {}, {}, {}, {}, {}
    for name, graphs in corpora.items():  # built outside the timing
        naive[name] = []

        def run():
            calls.clear()
            res = theorem1_suite(external=graphs)
            naive[name].append(len(calls))
            return res

        with spy(autbounds.trees, "aut_order_naive") as calls:
            seconds[name], res, memos[name] = tree_counts_repeated(run, quick)
        checks[name], violations[name] = res.checked, len(res.violations)
    ns = {name: sorted({g.n for g in graphs}) for name, graphs in corpora.items()}
    return {"theorem1_suite_best_s": seconds,
            "complete_trees_best_s": {name: table_seconds(ns[name], quick) for name in ns},
            "census_classes_best_s": {name: class_table_seconds(ns[name], quick) for name in ns},
            "checks": checks, "violations": violations,
            "tree_memos": memos, "naive_calls": naive}


def pathcover_groups(quick):
    """{group name: (graphs, least p they must have)} for the pathcover layer."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    from inputs import analyze_hard  # the benchmark's own seeded inputs

    rng = random.Random(DEFAULT_SEED)
    n, seeds, (a, b) = (14, 1, (3, 5)) if quick else (18, 4, (8, 10))
    hard = [parse_graph6(g6) for seed in range(seeds)
            for label, g6, _ in analyze_hard(seed) if label.startswith("random")]
    return {
        f"n<={5 if quick else 7}": (connected_corpus(quick), 1),
        "analyze-hard": (hard, 1),
        f"G({n},{n + 1}..{n + 4})": ([connected_gnm(n, m, rng) for m in range(n + 1, n + 5)], 2),
        f"K{a},{b}": ([complete_bipartite_graph(a, b)], 2),
    }


def bench_pathcover(quick):
    groups = pathcover_groups(quick)
    seconds, ps = time_groups({name: graphs for name, (graphs, _) in groups.items()},
                              lambda g: path_cover_number(g).p, quick)
    for name, (_, least) in groups.items():
        if min(ps[name]) < least:
            raise SystemExit(f"{name}: p = {min(ps[name])}, expected p >= {least}")
    return {"path_cover_number_best_s": seconds,
            "p_counts": {name: dict(sorted(Counter(p).items())) for name, p in ps.items()},
            "p_sha256": digest(list(ps.values()))}


def naive_groups(quick):
    """{group name: graphs} for the naive layer, oracle_suite's draws in order."""
    nmax = 5 if quick else 6
    rng = random.Random(DEFAULT_SEED)
    hosts = [g for n in range(1, nmax + 1) for g in connected_graphs(n)]
    classes = []
    for g in hosts:
        reps = {}
        for t in all_spanning_trees(g):
            reps.setdefault(tree_certificate(t), t)
        classes += reps.values()
    groups = {f"n<={nmax}": hosts,
              "G(7,1/2)": [random_graph(7, rng) for _ in range(5 if quick else 50)]}
    if quick:
        groups["K6"] = [complete_graph(6)]
    else:
        groups["G(8,1/2)"] = [random_graph(8, rng) for _ in range(50)]
        groups["K8"] = [complete_graph(8)]
        groups["E8"] = [Graph(8, (0,) * 8)]
    groups[f"tree classes n<={nmax}"] = classes
    return groups


def bench_naive(quick):
    seconds, orders = time_groups(naive_groups(quick), aut_order_naive, quick)
    return {"aut_order_naive_best_s": seconds,
            "graphs": {name: len(o) for name, o in orders.items()},
            "orders_sha256": digest(orders)}


def starfree_groups(quick):
    """{group name: graphs} for the starfree layer."""
    rng = random.Random(DEFAULT_SEED)
    ns = range(9, 12 if quick else 21)
    groups = {f"n<={5 if quick else 7}": connected_corpus(quick)}
    for m, k in (("n", 1), ("2n", 2), ("3n", 3)):
        groups[f"G(n,{m})"] = [connected_gnm(n, k * n, rng) for n in ns
                               for _ in range(1 if quick else 5)]
    groups["K1,19"] = [complete_bipartite_graph(1, 19)]
    groups["K2,18"] = [complete_bipartite_graph(2, 18)]
    groups["K20"] = [complete_graph(20)]
    return groups


def bench_starfree(quick):
    seconds, params = time_groups(starfree_groups(quick), star_free_parameter, quick)
    return {"star_free_parameter_best_s": seconds,
            "m_min_counts": {name: dict(sorted(Counter(r.m_min for r in rs).items()))
                             for name, rs in params.items()},
            "witness_sha256": digest({name: [(r.m_min, r.witness_vertex, r.witness_set)
                                             for r in rs] for name, rs in params.items()})}


def serialise_graphs(quick):
    """The serialise layer's inputs, in order."""
    rng = random.Random(DEFAULT_SEED)
    graphs = [g for n in range(1, 6 if quick else 8) for g in corpus.all_graphs(n)]
    graphs += [connected_gnm(8, m, rng) for m in (8, 14, 20) for _ in range(5 if quick else 100)]
    rows = [SYMMETRIC_FAMILIES[name][0]() for name in families(True)] if quick else [
        build() for build, _ in SYMMETRIC_FAMILIES.values()]
    return graphs + [g for g in rows if g.n <= 64]


def bench_serialise(quick):
    graphs = serialise_graphs(quick)
    lines = [write_graph6(g) for g in graphs]
    opts = ReportOptions(corollary_mode="both")
    copies = []

    def new_copies():
        copies[:] = [Graph(g.n, g.rows) for g in graphs]

    report_s, reports, _ = repeated(lambda: [compose_report(g, opts) for g in graphs], quick)
    seconds = {}
    seconds["parse_graph6"], parsed, _ = repeated(
        lambda: [parse_graph6(s) for s in lines], quick)
    seconds["write_graph6"], written, _ = repeated(
        lambda: [write_graph6(g) for g in copies], quick, new_copies)
    seconds["report_json"], texts, _ = repeated(
        lambda: [json.dumps(report_to_dict(r)) for r in reports], quick)
    seconds["report_line"], line_texts, memos = tree_counts_repeated(
        lambda: [json.dumps(report_to_dict(compose_report(parse_graph6(s), opts)))
                 for s in lines], quick)
    if parsed != graphs or written != lines:
        raise SystemExit("graph6 lines do not round-trip")
    if line_texts != texts:
        raise SystemExit("a report line differs from its report's JSON")
    return {"serialise_best_s": seconds,
            "compose_report_best_s": {"reports": report_s},
            "graphs": len(graphs),
            "report_line_intern_misses": memos["intern"]["misses"],
            "graph6_sha256": hashlib.sha256("".join(s + "\n" for s in lines).encode()).hexdigest(),
            "json_sha256": hashlib.sha256("".join(t + "\n" for t in texts).encode()).hexdigest()}


LAYERS = {"aut": bench_aut, "embeddings": bench_embeddings, "log2": bench_log2,
          "corpus": bench_corpus, "trees": bench_trees, "theorem1": bench_theorem1,
          "pathcover": bench_pathcover, "naive": bench_naive, "starfree": bench_starfree,
          "serialise": bench_serialise}


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
                    help="a smoke run: smaller inputs and exactly 3 calls per group")
    args = ap.parse_args()
    Path(args.outdir).mkdir(parents=True, exist_ok=True)

    result = LAYERS[args.layer](args.quick)
    for key, value in result.items():
        if key.endswith("_best_s"):
            for name, s in value.items():
                value[name] = round(s, 4)
                print(f"{name:18s} {value[name]:9.4f} s")
    sha, dirty = git_sha()
    record = {
        "label": args.label,
        "layer": args.layer,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_sha": sha,
        "git_dirty": dirty,
        "timing_rule": {"min_calls": REPEATS, "max_calls": MAX_REPEATS,
                        "min_seconds": 0.0 if args.quick else MIN_SECONDS},
        **result,
    }
    path = Path(args.outdir) / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
