"""Time one layer of autbounds and record the result.

Layers:
  aut         aut_order on large symmetric graph families from
              autbounds.graphs.SYMMETRIC_FAMILIES, the known group order
              checked; the cache is cleared before every call.  Each
              family's call is repeated until at least 3 calls and 0.2 s
              have been timed, at most 1,000 calls, and the count is
              recorded.  Also records the _search, the _refine and the
              _is_mapping (bijection check) calls of one cold call per
              family, recursive ones included, and one digest of every
              family's order, orbits and generators.
  embeddings  count_labeled_embeddings of the greedy spanning tree (from
              vertex 0) in every connected graph with n <= 7, plus 40 seeded
              connected G(8, m) for each m in 8, 14, 20, 24, 27: 1,196 pairs.
  log2        bounds._power_value over the keys, in call order, that
              compose_report(corollary_mode="both") passes it on the
              connected n <= 7 corpus: every number a report carries.
              _log2 runs only on that memo's misses.  Both memos are
              cleared before every repeat.  Records, for each memo, the
              calls of one replay, the distinct keys and the misses of each
              repeat.  A _power_value key is a tuple of (base, exponent)
              factors and the edge excess; a base or an exponent is an
              integer, a Fraction, or a (numerator, denominator) pair of
              integers standing for that Fraction.  An integer and the
              equal Fraction are one key, a pair and its Fraction are two.
              _log2's keys are (numerator, denominator) pairs.
  corpus      all_graphs(1..7), the all_graphs, connected_graphs and
              aut_order caches cleared first; also records, per n, the
              candidates tried (the bucket-key refinements corpus makes, one
              per candidate), the orbit-least neighbour subsets of the
              bases, and those of them the degree rule dropped (an orbit
              minimum that never reached a refinement).
  trees       greedy_spanning_tree from every start vertex of every
              connected graph with n <= 7, and one best_greedy_tree call per
              graph, which answers every start; one best_greedy_tree call
              per 24-vertex host (the 4x6 grid and a seeded connected
              G(24, 60)), of which vertex 0's tree and product are hashed;
              and all_spanning_trees for n <= 6, then
              tree_certificate of every tree it returned, timed apart on
              new tree objects built before each repeat.  Every group starts
              from a cold intern table (the one SpanningTree per bit rows,
              which caches its certificate, aut and degree-product
              ceiling); each repeat records the table's hits and misses
              and the trees it coded.
  theorem1    verify.theorem1_suite over the connected n <= 6 corpus and
              over every 8th connected n = 7 graph; also records the checks
              and violations of each group, and the intern table's hits and
              misses and the trees coded per repeat.  The aut_order cache
              and the intern table are cleared before every repeat.
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
              compose_report(corollary_mode="both") reports, which are built
              outside the timing.  write_graph6 runs on new Graph(n, rows)
              copies built before each repeat, so it times the encoder, not
              the line a graph keeps once encoded or parsed.  The
              report_line group times what a batch over these lines costs:
              parse_graph6, compose_report and
              json.dumps(cli.report_to_dict(...)) on each line, the
              aut_order cache and both bound memos cleared before each
              repeat, as in a fresh process.

Each group is timed best-of-3, except the aut layer's families (above).
The record is written to BENCH_<label>.json
with the Python version, os.cpu_count(), the git sha of the checkout that
holds the imported autbounds, and the seconds per group.  The embeddings and
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
from autbounds import automorphisms, bounds, corpus
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
    all_spanning_trees,
    best_greedy_tree,
    greedy_spanning_tree,
    tree_aut_exact,
    tree_aut_upper,
    tree_certificate,
)
from autbounds.verify import DEFAULT_SEED, theorem1_suite

REPEATS = 3
# The aut layer repeats each family's cold call until AUT_MIN_SECONDS have
# been timed, so a millisecond family is the best of a hundred calls, not three.
AUT_MIN_SECONDS = 0.2
MAX_REPEATS = 1000


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


def repeated(run, reset, min_seconds):
    """(best seconds, result, calls) of run(), reset() before each call:
    at least REPEATS calls, and more until min_seconds have been timed in
    all, but at most MAX_REPEATS."""
    best, spent, calls = float("inf"), 0.0, 0
    while calls < REPEATS or spent < min_seconds and calls < MAX_REPEATS:
        reset()
        t0 = time.perf_counter()
        result = run()
        took = time.perf_counter() - t0
        best, spent, calls = min(best, took), spent + took, calls + 1
    return best, result, calls


def best_of(run, reset):
    """(best seconds, result) of REPEATS calls of run(), reset() before each."""
    return repeated(run, reset, 0.0)[:2]


def cold_certificate_best_of(run, reset=lambda: None):
    """best_of(run), the intern table of trees cleared before each repeat and
    reset() called after it.  Also returns, per repeat, the table's hits and
    misses and the trees the repeat coded (trees._centroid_code calls)."""
    intern = autbounds.trees._interned_tree  # an AttributeError, not a warm timing, if it goes
    counts = {"intern": {"hits": [], "misses": []}, "codings": []}

    def cold():
        intern.cache_clear()
        reset()

    def counted():
        codings.clear()
        result = run()
        info = intern.cache_info()
        counts["intern"]["hits"].append(info.hits)
        counts["intern"]["misses"].append(info.misses)
        counts["codings"].append(len(codings))
        return result

    with spy(autbounds.trees, "_centroid_code") as codings:
        return (*best_of(counted, cold), counts)


def digest(values):
    return hashlib.sha256(repr(values).encode()).hexdigest()


def spied_calls(g, name):
    """Calls of automorphisms.<name>, recursive ones included, during one
    cold aut_order(g)."""
    aut_order.cache_clear()
    with spy(automorphisms, name) as calls:
        aut_order(g)
    return len(calls)


def bench_aut(quick):
    seconds, repeats, searches, refines, leaves, results = {}, {}, {}, {}, {}, {}
    for name in families(quick):
        build, order = SYMMETRIC_FAMILIES[name]
        g = build()
        seconds[name], res, repeats[name] = repeated(
            lambda: aut_order(g), aut_order.cache_clear, AUT_MIN_SECONDS)
        if res.order != order:
            raise SystemExit(f"{name}: wrong order {res.order}, expected {order}")
        results[name] = (res.order, res.orbits, res.generators)
        searches[name] = spied_calls(g, "_search")
        refines[name] = spied_calls(g, "_refine")
        leaves[name] = spied_calls(g, "_is_mapping")
    return {"aut_order_best_s": seconds, "aut_order_repeats": repeats,
            "search_calls": searches,
            "refine_calls": refines, "is_mapping_calls": leaves,
            "generators_sha256": digest(results)}


def bench_embeddings(quick):
    seconds, counts = {}, {}
    for name, pairs in embedding_groups(quick).items():
        seconds[name], counts[name] = best_of(
            lambda: [count_labeled_embeddings(f, g) for f, g in pairs], lambda: None)
    return {"count_labeled_embeddings_best_s": seconds,
            "pairs": {name: len(c) for name, c in counts.items()},
            "counts_sha256": digest(counts)}


def bench_log2(quick):
    keys = power_value_keys(quick)
    # an AttributeError here, not a warm timing, if a memo goes
    memos = {"power_value": bounds._power_value, "log2": bounds._log2}
    misses = {name: [] for name in memos}

    def cold():
        for memo in memos.values():
            memo.cache_clear()

    def run():
        out = [bounds._power_value(*key) for key in keys]
        for name, memo in memos.items():
            misses[name].append(memo.cache_info().misses)
        return out

    cold()
    with spy(bounds, "_log2") as log2_calls:
        for key in keys:
            bounds._power_value(*key)
    seconds, values = best_of(run, cold)
    return {"log2_best_s": {"corpus": seconds},
            "power_value": {"calls": len(keys), "distinct": len(set(keys)),
                            "misses": misses["power_value"]},
            "log2": {"calls": len(log2_calls), "distinct": len(set(log2_calls)),
                     "misses": misses["log2"]},
            "values_sha256": digest([(exact, log2v.hex()) for exact, log2v in values])}


def clear_corpus_caches():
    for fn in (corpus.all_graphs, corpus.connected_graphs, aut_order):
        fn.cache_clear()


def bench_corpus(quick):
    nmax = 5 if quick else 7
    clear_corpus_caches()
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
    seconds, graphs = best_of(
        lambda: [g for n in range(1, nmax + 1) for g in corpus.all_graphs(n)],
        clear_corpus_caches)
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
    small = [g for g in hosts if g.n <= (5 if quick else 6)]
    starts = [(g, v0) for g in hosts for v0 in range(g.n)]
    seconds, memos = {}, {}
    seconds["greedy"], greedy, memos["greedy"] = cold_certificate_best_of(
        lambda: [greedy_spanning_tree(g, v0) for g, v0 in starts])
    seconds["best_greedy"], best, memos["best_greedy"] = cold_certificate_best_of(
        lambda: [pair for g in hosts for pair in best_greedy_tree(g)])
    seconds["best_greedy n=24"], large, memos["best_greedy n=24"] = cold_certificate_best_of(
        lambda: [best_greedy_tree(g) for g in large_hosts])
    seconds["all_spanning_trees"], trees, memos["all_spanning_trees"] = (
        cold_certificate_best_of(lambda: [t for g in small for t in all_spanning_trees(g)]))
    fresh = []

    def rebuild():  # new tree objects, so no repeat reads a certificate cached on the last
        fresh[:] = [t for g in small for t in all_spanning_trees(g)]

    seconds["tree_certificate"], certs, memos["tree_certificate"] = cold_certificate_best_of(
        lambda: [tree_certificate(t) for t in fresh], rebuild)
    lines = [f"{gt.tree.edges()} {gt.sequence} {gt.step_sizes()} {bt.tree.edges()} {product}\n"
             for gt, (bt, product) in zip(greedy, best)]
    lines += [f"{t.edges()} {cert} {tree_aut_exact(t)} "
              f"{tree_aut_upper(t) if t.n >= 2 else None}\n" for t, cert in zip(trees, certs)]
    large_lines = [f"{bt.tree.edges()} {product}\n" for bt, product in (r[0] for r in large)]
    return {"trees_best_s": seconds,
            "starts": len(starts),
            "spanning_trees": len(trees),
            "tree_memos": memos,
            "trees_sha256": hashlib.sha256("".join(lines).encode("ascii")).hexdigest(),
            "best_greedy_n24_sha256":
                hashlib.sha256("".join(large_lines).encode("ascii")).hexdigest()}


def bench_theorem1(quick):
    nmax = 4 if quick else 6
    runs = {f"n<={nmax}": lambda: theorem1_suite(nmax=nmax)}
    if not quick:
        sample = connected_graphs(7)[::8]
        runs["n=7/8"] = lambda: theorem1_suite(external=sample)
    for n in range(1, nmax + 1):
        connected_graphs(n)  # built and cached outside the timing
    seconds, checks, violations, memos = {}, {}, {}, {}
    for name, run in runs.items():
        seconds[name], res, memos[name] = cold_certificate_best_of(run, aut_order.cache_clear)
        checks[name], violations[name] = res.checked, len(res.violations)
    return {"theorem1_suite_best_s": seconds, "checks": checks, "violations": violations,
            "tree_memos": memos}


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
    seconds, ps = {}, {}
    for name, (graphs, least) in pathcover_groups(quick).items():
        seconds[name], ps[name] = best_of(
            lambda: [path_cover_number(g).p for g in graphs], lambda: None)
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
    seconds, orders = {}, {}
    for name, graphs in naive_groups(quick).items():
        seconds[name], orders[name] = best_of(
            lambda: [aut_order_naive(g) for g in graphs], lambda: None)
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
    seconds, params = {}, {}
    for name, graphs in starfree_groups(quick).items():
        seconds[name], params[name] = best_of(
            lambda: [star_free_parameter(g) for g in graphs], lambda: None)
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
    reports = [compose_report(g, opts) for g in graphs]
    copies = []

    def new_copies():
        copies[:] = [Graph(g.n, g.rows) for g in graphs]

    seconds = {}
    seconds["parse_graph6"], parsed = best_of(
        lambda: [parse_graph6(s) for s in lines], lambda: None)
    seconds["write_graph6"], written = best_of(
        lambda: [write_graph6(g) for g in copies], new_copies)
    seconds["report_json"], texts = best_of(
        lambda: [json.dumps(report_to_dict(r)) for r in reports], lambda: None)
    def cold():
        for cache in (aut_order, bounds._power_value, bounds._log2):
            cache.cache_clear()

    seconds["report_line"], line_texts = best_of(
        lambda: [json.dumps(report_to_dict(compose_report(parse_graph6(s), opts)))
                 for s in lines], cold)
    if parsed != graphs or written != lines:
        raise SystemExit("graph6 lines do not round-trip")
    if line_texts != texts:
        raise SystemExit("a report line differs from its report's JSON")
    return {"serialise_best_s": seconds,
            "graphs": len(graphs),
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
                    help="a smoke run: K8 and Q3, the n <= 5 corpus (and 5 G(8, m), or "
                         "the two 24-vertex greedy hosts), "
                         "theorem1 at n <= 4, or path covers of the n <= 5 corpus, "
                         "analyze-hard seed 0, G(14, 15..18) and K3,5, or the naive "
                         "oracle on the n <= 5 corpus and its tree classes, "
                         "5 G(7, 1/2) and K6, or star-free parameters of the n <= 5 "
                         "corpus, one G(n, m) per n = 9..11 and m, K1,19, K2,18 and "
                         "K20, or the codecs and JSON reports of all graphs with "
                         "n <= 5, 5 G(8, m) per m, K8 and Q3")
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
        "repeats": REPEATS,
        **result,
    }
    path = Path(args.outdir) / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
