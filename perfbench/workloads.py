"""The three workloads.  A pass times only calls into the public
``autbounds`` API and checks each output outside the clock as soon as it is
made, so, as in the CLI, no output outlives its check.

Calls go through ``autbounds.cli``'s own bindings, the ones the CLI
subcommands use, so a traced pass sees the same call sites as the CLI.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass, field

from autbounds import aut_order, cli, corpus, parse_graph6, write_graph6
from autbounds.graphs import bits
from inputs import ALL_COUNTS

# Suite name as verify prints it -> the verify function that runs it.
VERIFY_SUITES = {"soundness": "soundness_sweep", "greedy-construction": "greedy_sweep",
                 "exactness": "exactness_suite", "oracle-cross-validation": "oracle_suite",
                 "theorem1-embeddings": "theorem1_suite"}
# Connected graphs on n vertices (OEIS A001349).
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
# batch-mixed mirrors `autbounds batch --output json --corollary-mode both`.
BATCH_ARGV = ("batch", "-", "--output", "json", "--corollary-mode", "both")
BATCH_OPTIONS = cli.ReportOptions(corollary_mode="both")


@dataclass
class PassResult:
    # One (start, end) per report the user waits for: each batch line, each
    # analyzed graph, or the single verify verdict.  run_s is their sum.
    intervals: list[tuple[float, float]] = field(default_factory=list)
    graphs: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    digest: str = ""
    # Per-layer failures found by the check, keyed "<module>.<function>.failed";
    # calls that raised are counted by the tracer instead.
    layer_failed: dict[str, int] = field(default_factory=dict)
    # aut_order cache lookups made by the checks, not by the program.
    check_cache_hits: int = 0
    check_cache_misses: int = 0

    def fail(self, problems: list[str], layer: str | None = None) -> None:
        """Record one failed operation, if it has problems."""
        if problems:
            self.failed += 1
            self.failures += problems
            if layer:
                self.layer_failed[layer] = self.layer_failed.get(layer, 0) + 1


@contextlib.contextmanager
def _unmeasured(res: PassResult, tracer):
    """Run check code: drop its spans and its aut_order cache lookups."""
    mark = len(tracer.spans) if tracer else 0
    before = aut_order.cache_info()
    try:
        yield
    finally:
        after = aut_order.cache_info()
        res.check_cache_hits += after.hits - before.hits
        res.check_cache_misses += after.misses - before.misses
        if tracer:
            tracer.discard(mark)


def _report_problems(rep, expected_aut: int | None = None) -> list[str]:
    """Soundness, orbit sizes dividing aut, and the known order if any."""
    bad = [f"{rep.graph_id}: {bid} below aut" for bid in rep.soundness_violations()]
    bad += [f"{rep.graph_id}: orbit size {len(o)} does not divide {rep.aut_exact}"
            for o in rep.orbits if rep.aut_exact % len(o)]
    if expected_aut is not None and rep.aut_exact != expected_aut:
        bad.append(f"{rep.graph_id}: aut {rep.aut_exact} != expected {expected_aut}")
    return bad


# ---------------------------------------------------------------------------
# verify-n7
# ---------------------------------------------------------------------------

def verify_pass(seed: int, _inputs, tracer) -> PassResult:
    """What `autbounds verify --nmax 7 --random-trials 50 --seed S` runs."""
    res = PassResult(graphs=sum(CONNECTED_COUNTS.values()))
    buf = io.StringIO()
    argv = ["verify", "--nmax", "7", "--random-trials", "50", "--seed", str(seed)]
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except Exception as exc:  # a crash fails the verdict, not the benchmark
        code = f"raised {exc!r}"
    res.intervals.append((t0, time.perf_counter()))
    with _unmeasured(res, tracer):
        _verify_check(res, code, buf.getvalue())
    return res


def _verify_check(res: PassResult, code, out: str) -> None:
    summaries = [ln for ln in out.splitlines() if ln.startswith("[")]
    for name, fn in VERIFY_SUITES.items():
        res.attempted += 1
        line = next((ln for ln in summaries if ln.startswith(f"[{name}] ")), None)
        if line is None or " PASS: " not in line or not line.endswith(" 0 violations"):
            res.fail([f"suite {name}: {line!r}"], f"verify.{fn}.failed")
    res.attempted += 1  # exit code, corpus counts and the corpus itself
    counts = {n: len(corpus.connected_graphs(n)) for n in CONNECTED_COUNTS}
    all_counts = {n: len(corpus.all_graphs(n)) for n in ALL_COUNTS}
    if (code != 0 or counts != CONNECTED_COUNTS or all_counts != ALL_COUNTS
            or f"  corpus: {CONNECTED_COUNTS}" not in out):
        res.fail([f"exit {code}, corpus {counts}, all graphs {all_counts}"])
    h = hashlib.sha256(out.encode())
    for n in CONNECTED_COUNTS:
        for g in corpus.connected_graphs(n):
            h.update(write_graph6(g).encode() + b"\n")
    res.digest = h.hexdigest()


# ---------------------------------------------------------------------------
# batch-mixed
# ---------------------------------------------------------------------------

def _serialise(rep) -> str:
    """What `autbounds batch --output json` writes for one report."""
    return json.dumps(cli.report_to_dict(rep)) + "\n"


def batch_pass(_seed: int, lines: list[str], tracer) -> PassResult:
    """The `autbounds batch` loop, line by line, one latency per line."""
    res = PassResult(graphs=len(lines))
    serialise = tracer.traced("cli.serialise", _serialise) if tracer else _serialise
    h = hashlib.sha256()
    clock = time.perf_counter
    for line in lines:
        t0 = clock()
        try:
            rep = cli.compose_report(cli.parse_graph6(line), BATCH_OPTIONS)
            text = serialise(rep)
        except Exception as exc:  # counted as a failed operation
            rep, text = None, f"{line}: raised {exc!r}"
        res.intervals.append((t0, clock()))
        with _unmeasured(res, tracer):
            res.attempted += 1
            if rep is None:
                res.fail([text])
            else:
                res.fail(_report_problems(rep), "bounds.compose_report.failed")
                h.update(text.encode())
    res.digest = h.hexdigest()
    return res


# ---------------------------------------------------------------------------
# analyze-hard
# ---------------------------------------------------------------------------

def analyze_pass(_seed: int, items, tracer) -> PassResult:
    """compose_report with default options, one large graph at a time."""
    res = PassResult(graphs=len(items))
    graphs = [(label, parse_graph6(g6), aut) for label, g6, aut in items]
    h = hashlib.sha256()
    clock = time.perf_counter
    for label, g, expected in graphs:
        t0 = clock()
        try:
            rep = cli.compose_report(g)
        except Exception as exc:  # counted as a failed operation
            rep = f"raised {exc!r}"
        res.intervals.append((t0, clock()))
        with _unmeasured(res, tracer):
            res.attempted += 1
            if isinstance(rep, str):
                res.fail([f"{label}: {rep}"])
                continue
            bad = _report_problems(rep, expected)
            # every generator the search returned must preserve adjacency
            for perm in aut_order(g).generators:
                if any(not (g.rows[perm[u]] >> perm[w]) & 1
                       for u in range(g.n) for w in bits(g.rows[u])):
                    bad.append(f"generator {perm} is not an automorphism")
            res.fail([f"{label}: {b}" for b in bad], "bounds.compose_report.failed")
            h.update((json.dumps(cli.report_to_dict(rep)) + "\n").encode())
    res.digest = h.hexdigest()
    return res


WORKLOADS = {
    "verify-n7": verify_pass,
    "batch-mixed": batch_pass,
    "analyze-hard": analyze_pass,
}
