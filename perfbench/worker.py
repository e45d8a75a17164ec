"""One benchmark pass in a fresh interpreter, so every cache starts cold.

Usage (run.py starts it): worker.py WORKLOAD SEED TRACE [SPANS_PATH] with
the workload's inputs as JSON on stdin; or worker.py --setup to time
interpreter start plus ``import autbounds`` and nothing else.  Prints one
JSON line.  Every pass scales its timings, spans included, to one host
speed (speed.py).
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))
import autbounds  # noqa: E402  (the import is what set-up time measures)

READY = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402


def _percentile(values: list[float], q: float) -> float:
    """Percentile q of values, linear between the closest ranks, so that it
    moves smoothly when two requests of similar cost swap places."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def main(argv: list[str]) -> dict:
    if argv == ["--setup"]:
        return {"ready": READY, "autbounds": autbounds.__file__}
    workload, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    spans_path = argv[3] if len(argv) > 3 else None
    inputs = json.load(sys.stdin)

    import workloads
    from autbounds.automorphisms import aut_order
    from autbounds.corpus import all_graphs
    from speed import Tracker
    from tracing import Tracer

    tracer = Tracer() if trace else None
    tracker = Tracker()
    if tracer:
        tracer.install()
    try:
        with tracker:
            res = workloads.WORKLOADS[workload](seed, inputs, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    cache = aut_order.cache_info()
    times = [tracker.scaled(t0, t1) for t0, t1 in res.intervals]
    run_s = sum(scaled for _, scaled in times)
    latencies_ms = [scaled * 1e3 for _, scaled in times]

    out = {
        "ready": READY,
        "autbounds": autbounds.__file__,
        "run_s": run_s,
        "run_s_raw": sum(raw for raw, _ in times),
        "probe_ms": statistics.median(e - s for s, e in zip(tracker.starts, tracker.ends)) * 1e3,
        "graphs": res.graphs,
        "reports": len(latencies_ms),
        "report_p50_ms": _percentile(latencies_ms, 50),
        "report_p99_ms": _percentile(latencies_ms, 99),
        "attempted": res.attempted,
        "failed": res.failed,
        "failures": res.failures[:10],
        "digest": res.digest,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        layer = tracer.summary(run_s, lambda t0, t1: tracker.scaled(t0, t1)[1])
        for key, count in res.layer_failed.items():
            layer[key] = layer.get(key, 0) + count
        hits = cache.hits - res.check_cache_hits
        lookups = hits + cache.misses - res.check_cache_misses
        layer["automorphisms.aut_order.cache_hit_ratio"] = hits / lookups if lookups else 0.0
        if layer.get("corpus.connected_graphs.calls"):
            # candidates tested and classes kept by all_graphs(2..7)
            layer["corpus.candidates"] = sum(len(all_graphs(n - 1)) << (n - 1)
                                             for n in range(2, 8))
            layer["corpus.kept_ratio"] = (sum(len(all_graphs(n)) for n in range(2, 8))
                                          / layer["corpus.candidates"])
        out["layers"] = layer
        if spans_path:
            tracer.dump(spans_path)
    return out


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
