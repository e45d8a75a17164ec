"""autbounds benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed, then runs passes of it, each in
a fresh single-threaded interpreter (worker.py), one after another until S
seconds have gone by.  Every pass checks its outputs.  With --trace 0 the
last stdout line holds the end-to-end metrics of BENCHMARK.json, each the
median over passes and scaled to one host speed (speed.py); with --trace 1,
traced and untraced passes alternate and it holds the per-layer metrics.  The line before the result records the
environment.
Exits non-zero, printing no result, when the program or a pass is missing or
broken.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
WORKER = os.path.join(HERE, "worker.py")
# Set-up samples (interpreter start plus import) taken before each pass, so
# that they are spread over the run.
SETUP_SAMPLES_PER_PASS = 5
# A run must end within 180 s even if the program has become very slow.
DEADLINE_S = 170


class BenchError(Exception):
    pass


def _child(args: list[str], stdin: str, deadline: float) -> tuple[float, dict]:
    """Run worker.py once; return its spawn time and its JSON line."""
    t_spawn = time.monotonic()
    proc = subprocess.Popen([sys.executable, WORKER, *args], cwd=ROOT, text=True,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(stdin, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {args} ran past the {DEADLINE_S} s deadline")
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}:\n{err}")
    try:
        res = json.loads(out.splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError(f"worker {args} printed no result:\n{err}") from None
    if os.path.dirname(os.path.dirname(res["autbounds"])) != SRC:
        raise BenchError(f"worker imported autbounds from {res['autbounds']}, not {SRC}")
    return t_spawn, res


def _cli_batch_digest(lines: list[str], argv, deadline: float) -> str:
    """SHA-256 of `autbounds batch ...` stdout, run as the CLI on the lines."""
    env = dict(os.environ, PYTHONPATH=SRC)
    try:
        proc = subprocess.run([sys.executable, "-m", "autbounds.cli", *argv], cwd=ROOT,
                              input="\n".join(lines) + "\n", capture_output=True,
                              text=True, env=env,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"autbounds {argv[0]} ran past the {DEADLINE_S} s deadline") from None
    if proc.returncode != 0:
        return f"exit {proc.returncode}: {proc.stderr[-500:]}"
    return hashlib.sha256(proc.stdout.encode()).hexdigest()


def _environment(workload: str, seed: int) -> dict:
    import mpmath

    h = hashlib.sha256()
    pkg = os.path.join(SRC, "autbounds")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        sha = git.stdout.strip() or None
    return {"workload": workload, "seed": seed, "python": platform.python_version(),
            "mpmath": mpmath.__version__, "nproc": len(os.sched_getaffinity(0)),
            "git_sha": sha, "src_sha256": h.hexdigest()}


def _load_spec() -> tuple[dict, dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "layer_map.json"), encoding="utf-8") as fh:
        layer_map = json.load(fh)
    workloads = {w["name"] for w in spec["workloads"]}
    e2e = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    for metric, moves in layer_map.items():
        if metric.startswith("_"):
            continue
        bad = [m for m in moves if m["workload"] not in workloads or m["metric"] not in e2e]
        if metric not in per_layer or bad:
            raise BenchError(f"layer_map.json entry {metric!r} names unknown metrics: {bad}")
    return spec, layer_map


def _median_of(results: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in results)


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    start = time.monotonic()
    deadline = start + DEADLINE_S
    if not os.path.isfile(os.path.join(SRC, "autbounds", "__init__.py")):
        raise BenchError(f"no autbounds package under {SRC}")
    spec, layer_map = _load_spec()
    sys.path.insert(0, SRC)
    import inputs
    import speed
    import workloads

    if workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}")
    items = inputs.build(workload, seed)
    payload = json.dumps(items)
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh).get(workload, {}).get(str(seed))

    setup = []
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{workload}.jsonl")
    plain, traced = [], []
    t_window = time.monotonic()
    while (not plain or time.monotonic() - t_window < seconds
           or (trace and not traced)):
        use_trace = trace and len(plain) > len(traced)
        args = [workload, str(seed), "1" if use_trace else "0"]
        if use_trace and not traced:
            args.append(spans_path)
        for _ in range(SETUP_SAMPLES_PER_PASS):
            before = speed.probe()
            t_spawn, res = _child(["--setup"], "", deadline)
            setup_s = res["ready"] - t_spawn
            setup.append(setup_s * speed.NOMINAL_S / ((before + speed.probe()) / 2))
        _, res = _child(args, payload, deadline)
        (traced if use_trace else plain).append(res)

    passes = plain + traced
    attempted = sum(r["attempted"] for r in passes)
    failures = [f for r in passes for f in r["failures"]]
    failed = sum(r["failed"] for r in passes)
    # One more operation per pass: its output digest must equal the
    # recorded reference for this seed, or, without one, the first pass's.
    expected = reference or passes[0]["digest"]
    for r in passes:
        attempted += 1
        if r["digest"] != expected:
            failed += 1
            failures.append(f"output digest {r['digest']} != {expected}")
    if workload == "batch-mixed":
        attempted += 1
        cli = _cli_batch_digest(items, workloads.BATCH_ARGV, deadline)
        if cli != expected:
            failed += 1
            failures.append(f"autbounds batch CLI output {cli} != benchmark loop {expected}")

    env = _environment(workload, seed)
    env.update(trace=int(trace), seconds=seconds, passes=len(plain),
               traced_passes=len(traced), setup_samples=len(setup),
               reports_per_pass=passes[0]["reports"],
               reference="recorded" if reference else "none for this seed; passes agree",
               run_s_per_pass=[r["run_s"] for r in plain],
               raw_run_s_per_pass=[r["run_s_raw"] for r in plain],
               probe_ms_per_pass=[r["probe_ms"] for r in plain],
               failures=failures[:10], wall_s=time.monotonic() - start)

    if trace:
        names = {m["name"] for m in spec["per_layer"]}
        # A metric the layer map says this workload exercises must have been
        # traced; reading it as 0 would pass a broken trace off as a speed-up.
        missing = sorted(n for n, moves in layer_map.items() if not n.startswith("_")
                         and any(m["workload"] == workload
                                and not m["expect"].startswith("no change") for m in moves)
                         and not any(n in r["layers"] for r in traced))
        if missing:
            raise BenchError(f"traced passes produced no {missing}")
        values = {n: statistics.median(r["layers"].get(n, 0.0) for r in traced)
                  for n in names}
        values["trace.overhead_s"] = _median_of(traced, "run_s") - _median_of(plain, "run_s")
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = {
            "setup_s": statistics.median(setup),
            "run_s": _median_of(plain, "run_s"),
            "graphs_per_s": statistics.median(r["graphs"] / r["run_s"] for r in plain),
            "report_p50_ms": _median_of(plain, "report_p50_ms"),
            "report_p99_ms": _median_of(plain, "report_p99_ms"),
            "peak_rss_mb": _median_of(plain, "peak_rss_mb"),
            "success_ratio": 1 - failed / attempted,
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if set(values) != set(units):
        raise BenchError(f"metrics {sorted(values)} differ from BENCHMARK.json {sorted(units)}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": values[n], "unit": units[n]} for n in sorted(units)}}
    return env, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        env, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
