"""Time aut_order on large symmetric graph families and record the result.

Each family is timed best-of-3 with aut_order's cache cleared before every
call, and the known group order is checked.  The record is written to
BENCH_<label>.json with the Python version, os.cpu_count(), the git sha of
the checkout that holds the imported autbounds, and the seconds per family.

Usage:
    python scripts/bench_aut.py --label change [--outdir .] [--quick]

To time another checkout, put its src/ first on PYTHONPATH.
"""

import argparse
import json
import os
import platform
import subprocess
import time
from math import factorial
from pathlib import Path

import autbounds
from autbounds.automorphisms import aut_order
from autbounds.graphs import Graph, complete_bipartite_graph, complete_graph, cycle_graph

REPEATS = 3


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


def best_seconds(g, order):
    best = float("inf")
    for _ in range(REPEATS):
        aut_order.cache_clear()
        t0 = time.perf_counter()
        res = aut_order(g)
        best = min(best, time.perf_counter() - t0)
        if res.order != order:
            raise SystemExit(f"wrong order {res.order}, expected {order}")
    return best


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--label", required=True)
    ap.add_argument("--outdir", default=".")
    ap.add_argument("--quick", action="store_true", help="only K8 and Q3 (a smoke run)")
    args = ap.parse_args()

    seconds = {}
    for name, g, order in families(args.quick):
        seconds[name] = round(best_seconds(g, order), 4)
        print(f"{name:8s} {seconds[name]:9.4f} s")
    sha, dirty = git_sha()
    record = {
        "label": args.label,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_sha": sha,
        "git_dirty": dirty,
        "repeats": REPEATS,
        "aut_order_best_s": seconds,
    }
    path = Path(args.outdir) / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
