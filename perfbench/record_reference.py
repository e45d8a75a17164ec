"""Record each workload's output digest for the default seeds.

    python3 perfbench/record_reference.py

Runs every workload once per seed 0..31 in this process,
refuses to record if any check fails, and writes perfbench/reference.json.
run.py then fails every pass whose digest differs from the one recorded for
its seed.  Record only from a commit whose outputs are known to be right:
the digests pin outputs, which optimisations must leave byte-identical.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import inputs  # noqa: E402
import workloads  # noqa: E402

SEEDS = range(32)


def main() -> int:
    reference: dict[str, dict[str, str]] = {}
    for name, run_pass in workloads.WORKLOADS.items():
        reference[name] = {}
        for seed in SEEDS:
            res = run_pass(seed, inputs.build(name, seed), None)
            if res.failed:
                print(f"{name} seed {seed}: not recorded: {res.failures[:5]}", file=sys.stderr)
                return 1
            reference[name][str(seed)] = res.digest
            print(f"{name} seed {seed}: {res.digest}", flush=True)
    with open(os.path.join(HERE, "reference.json"), "w", encoding="ascii") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
