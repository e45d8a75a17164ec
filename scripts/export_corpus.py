"""Dump the exhaustive connected-graph corpora as graph6 files, one per size.

Usage:
    python scripts/export_corpus.py [--nmax 7] [--outdir corpus]
"""

import argparse
from pathlib import Path

from autbounds.corpus import GENERATION_LIMIT, connected_graphs
from autbounds.graphs import write_graph6


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nmax", type=int, default=7,
                    choices=range(1, GENERATION_LIMIT + 1))
    ap.add_argument("--outdir", type=Path, default=Path("corpus"))
    args = ap.parse_args()

    args.outdir.mkdir(parents=True, exist_ok=True)
    for n in range(1, args.nmax + 1):
        path = args.outdir / f"connected_{n}.g6"
        graphs = connected_graphs(n)
        path.write_text("".join(write_graph6(g) + "\n" for g in graphs))
        print(f"{path}: {len(graphs)} graphs")


if __name__ == "__main__":
    main()
