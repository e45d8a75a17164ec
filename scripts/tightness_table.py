"""Tightness statistics for every bound over the exhaustive corpus.

For each bound id: how often it applies, how often it is tight (gap 0), how
often it is the best applicable bound, and gap quantiles in log2 units.

Usage:
    python scripts/tightness_table.py [--nmax 7] [--corollary-mode both]
"""

import argparse
import statistics
from collections import defaultdict

from autbounds.bounds import COROLLARY_MODES, LOG2_COMPARISON_SLACK, ReportOptions, compose_report
from autbounds.corpus import GENERATION_LIMIT, connected_graphs


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nmax", type=int, default=7,
                    choices=range(1, GENERATION_LIMIT + 1))
    ap.add_argument("--corollary-mode", choices=(*COROLLARY_MODES, "both"),
                    default="both")
    args = ap.parse_args()

    opts = ReportOptions(corollary_mode=args.corollary_mode)
    applicable = defaultdict(int)
    tight = defaultdict(int)
    best = defaultdict(int)
    gaps = defaultdict(list)
    total = 0

    for n in range(1, args.nmax + 1):
        for g in connected_graphs(n):
            rep = compose_report(g, opts)
            total += 1
            if rep.gaps:
                best_gap = min(rep.gaps.values())
                for bid, gap in rep.gaps.items():
                    applicable[bid] += 1
                    gaps[bid].append(gap)
                    if abs(gap) < LOG2_COMPARISON_SLACK:
                        tight[bid] += 1
                    if abs(gap - best_gap) < LOG2_COMPARISON_SLACK:
                        best[bid] += 1
        print(f"n={n} done ({total} graphs so far)")

    ids = sorted(gaps, key=lambda b: statistics.median(gaps[b]))
    print(f"\n{'bound':<22} {'applies':>8} {'tight':>7} {'best':>7} "
          f"{'median gap':>11} {'max gap':>9}")
    print("-" * 70)
    for bid in ids:
        med = statistics.median(gaps[bid])
        print(f"{bid:<22} {applicable[bid]:>8} {tight[bid]:>7} {best[bid]:>7} "
              f"{med:>11.3f} {max(gaps[bid]):>9.3f}")
    print(f"\n{total} connected graphs analysed (gaps in log2 units).")


if __name__ == "__main__":
    main()
