"""Command-line front end: analyze single graphs, batch-process graph6 files,
and run the verification suites.

Exit codes: 0 ok, 1 verification violation, 2 input error, 3 size refusal,
4 internal error (a ValueError that is not about the input, i.e. a bug).
Exact values serialise as decimal strings ("24", "64/27") so downstream
consumers never overflow; log2 values are plain floats that re-parse
bit-exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from .bounds import (
    BOUND_IDS,
    REGISTRY,
    BoundReport,
    BoundValue,
    ReportOptions,
    compose_report,
)
from .corpus import GENERATION_LIMIT
from .graphs import GraphParseError, SizeLimitError, parse_edgelist, parse_graph6, write_graph6
from .trees import ENUM_VERTEX_LIMIT
from .verify import SUITES, DEFAULT_SEED, run_suites

JSON_SCHEMA = "autbounds-report/1"
DEFAULT_ORACLE_LIMIT = 24

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_SIZE = 3
EXIT_INTERNAL = 4

# Short aliases accepted by --bounds alongside the full identifiers.
BOUND_ALIASES = {alias: bid for bid, (alias, _) in REGISTRY.items() if alias}


@dataclass(frozen=True)
class AnalyzeOptions:
    """Fully resolved options for one analyze/batch invocation."""

    format: str = "graph6"
    output: str = "table"
    oracle_limit: int = DEFAULT_ORACLE_LIMIT
    report: ReportOptions = ReportOptions()


def _id_list(item: str, empty: str, known: tuple[str, ...], aliases: dict[str, str]):
    """argparse type for a comma-separated list of ``known`` ids (or aliases
    of them); blank tokens are skipped, and an empty list is an error."""
    def parse(text: str) -> tuple[str, ...]:
        out = []
        for token in text.split(","):
            token = token.strip()
            if not token:
                continue
            resolved = aliases.get(token, token)
            if resolved not in known:
                raise argparse.ArgumentTypeError(
                    f"unknown {item} {token!r}; known: {', '.join(known)}")
            out.append(resolved)
        if not out:
            raise argparse.ArgumentTypeError(empty)
        return tuple(out)
    return parse


_parse_bounds = _id_list("bound id", "empty bound list", BOUND_IDS, BOUND_ALIASES)
_parse_suites = _id_list("suite", "empty suite list", tuple(sorted(SUITES)), {})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="autbounds",
        description="Exact automorphism group orders and a catalogue of upper bounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_report_flags(p):
        p.add_argument("--bounds", type=_parse_bounds, default=None, metavar="IDS",
                       help="comma-separated bound ids or aliases: "
                            + ", ".join(BOUND_ALIASES))
        p.add_argument("--exact-aut", action=argparse.BooleanOptionalAction, default=True,
                       help="compute the exact automorphism order (default on)")
        p.add_argument("--exhaustive-start", action="store_true",
                       help="minimise the greedy-tree bounds over all start vertices")
        p.add_argument("--assert-class5", action="store_true",
                       help="assert the graph is a square of a graph or 3-connected planar")
        p.add_argument("--corollary-mode", choices=("corrected", "verbatim", "both"),
                       default="corrected")
        p.add_argument("--oracle-limit", type=int, default=DEFAULT_ORACLE_LIMIT,
                       help="refuse the exact oracle above this many vertices "
                            f"(default {DEFAULT_ORACLE_LIMIT})")

    a = sub.add_parser("analyze", help="evaluate every bound on a single graph")
    a.add_argument("input", nargs="?", default="-",
                   help="file containing the graph, or - for stdin (default)")
    a.add_argument("--format", choices=("graph6", "edgelist"), default="graph6")
    a.add_argument("--output", choices=("table", "csv", "json"), default="table")
    add_report_flags(a)

    b = sub.add_parser("batch", help="process a file of graph6 lines")
    b.add_argument("input", help="file with one graph6 string per line, or - for stdin")
    b.add_argument("--output", choices=("csv", "json"), default="csv")
    add_report_flags(b)

    v = sub.add_parser("verify", help="run the verification suites")
    v.add_argument("--nmax", type=int, default=6,
                   help=f"exhaustive corpus limit (at most {GENERATION_LIMIT})")
    v.add_argument("--suites", type=_parse_suites, default=tuple(sorted(SUITES)),
                   help="comma-separated subset of: " + ", ".join(sorted(SUITES)))
    v.add_argument("--random-trials", type=int, default=50,
                   help="random graphs per size for the oracle suite")
    v.add_argument("--seed", type=int, default=DEFAULT_SEED)
    v.add_argument("--corpus", default=None,
                   help="optional graph6 file replacing the generated corpus")
    return parser


def _analyze_options(args) -> AnalyzeOptions:
    return AnalyzeOptions(
        format=getattr(args, "format", "graph6"),
        output=args.output,
        oracle_limit=args.oracle_limit,
        report=ReportOptions(
            bounds=args.bounds,
            exact_aut=args.exact_aut,
            exhaustive_start=args.exhaustive_start,
            class5_asserted=args.assert_class5,
            corollary_mode=args.corollary_mode,
        ),
    )


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# Serialisation.
# ---------------------------------------------------------------------------

def _exact_str(fr: Fraction | None) -> str | None:
    if fr is None:
        return None
    if fr.denominator == 1:
        return str(fr.numerator)
    return f"{fr.numerator}/{fr.denominator}"


def _context_json(ctx: dict):
    def conv(v):
        if isinstance(v, Fraction):
            return _exact_str(v)
        if isinstance(v, frozenset):
            return [conv(x) for x in sorted(v)]
        if isinstance(v, (tuple, list)):
            return [conv(x) for x in v]
        return v

    return {k: conv(v) for k, v in ctx.items()}


def bound_to_dict(bv: BoundValue, gap: float | None) -> dict:
    return {
        "id": bv.bound_id,
        "applicable": bv.applicable,
        "reason": bv.reason,
        "exact": _exact_str(bv.exact_value),
        "log2": bv.log2_value,
        "gap_log2": gap,
        "context": _context_json(bv.context),
    }


def report_to_dict(report: BoundReport) -> dict:
    return {
        "schema": JSON_SCHEMA,
        "graph": {"graph6": report.graph_id, "n": report.n, "e": report.e,
                  "connected": report.connected},
        "aut": str(report.aut_exact) if report.aut_exact is not None else None,
        "orbits": [list(o) for o in report.orbits] if report.orbits is not None else None,
        "bounds": [bound_to_dict(bv, report.gaps.get(bv.bound_id)) for bv in report.bounds],
        "notes": report.notes,
    }


CSV_COLUMNS = ("graph6", "n", "e", "aut", "bound_id", "applicable", "reason",
               "exact", "log2", "gap_log2")


def _csv_rows(report: BoundReport):
    import csv
    import io
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for bv in report.bounds:
        gap = report.gaps.get(bv.bound_id)
        writer.writerow([
            report.graph_id, report.n, report.e,
            "" if report.aut_exact is None else str(report.aut_exact),
            bv.bound_id, int(bv.applicable), bv.reason or "",
            _exact_str(bv.exact_value) or "",
            "" if bv.log2_value is None else repr(bv.log2_value),
            "" if gap is None else repr(gap),
        ])
    return buf.getvalue()


def render_table(report: BoundReport) -> str:
    lines = [f"graph {report.graph_id}  n={report.n}  e={report.e}  "
             f"connected={'yes' if report.connected else 'no'}"]
    if report.aut_exact is not None:
        lines.append(f"aut = {report.aut_exact}")
    for note in report.notes:
        lines.append(f"note: {note}")
    header = f"{'bound':<22} {'value':>16} {'log2':>12} {'gap':>10}  comment"
    lines.append(header)
    lines.append("-" * len(header))
    for bv in report.bounds:
        if not bv.applicable:
            lines.append(f"{bv.bound_id:<22} {'-':>16} {'-':>12} {'-':>10}  {bv.reason}")
            continue
        value = _exact_str(bv.exact_value) or f"~2^{bv.log2_value:.4f}"
        if len(value) > 16:
            value = f"~2^{bv.log2_value:.4f}"
        gap = report.gaps.get(bv.bound_id)
        gap_s = f"{gap:.4f}" if gap is not None else "-"
        tight = "tight" if gap is not None and abs(gap) < 1e-9 else ""
        lines.append(f"{bv.bound_id:<22} {value:>16} {bv.log2_value:>12.4f} {gap_s:>10}  {tight}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

def cmd_analyze(input_path: str, opts: AnalyzeOptions) -> int:
    text = _read_input(input_path)
    if opts.format == "graph6":
        line = next((ln for ln in text.splitlines() if ln.strip()), "")
        g = parse_graph6(line.strip())
    else:
        g = parse_edgelist(text)
    if opts.report.exact_aut and g.n > opts.oracle_limit:
        print(f"refusing the exact oracle at n={g.n} > limit {opts.oracle_limit}; "
              "pass --no-exact-aut or raise --oracle-limit", file=sys.stderr)
        return EXIT_SIZE
    report = compose_report(g, opts.report)
    if opts.output == "table":
        sys.stdout.write(render_table(report))
    elif opts.output == "csv":
        sys.stdout.write(",".join(CSV_COLUMNS) + "\n")
        sys.stdout.write(_csv_rows(report))
    else:
        sys.stdout.write(json.dumps(report_to_dict(report)) + "\n")
    return EXIT_OK


def cmd_batch(input_path: str, opts: AnalyzeOptions) -> int:
    try:
        text = _read_input(input_path)
    except OSError as exc:
        print(f"cannot read {input_path}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    first = True
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            g = parse_graph6(line)
            if opts.report.exact_aut and g.n > opts.oracle_limit:
                raise SizeLimitError(
                    f"n={g.n} above oracle limit {opts.oracle_limit}")
            report = compose_report(g, opts.report)
        except (GraphParseError, SizeLimitError) as exc:
            print(f"line {lineno}: skipped: {exc}", file=sys.stderr)
            continue
        if opts.output == "json":
            sys.stdout.write(json.dumps(report_to_dict(report)) + "\n")
        else:
            if first:
                sys.stdout.write(",".join(CSV_COLUMNS) + "\n")
                first = False
            sys.stdout.write(_csv_rows(report))
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.nmax > GENERATION_LIMIT:
        print(f"exhaustive suites are capped at nmax <= {GENERATION_LIMIT}, got {args.nmax}",
              file=sys.stderr)
        return EXIT_SIZE
    if args.nmax < 1:
        print(f"--nmax must be at least 1, got {args.nmax}", file=sys.stderr)
        return EXIT_INPUT
    if args.random_trials < 0:
        print(f"--random-trials must be at least 0, got {args.random_trials}", file=sys.stderr)
        return EXIT_INPUT
    external = None
    if args.corpus is not None:
        try:
            text = _read_input(args.corpus)
        except OSError as exc:
            print(f"cannot read {args.corpus}: {exc}", file=sys.stderr)
            return EXIT_INPUT
        external = [parse_graph6(ln.strip()) for ln in text.splitlines() if ln.strip()]
        if not external:
            print(f"{args.corpus}: the corpus file holds no graphs", file=sys.stderr)
            return EXIT_INPUT
        big = next((g for g in external if g.n > ENUM_VERTEX_LIMIT), None)
        if "theorem1" in args.suites and big is not None:
            print(f"theorem1 enumerates spanning trees only for n <= {ENUM_VERTEX_LIMIT}; "
                  f"{write_graph6(big)} has n={big.n} (drop theorem1 from --suites)",
                  file=sys.stderr)
            return EXIT_SIZE
    results = run_suites(args.suites, nmax=args.nmax, trials=args.random_trials,
                         seed=args.seed, external=external)
    failed = False
    for res in results:
        print(res.summary())
        if "corpus_counts" in res.info:
            print(f"  corpus: {res.info['corpus_counts']}")
        for v in res.violations[:10]:
            print(f"  counterexample: {v}")
            failed = True
        if len(res.violations) > 10:
            print(f"  ... and {len(res.violations) - 10} more")
    return EXIT_VIOLATION if failed else EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "analyze":
            return cmd_analyze(args.input, _analyze_options(args))
        if args.command == "batch":
            return cmd_batch(args.input, _analyze_options(args))
        return cmd_verify(args)
    except SizeLimitError as exc:
        print(f"size refusal: {exc}", file=sys.stderr)
        return EXIT_SIZE
    except (GraphParseError, OSError, UnicodeDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
