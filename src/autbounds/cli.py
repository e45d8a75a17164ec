"""Command-line front end: analyze single graphs, batch-process graph6 files,
and run the verification suites.

Exit codes: 0 ok, 1 verification violation, 2 input error, 3 size refusal,
4 internal error (any other exception raised inside a command, i.e. a bug),
141 the reader closed stdout (128 + SIGPIPE, as a shell reports it; nothing
is printed).
Commands raise on failure and return only 0 or 1; ``main`` alone turns an
exception into an exit code and one stderr line.
Exact values serialise as decimal strings ("24", "64/27") so downstream
consumers never overflow; log2 values are plain floats that re-parse
bit-exactly.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from fractions import Fraction

from .bounds import (
    BOUND_IDS,
    COROLLARY_MODES,
    LOG2_COMPARISON_SLACK,
    REGISTRY,
    BoundReport,
    ReportOptions,
    compose_report,
)
from .corpus import GENERATION_LIMIT
from .graphs import GraphParseError, SizeLimitError, parse_edgelist, parse_graph6
from .verify import SUITES, DEFAULT_SEED, run_suites

JSON_SCHEMA = "autbounds-report/1"
DEFAULT_ORACLE_LIMIT = 24

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_SIZE = 3
EXIT_INTERNAL = 4
EXIT_PIPE = 141

# Short aliases accepted by --bounds alongside the full identifiers.
BOUND_ALIASES = {alias: bid for bid, (alias, _) in REGISTRY.items() if alias}


def _id_list(item: str, empty: str, known: tuple[str, ...], aliases: dict[str, str]):
    """argparse type for a comma-separated list of ``known`` ids (or aliases
    of them); blank tokens are skipped, only the first occurrence of each
    resolved id is kept, and an empty list is an error."""
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
            if resolved not in out:
                out.append(resolved)
        if not out:
            raise argparse.ArgumentTypeError(empty)
        return tuple(out)
    return parse


def _int_at_least(least: int):
    """argparse type for an integer flag that must be at least ``least``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value
    parse.__name__ = "int"  # argparse words a non-integer as "invalid int value"
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
        p.add_argument("--corollary-mode", choices=(*COROLLARY_MODES, "both"),
                       default="corrected")
        p.add_argument("--oracle-limit", type=_int_at_least(1), default=DEFAULT_ORACLE_LIMIT,
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
    v.add_argument("--nmax", type=_int_at_least(1), default=6,
                   help=f"exhaustive corpus limit (at most {GENERATION_LIMIT})")
    v.add_argument("--suites", type=_parse_suites, default=tuple(sorted(SUITES)),
                   help="comma-separated subset of: " + ", ".join(sorted(SUITES)))
    v.add_argument("--random-trials", type=_int_at_least(0), default=50,
                   help="random graphs per size for the oracle suite")
    v.add_argument("--seed", type=int, default=DEFAULT_SEED)
    v.add_argument("--corpus", default=None,
                   help="optional graph6 file replacing the generated corpus")
    return parser


def _report_options(args) -> ReportOptions:
    return ReportOptions(
        bounds=args.bounds,
        exact_aut=args.exact_aut,
        exhaustive_start=args.exhaustive_start,
        class5_asserted=args.assert_class5,
        corollary_mode=args.corollary_mode,
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
    return None if fr is None else str(fr)


def report_to_dict(report: BoundReport) -> dict:
    # A context holds Fractions only at the top level; json writes tuples as
    # arrays.  type() is Fraction, not isinstance: Fraction's metaclass is
    # ABCMeta, whose instance check costs a Python call per value.
    gaps = report.gaps
    return {
        "schema": JSON_SCHEMA,
        "graph": {"graph6": report.graph_id, "n": report.n, "e": report.e,
                  "connected": report.connected},
        "aut": str(report.aut_exact) if report.aut_exact is not None else None,
        "orbits": [list(o) for o in report.orbits] if report.orbits is not None else None,
        "bounds": [{"id": bv.bound_id,
                    "applicable": bv.applicable,
                    "reason": bv.reason,
                    "exact": _exact_str(bv.exact_value),
                    "log2": bv.log2_value,
                    "gap_log2": gaps.get(bv.bound_id),
                    "context": {k: str(v) if type(v) is Fraction else v
                                for k, v in bv.context.items()}}
                   for bv in report.bounds],
        "notes": report.notes,
    }


CSV_COLUMNS = ("graph6", "n", "e", "aut", "bound_id", "applicable", "reason",
               "exact", "log2", "gap_log2")


def _csv_rows(report: BoundReport):
    for bv in report.bounds:
        gap = report.gaps.get(bv.bound_id)
        yield [
            report.graph_id, report.n, report.e,
            "" if report.aut_exact is None else str(report.aut_exact),
            bv.bound_id, int(bv.applicable), bv.reason or "",
            _exact_str(bv.exact_value) or "",
            "" if bv.log2_value is None else repr(bv.log2_value),
            "" if gap is None else repr(gap),
        ]


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
        tight = "tight" if gap is not None and abs(gap) < LOG2_COMPARISON_SLACK else ""
        lines.append(f"{bv.bound_id:<22} {value:>16} {bv.log2_value:>12.4f} {gap_s:>10}  {tight}")
    return "\n".join(lines) + "\n"


def _write(report: BoundReport, output: str, header: bool) -> None:
    """Write one report to stdout as a table, one JSON line, or CSV rows led
    by the column header when ``header``."""
    if output == "table":
        sys.stdout.write(render_table(report))
    elif output == "json":
        sys.stdout.write(json.dumps(report_to_dict(report)) + "\n")
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        if header:
            writer.writerow(CSV_COLUMNS)
        writer.writerows(_csv_rows(report))


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

def _check_oracle_limit(args, g) -> None:
    if args.exact_aut and g.n > args.oracle_limit:
        raise SizeLimitError(f"refusing the exact oracle at n={g.n} > limit {args.oracle_limit}; "
                             "pass --no-exact-aut or raise --oracle-limit")


def cmd_analyze(args) -> int:
    text = _read_input(args.input)
    if args.format == "graph6":
        line = next((ln for ln in text.splitlines() if ln.strip()), "")
        g = parse_graph6(line.strip())
    else:
        g = parse_edgelist(text)
    _check_oracle_limit(args, g)
    _write(compose_report(g, _report_options(args)), args.output, header=True)
    return EXIT_OK


def cmd_batch(args) -> int:
    text = _read_input(args.input)
    opts = _report_options(args)
    header = True
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            g = parse_graph6(line)
            _check_oracle_limit(args, g)
            report = compose_report(g, opts)
        except (GraphParseError, SizeLimitError) as exc:
            print(f"line {lineno}: skipped: {exc}", file=sys.stderr)
            continue
        _write(report, args.output, header)
        header = False
    return EXIT_OK


def cmd_verify(args) -> int:
    external = None
    if args.corpus is not None:
        text = _read_input(args.corpus)
        external = []
        for lineno, line in enumerate(map(str.strip, text.splitlines()), start=1):
            try:
                external += [parse_graph6(line)] if line else []
            except (GraphParseError, SizeLimitError) as exc:
                raise type(exc)(f"{args.corpus} line {lineno}: {exc}") from exc
        if not external:
            raise GraphParseError(f"{args.corpus}: the corpus file holds no graphs")
    results = run_suites(args.suites, nmax=args.nmax, trials=args.random_trials,
                         seed=args.seed, external=external)
    for res in results:
        print(res.summary())
        if res.corpus_counts is not None:
            print(f"  corpus: {res.corpus_counts}")
        for v in res.violations[:10]:
            print(f"  counterexample: {v}")
        if len(res.violations) > 10:
            print(f"  ... and {len(res.violations) - 10} more")
    return EXIT_OK if all(res.passed for res in results) else EXIT_VIOLATION


COMMANDS = {"analyze": cmd_analyze, "batch": cmd_batch, "verify": cmd_verify}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except SizeLimitError as exc:
        print(f"size refusal: {exc}", file=sys.stderr)
        return EXIT_SIZE
    except BrokenPipeError:
        # The reader went away; the input was fine.  Point fd 1 at devnull so
        # the flush at exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        except (OSError, ValueError):  # a stdout with no file descriptor
            pass
        os.close(devnull)
        return EXIT_PIPE
    except (GraphParseError, OSError, UnicodeDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        # A bug, not a bad input: keep the traceback and exit 4, never the
        # interpreter's 1, which reads as a verification violation.
        import traceback  # imported here: only a fault pays its start-up cost

        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
