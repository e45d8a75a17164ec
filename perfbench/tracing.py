"""Span tracing from outside the program.

The tracer swaps public ``autbounds`` functions for timing wrappers at every
place they are bound: the defining module, every ``autbounds.*`` module that
imported the name, and the suite table in ``autbounds.verify``.  Private
names are never wrapped.  Spans (name, start, end, parent) are kept in a
list and written out once, when the pass ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import mpmath

# (module, function) pairs wrapped at every binding site; the span name is
# "<module>.<function>".  mpmath.log is wrapped where bounds reaches it and
# named bounds.mpmath_log, because it is the bounds layer's log2.
TRACED = (
    ("graphs", "parse_graph6"),
    ("automorphisms", "aut_order"),
    ("automorphisms", "aut_order_naive"),
    ("corpus", "all_graphs"),
    ("corpus", "connected_graphs"),
    ("trees", "greedy_spanning_tree"),
    ("trees", "best_greedy_tree"),
    ("trees", "all_spanning_trees"),
    ("trees", "spanning_tree_count"),
    ("embeddings", "count_labeled_embeddings"),
    ("embeddings", "count_subgraph_copies"),
    ("embeddings", "count_embeddings"),
    ("structure", "path_cover_number"),
    ("structure", "star_free_parameter"),
    ("bounds", "compose_report"),
    ("verify", "run_suites"),
    ("verify", "soundness_sweep"),
    ("verify", "greedy_sweep"),
    ("verify", "exactness_suite"),
    ("verify", "oracle_suite"),
    ("verify", "theorem1_suite"),
)
MPMATH_LOG = "bounds.mpmath_log"
LAYERS = ("graphs", "automorphisms", "corpus", "trees", "embeddings",
          "structure", "bounds", "verify", "cli")


class Tracer:
    """Records one span per call of a wrapped function, in call order."""

    def __init__(self):
        # Each span is [name, start, end, parent index (-1 at top level), ok].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def traced(self, name: str, fn):
        """fn, recording a span named ``name`` around every call."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, False]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
                rec[4] = True
                return result
            finally:
                rec[2] = clock()
                stack.pop()

        return wrapper

    def _rebind(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every TRACED function wherever an autbounds module binds it."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "autbounds" or k.startswith("autbounds.")]
        wrapped = {}  # id(original) -> wrapper
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"autbounds.{mod_name}"], fn_name)
            wrapped[id(original)] = self.traced(f"{mod_name}.{fn_name}", original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if not attr.startswith("_") and id(value) in wrapped:
                    self._rebind(mod, attr, wrapped[id(value)])
        suites = sys.modules["autbounds.verify"].SUITES
        for key, fns in list(suites.items()):
            self._undo.append((suites, key, fns))
            suites[key] = tuple(wrapped.get(id(fn), fn) for fn in fns)
        self._rebind(mpmath, "log", self.traced(MPMATH_LOG, mpmath.log))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._undo.clear()

    def discard(self, mark: int) -> None:
        """Forget the spans recorded since len(spans) was mark, at top level."""
        del self.spans[mark:]

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines: name, start, end, parent, ok."""
        with open(path, "w", encoding="ascii") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")

    def summary(self, run_s: float, duration) -> dict[str, float]:
        """Per-function calls, busy/self time and failures; per-layer self
        time; and the share of run_s that top-level spans cover.  A span's
        time is duration(start, end), in the units of run_s."""
        out: dict[str, float] = {}
        durations = [duration(rec[1], rec[2]) for rec in self.spans]
        child_time = [0.0] * len(self.spans)
        for rec, dur in zip(self.spans, durations):
            if rec[3] >= 0:
                child_time[rec[3]] += dur
        layer_self = dict.fromkeys(LAYERS, 0.0)
        top = 0.0
        for i, (name, _, _, parent, ok) in enumerate(self.spans):
            dur = durations[i]
            self_s = dur - child_time[i]
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + self_s
            out[f"{name}.failed"] = out.get(f"{name}.failed", 0) + (not ok)
            # busy time counts a recursive call only at its outermost span
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                out[f"{name}.busy_s"] = out.get(f"{name}.busy_s", 0.0) + dur
            layer_self[name.split(".", 1)[0]] += self_s
            if parent < 0:
                top += dur
        for layer, s in layer_self.items():
            out[f"{layer}.self_s"] = s
        out["trace.spans"] = len(self.spans)
        out["trace.top_level_coverage"] = top / run_s if run_s > 0 else 0.0
        return out
