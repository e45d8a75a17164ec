"""Host speed, tracked during a pass, so timings can be scaled to one speed.

The host this benchmark was tuned on is shared: the speed at which it runs
the same Python code swings by up to half within tens of seconds.  So a pass
runs a fixed probe every PERIOD_S seconds, from a timer signal, and every
timed interval is scaled by NOMINAL_S over the probe time measured around
it.  The probe shares no code with autbounds, so a change to the program
moves scaled times as much as raw ones.  Probe time inside an interval is
not counted as the program's.
"""

from __future__ import annotations

import bisect
import signal
import time

PERIOD_S = 0.25
# Probe time the scaled timings are expressed at: about the probe time on
# the 2-vCPU host the benchmark was tuned on, in its faster state.
NOMINAL_S = 0.010
_ITERATIONS = 28000
_TABLE = {k: (k * 40503) & 0xFFFF for k in range(4096)}


def _mix(a: int, b: int) -> int:
    return (a ^ (b << (a & 31))) & 0xFFFFFFFFFFFF


def probe() -> float:
    """Run the fixed probe once and return its wall time.  It allocates no
    container, so it never triggers the garbage collector."""
    table, mix = _TABLE, _mix
    t0 = time.perf_counter()
    acc = 0
    for i in range(_ITERATIONS):
        k = (i * 2654435761) & 4095
        acc = mix(acc + table[k], i) + (k if k in table else 0)
    return time.perf_counter() - t0


class Tracker:
    """Probes the host every PERIOD_S seconds while active (a context)."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._old_handler = None

    def _probe(self, _signum=None, _frame=None) -> None:
        start = time.perf_counter()
        took = probe()
        self.starts.append(start)
        self.ends.append(start + took)

    def __enter__(self) -> "Tracker":
        self._probe()
        self._old_handler = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        self._probe()

    def scaled(self, t0: float, t1: float) -> tuple[float, float]:
        """(raw, scaled) program time in [t0, t1]: probes excluded, and each
        gap between two probes scaled by NOMINAL_S / their mean time."""
        starts, ends = self.starts, self.ends
        raw = scaled = 0.0
        # gap j runs from the end of probe j to the start of probe j + 1
        j = max(0, bisect.bisect_right(ends, t0) - 1)
        while j + 1 < len(starts) and ends[j] < t1:
            lo, hi = max(t0, ends[j]), min(t1, starts[j + 1])
            if hi > lo:
                probe_s = (ends[j] - starts[j] + ends[j + 1] - starts[j + 1]) / 2
                raw += hi - lo
                scaled += (hi - lo) * NOMINAL_S / probe_s
            j += 1
        return raw, scaled
