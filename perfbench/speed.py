"""Times scaled to a reference machine speed.

On a small shared machine the speed of the same Python code moves by
tens of percent within a minute (on the 2-vCPU reference machine, one
pass over the same 500 coloring instances took from 4.6 s to 7.4 s).
Each timed region is therefore bracketed by two runs of a fixed
calibration kernel, and its time is multiplied by REF_PROBE_S divided by
the mean kernel time around it.  The kernel uses no csp32 code, so a
change to the program cannot change the scale; it churns small dicts,
sets and tuples like the solver does, which makes it slow down with the
machine the way the solver does.  On that machine the scaled time of a
pass varied by 0.7% (coefficient of variation) where the raw time
varied by 17%.
"""

from __future__ import annotations

from time import perf_counter

# The kernel's typical time on the reference machine; scaled
# times are seconds at that speed.
REF_PROBE_S = 5.0e-4


class SpeedClock:
    def __init__(self):
        self.table = {
            (v, c): {((v * 7 + c * 3 + j) % 64, j % 3) for j in range(5)}
            for v in range(64)
            for c in range(3)
        }
        self.probe()

    def _kernel(self) -> int:
        table = self.table
        n = 0
        for p in sorted(table):
            q = table[p]
            for r in q:
                if p in table.get(r, ()):
                    n += 1
            n += len(q & table[(p[0] ^ 1, p[1])])
        return n

    def probe(self) -> float:
        """Seconds one kernel run takes right now."""
        t = perf_counter()
        self._kernel()
        return perf_counter() - t

    @staticmethod
    def factor(before: float, after: float) -> float:
        """Scale for a region timed between probes `before` and `after`."""
        return 2 * REF_PROBE_S / (before + after)

    def timed(self, fn, *args):
        """(result, scaled seconds) of fn(*args)."""
        before = self.probe()
        t = perf_counter()
        result = fn(*args)
        elapsed = perf_counter() - t
        return result, elapsed * self.factor(before, self.probe())
