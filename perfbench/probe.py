"""Reference probe: how fast this CPU runs Python code right now.

On a shared host the same pure-Python code runs up to twice as slowly
while other tenants are busy, in spells that last from a second to
minutes.  The benchmark runs `work`, a fixed piece of pure Python that
never changes and does not touch lexbs, every EVERY_S while it times
lexbs, and scales each item's time by REF_S over the median probe time
around it.  A change to lexbs moves the scaled times in full, the
neighbours much less.

Standard library `signal` and `time` only, so that importing it does
not change the import time of lexbs that `setup_s` measures.
"""

from __future__ import annotations

import signal
import time

# Median time of `work` inside a timed pass on the reference host (Intel
# Xeon, 2 vCPUs, Python 3.11.7) while it was quiet.
REF_S = 0.00048
# One probe every EVERY_S: about 1% of the time.
EVERY_S = 0.05
# Items are scaled by the median of this many probes nearest in time.
NEAR = 9

clock = time.perf_counter


def work() -> int:
    """Degree pieces of three variables and their shadows, counted by
    degree: tuples, sets, dicts and small ints, the stuff of lexbs."""
    seen: set = set()
    count: dict = {}
    for d in range(4, 11):
        for a in range(d, -1, -1):
            for b in range(d - a, -1, -1):
                e = (a, b, d - a - b)
                for i in range(3):
                    f = e[:i] + (e[i] + 1,) + e[i + 1 :]
                    if f not in seen:
                        seen.add(f)
                        count[d + 1] = count.get(d + 1, 0) + 1
    return len(count)


def sample() -> float:
    t = clock()
    work()
    return clock() - t


class Probes:
    """Probe samples taken every EVERY_S by an interval timer while a pass
    runs, inside the items too: start times and durations.

    The handler runs in the main thread between two bytecodes, so a
    probe falls wholly inside an item or wholly outside it, and run.py
    takes the probes inside an item out of its time.
    """

    def __init__(self):
        for _ in range(3):  # first calls in a fresh interpreter run cold
            work()
        self.samples: list[tuple[float, float]] = []

    def _tick(self, signum, frame) -> None:
        start = clock()
        work()
        self.samples.append((start, clock() - start))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self) -> dict:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.sort()
        return {
            "probe_at": [at for at, _ in self.samples],
            "probe_took": [took for _, took in self.samples],
        }
