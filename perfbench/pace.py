"""Speed normalisation against a fixed reference kernel.

On a shared 2-core box the same pass can take 1.4x longer when another
tenant loads the core's sibling: a pure-Python loop slows by up to 1.8x
for stretches of seconds, and CPU time moves with wall time, so neither
clock is steady.  While a pass runs, a ``SIGALRM`` timer interrupts it
every :data:`INTERVAL_S` seconds and times :func:`kernel`, a fixed loop
of dict and integer operations that shares no code with the program.
``REFERENCE_S`` over a sample's duration is the machine's pace at that
moment, and the mean pace over the pass turns its measured time into
seconds at the reference pace: the integral of pace over the pass.  The
mean, not the median, because the pace often switches between two
levels within one pass.  Over 8 passes each of ``wide-clauses`` and
``stlc-refute`` the coefficient of variation of the pass time dropped
from 0.11-0.12 as measured to 0.013-0.017 scaled.  The handler runs in
the main thread between bytecodes and costs about 0.5% of a pass.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.02
#: the kernel's median duration on an idle 2-core x86 Xeon box
REFERENCE_S = 90e-6


def kernel() -> int:
    table: dict = {}
    acc = 0
    for i in range(500):
        table[i & 255] = acc
        acc += table.get((i * 7) & 255, 1) ^ i
    return acc


class Pace:
    """Context manager sampling the kernel's duration while it is open."""

    def __init__(self, interval_s: float = INTERVAL_S) -> None:
        self.interval_s = interval_s
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        self.samples.append((start, time.perf_counter() - start))

    def __enter__(self) -> "Pace":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start: float = 0.0, end: float = float("inf")):
        """The mean pace, ``REFERENCE_S`` over each kernel time, of the
        samples taken between ``start`` and ``end`` (``perf_counter``
        readings); None if there are none."""
        paces = [REFERENCE_S / d for t, d in self.samples if start <= t < end]
        return statistics.mean(paces) if paces else None
