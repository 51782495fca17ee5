"""Interpreter speed, sampled on a fixed loop, to take machine drift out of times.

On a shared box the same pass can take 10-15% longer from one minute to
the next although nothing in the program changed.  A fixed pure-Python
loop slows down with it, so the benchmark times that loop while it
measures and reports each time scaled to REF_LOOP_S, the loop's time on
an undisturbed machine: reference seconds.  The loop does not touch
msalg, so a change to the library shows in reference seconds as it does
in wall seconds.
"""

from __future__ import annotations

import signal
import statistics
import time

LOOP = 20_000
REF_LOOP_S = 1.5e-3
PERIOD_S = 0.25


def loop_time() -> float:
    began = time.perf_counter()
    acc = 0
    for i in range(LOOP):
        acc += i * i % 7
    return time.perf_counter() - began


def scale(samples) -> float:
    """Factor from wall seconds to reference seconds."""
    return REF_LOOP_S / statistics.median(samples)


class Sampler:
    """Times the loop every PERIOD_S of wall time while the block runs.

    It runs from SIGALRM, between bytecodes of the main thread, and keeps
    the time its own samples took in spent_s so the caller can take it
    back out of the block's wall time.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent_s = 0.0

    def _sample(self, _signum=None, _frame=None):
        began = time.perf_counter()
        self.samples.append(loop_time())
        self.spent_s += time.perf_counter() - began

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False
