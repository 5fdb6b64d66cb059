"""Host-speed correction for the untraced run's timings.

On a shared host the speed of this process's CPU changes from one second
to the next (another tenant's load on the same core): the same work can
take 1.6 times as long in one run as in another.  A :class:`Pacer`
follows that speed with a fixed reference kernel that it runs every
``INTERVAL_S`` from a timer signal, and keeps a *paced clock*: wall time
without the kernel's own time, each stretch weighted by the host's speed
at the time,

    paced time = wall time x REFERENCE_NS / (median of the last WINDOW kernel times)

so a stretch of wall time counts as what it would have taken had the
kernel run in ``REFERENCE_NS``.  The kernel is fixed by this file and
never calls the program, so a faster program takes less paced time while
a slower host does not.  It mixes interpreter work with small numpy
calls, as the program does.

The timer is ``ITIMER_REAL``; Python runs the handler in the main thread
between bytecodes, so a kernel never runs inside a BLAS call or twice at
once.
"""

from __future__ import annotations

import signal
import statistics
import time
from collections import deque

import numpy as np

_now = time.perf_counter_ns

# The kernel's time between the program's calls on the reference host, a
# 2-vCPU Xeon VM, at its full speed (OpenBLAS with one thread, numpy 2.4,
# Python 3.11).  Only a scale: paced times of beam-h512 and toy-h64 come
# out close to their wall times at full speed.
REFERENCE_NS = 125_000
INTERVAL_S = 0.04
WINDOW = 5

_V = np.linspace(-1.0, 1.0, 64)
_M = np.outer(_V, _V) / 64.0


def reference_kernel() -> float:
    """Fixed work: dictionary and integer traffic in a Python loop, then
    small numpy calls whose cost is mostly call overhead."""
    table: dict = {}
    acc = 0
    for i in range(600):
        key = i & 63
        table[key] = table.get(key, 0) + i
        acc += len(table)
    v = _V
    for _ in range(8):
        v = np.tanh(_M @ v)
    return acc + float(v[0])


class Pacer:
    """A paced clock in nanoseconds, driven by the reference kernel.

    ``now()`` may be called at any time; the clock follows the host from
    ``start()`` to ``stop()``.  ``ticks`` keeps every tick's end and kernel
    time, for the record.
    """

    def __init__(self):
        self.ticks: list[tuple[int, int]] = []
        self._recent: deque = deque(maxlen=WINDOW)
        for _ in range(WINDOW):
            t0 = _now()
            reference_kernel()
            self._recent.append(_now() - t0)
        # (paced ns so far, wall ns when it was taken, current speed):
        # replaced as one tuple so that now() never sees half an update.
        self._state = (0.0, _now(), self._speed())
        self._previous_handler = None

    def _speed(self) -> float:
        return REFERENCE_NS / statistics.median(self._recent)

    def _tick(self, _signum, _frame) -> None:
        t0 = _now()
        paced, since, speed = self._state
        paced += (t0 - since) * speed
        reference_kernel()
        t1 = _now()
        self._recent.append(t1 - t0)
        self.ticks.append((t1, t1 - t0))
        self._state = (paced, t1, self._speed())

    def now(self) -> float:
        while True:
            state = self._state
            t = _now()
            if self._state is state:  # no tick between the two reads
                return state[0] + (t - state[1]) * state[2]

    def start(self) -> None:
        self._previous_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous_handler or signal.SIG_DFL)

    def summary(self) -> dict:
        ns = [kernel for _end, kernel in self.ticks] or list(self._recent)
        return {"ticks": len(self.ticks), "reference_ns": REFERENCE_NS,
                "kernel_ns_p50": statistics.median(ns),
                "kernel_ns_min": min(ns), "kernel_ns_max": max(ns)}
