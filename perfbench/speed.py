"""The machine's speed, read from a fixed reference loop.

On a shared VM the same op can take up to 1.9 times as long from one
minute to the next. The slowdown shows in CPU time as much as in wall
time, so it is not preemption, and it hits all pure-Python computation.
The benchmark therefore times this loop right before every op, and
every INTERVAL seconds from a timer signal while an op runs, and reports
each op's time scaled to the speed at which the loop takes ``REF_S``.
The loop uses no part of the library, so a change to the library cannot
move it. What it does is close to the library's kernel: products of
length-4 vectors of big integers, reduced modulo a prime power, with the
Python call and tuple overhead that goes with them.

Unix only: the timer is ``signal.setitimer``.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left
from time import perf_counter

REF_S = 0.5e-3      # the loop's time in the fast phase of the 2-vCPU VM (see README.md)
INTERVAL = 0.1      # seconds between timer samples
WINDOW = 3          # samples on each side of an interval that set its speed
_STEPS = 40
_MOD = 5 ** 200
_B = (5 ** 199 // 7, 3 ** 120 + 11, 2 ** 300 // 9, 7 ** 100 + 1)


def _step(a: tuple, b: tuple) -> tuple:
    c = [0, 0, 0, 0]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            k = i + j
            if k < 4:
                c[k] += x * y
            else:
                c[k - 4] += 5 * x * y
    return tuple(v % _MOD for v in c)


def sample() -> float:
    """Seconds taken by one pass of the reference loop."""
    t0 = perf_counter()
    a = (1, 2, 3, 4)
    for _ in range(_STEPS):
        a = _step(a, _B)
    return perf_counter() - t0


class Clock:
    """Reference samples taken while it runs, and the scale they give.

    Use it as a context manager around the timed calls, call ``tick``
    right before each of them, and ``scaled`` once the block has ended.  Inside the block a timer signal
    takes a sample every INTERVAL seconds, also in the middle of a call.
    ``scaled(t0, t1)`` turns the call that ran from t0 to t1 into seconds
    at the reference speed: it drops the samples taken inside the call,
    and multiplies what is left by REF_S over the mean sample time of the
    WINDOW samples before the call, those inside it and WINDOW after it.
    The mean, not the median, because a call's time adds up its slow
    and fast stretches alike."""

    def __init__(self):
        sample()                # the first pass runs cold; it is not kept
        self.samples: list = [] # (start, loop seconds, end), in time order
        self._starts: list = []
        self._busy = False
        self._old = None

    def tick(self) -> None:
        self._busy = True       # a timer sample must not land inside this one
        t0 = perf_counter()
        took = sample()
        self.samples.append((t0, took, perf_counter()))
        self._busy = False

    def _on_timer(self, *_) -> None:
        if not self._busy:
            self.tick()

    def __enter__(self) -> "Clock":
        self._old = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.tick()             # closes the window of the last call
        self._starts = [start for start, _, _ in self.samples]

    def scaled(self, t0: float, t1: float) -> float:
        lo, hi = bisect_left(self._starts, t0), bisect_left(self._starts, t1)
        inside = sum(end - start for start, _, end in self.samples[lo:hi])
        near = [took for _, took, _ in self.samples[max(0, lo - WINDOW):hi + WINDOW]]
        return (t1 - t0 - inside) * REF_S / statistics.fmean(near)

    def overall(self) -> float:
        """REF_S over the mean sample time: the speed over the whole block."""
        return REF_S / statistics.fmean(took for _, took, _ in self.samples)
