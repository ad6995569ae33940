"""Timings in reference seconds, to factor out the speed of a shared host.

On a shared host the whole machine runs up to about 1.6x slower for periods
of several seconds, which moves the median op time of a 30-second run by
20-40% from one run to the next.  How much an op slows down depends on what
it does: interpreter-bound work on tiny arrays slows the most, streaming
over large arrays the least.  So the reference kernel has two parts: a fixed
interpreter-bound part (a Python loop and small numpy calls, about 1 ms),
and one plain-numpy softmax over an array the size of the workload's
attention scores (batch x heads x D x D).  The bigger the workload's arrays,
the more of the kernel is memory-bound, like the ops it sits between.

Every measured interval is timed between two kernel runs and scaled by
(kernel time on the reference machine) / (kernel time now): the interval in
seconds of the reference machine at full speed.  The kernel never changes
with the program, so a faster program still reads faster.
"""

from __future__ import annotations

import time

import numpy as np


class RefClock:
    """Times ops between reference-kernel runs; keeps raw and scaled times.

    `reference_seconds` is the kernel's time on the reference machine at full
    speed, measured once and kept with the workload.
    """

    def __init__(self, shape: tuple[int, ...], reference_seconds: float):
        rng = np.random.default_rng(0)
        self._scores = rng.standard_normal(shape)
        self._vec = rng.standard_normal(4096)
        self._mat = rng.standard_normal((48, 48))
        self._nominal = reference_seconds
        self.last = self.kernel()

    def kernel(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(12000):
            acc += i
        for _ in range(30):
            np.exp(self._vec).sum()
            self._mat @ self._mat
        a = self._scores
        e = np.exp(a - a.max(axis=-1, keepdims=True))
        e /= e.sum(axis=-1, keepdims=True)
        return time.perf_counter() - t0

    def scaled(self, raw: float, before: float, after: float) -> float:
        return raw * self._nominal * 2.0 / (before + after)

    def timed(self, fn, *args):
        """Run fn(*args); return (result, reference seconds, raw seconds)."""
        before = self.last
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        finally:
            raw = time.perf_counter() - t0
            self.last = self.kernel()
        return out, self.scaled(raw, before, self.last), raw
