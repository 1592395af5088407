"""A fixed reference computation, timed while qwb runs.

On the 2-vCPU Intel Xeon virtual machine this benchmark was written on,
a run gets a share of a shared host whose CPUs switch, every few hundred
milliseconds to seconds, between a fast and a slow state about 1.4x apart,
and the share of time in the slow state drifts over minutes.  Identical qwb calls then took 13-17%
longer or shorter from one 20-60 s stretch to the next, however long the
stretch, which no median over a run removes.

``Sampler`` measures the CPU's speed during the call itself: a SIGALRM
handler runs one small unit of reference work every INTERVAL seconds of
wall time and times it.  A call's seconds, less the time spent in the
handler, divided by the mean unit time sampled during it, is the call's
length in reference units.  On the same stretches that ratio spread 1.5-3%.

Set-up runs mostly in a child interpreter, so ``block`` times units just
before and just after it instead; the benchmark keeps itself and that child
on one CPU, so both blocks see the CPU the child ran on.

The unit does what qwb's simulator spends its time on, small numpy array
operations driven from a Python loop plus Python object work, on inputs made
from a fixed seed.  It calls nothing in qwb, so no change to qwb can change
it.
"""

from __future__ import annotations

import signal
import time

import numpy as np


class Sampler:
    INTERVAL = 0.025
    SIZE, BITS, SEED = 2048, 3, 12345

    def __init__(self):
        rng = np.random.default_rng(self.SEED)
        self.keys = np.sort(rng.choice(1 << 20, self.SIZE, replace=False))
        self.samples: list[float] = []
        self.spent = 0.0

    def unit(self) -> int:
        """One unit of reference work (about a millisecond)."""
        keys, total = self.keys, 0
        for bit in range(self.BITS):
            flipped = keys ^ np.int64(1 << bit)
            order = np.argsort(flipped, kind="stable")
            base = np.unique(flipped[order] & ~np.int64(3))
            total += int(np.searchsorted(keys, base[:64]).sum())
            total += len({int(k) for k in base[:200]})
        return total

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        self.unit()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "Sampler":
        self.samples, self.spent = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            # A call shorter than INTERVAL: sample right after it.
            self._sample()
            self.spent = 0.0

    def block(self, seconds: float) -> float:
        """Run whole units for at least ``seconds`` (at least one unit);
        returns the mean seconds per unit."""
        n, t0 = 0, time.perf_counter()
        while True:
            self.unit()
            n += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= seconds:
                return elapsed / n

    def unit_s(self) -> float:
        """Mean seconds per unit over the last ``with`` block."""
        return sum(self.samples) / len(self.samples)
