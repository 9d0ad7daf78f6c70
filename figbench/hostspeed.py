"""Host-speed calibration, sampled while the program runs.

The hosts this benchmark runs on switch between a fast and a slow mode
(other tenants sharing the core) every few seconds, by up to 1.8x.  A
sampler thread in the measured process runs a fixed loop of Python and
small numpy operations every :data:`INTERVAL` seconds and records its rate.
Because the loop shares the core with the program, the mean rate over a
measured interval tracks the speed the program had in that interval, and

    wall seconds x mean rate / REFERENCE_RATE

is the time the interval would have taken on a host that runs the loop
:data:`REFERENCE_RATE` times a second.  The loop uses nothing of the
program, so a change to the program moves the wall time and not the rate.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np

#: calibration loops per second of the reference host
REFERENCE_RATE = 6000.0
#: seconds between two calibration loops
INTERVAL = 0.02

_VECTOR = np.arange(16.0)


def _loop() -> None:
    acc, seen = 0.0, {}
    for i in range(400):
        acc = acc * 0.5 + (i * 0.618) % 1.0
        seen[i & 63] = acc
        if i % 8 == 0:
            _VECTOR.sum()
            _VECTOR * 0.5


def pin_to_one_cpu() -> None:
    """Keep the process, and so the sampler, on one CPU of those allowed."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class SpeedSampler:
    """Context manager running the calibration thread; ``factor(start,
    end)`` is the mean rate of the loops that started in that interval,
    relative to :data:`REFERENCE_RATE`."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="figbench-speed", daemon=True)
        #: ``(start, rate)`` of every calibration loop so far
        self.samples: list = []

    def _run(self) -> None:
        clock = self._clock
        while not self._stop.wait(INTERVAL):
            start = clock()
            _loop()
            self.samples.append((start, 1.0 / (clock() - start)))

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self, start: float, end: float) -> float:
        samples = list(self.samples)
        rates = [rate for stamp, rate in samples if start <= stamp <= end]
        if not rates:
            # an interval shorter than the sampling period: use the nearest loop
            if not samples:
                raise RuntimeError("no calibration loop ran")
            middle = 0.5 * (start + end)
            rates = [min(samples, key=lambda s: abs(s[0] - middle))[1]]
        return sum(rates) / len(rates) / REFERENCE_RATE

    def scaled(self, start: float, end: float) -> float:
        """Seconds ``end - start`` at the reference host speed."""
        return (end - start) * self.factor(start, end)
