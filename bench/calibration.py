"""Machine-speed calibration of timings taken on a shared host.

On a host shared with other tenants, contention slows all code by up to 2x
in bursts of a second to a minute, so raw latencies of the same work spread
far more between runs than any useful regression bound.  Each timed call is
therefore bracketed by runs of a fixed, benchmark-owned calibration kernel,
and the kernel also runs every ``INTERVAL_S`` from a timer signal while the
call is in progress.  The call's latency, net of the kernel time spent
inside it, is divided by the mean kernel time and multiplied by
``REFERENCE_S``: a *normalised* latency, in seconds at the machine speed at
which the kernel takes ``REFERENCE_S``.  The kernel's code never changes with
the program under test, so a faster program still reads faster.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
from dataclasses import dataclass
from time import perf_counter

import numpy as np

REFERENCE_S = 5e-4  # about the kernel's uncontended time on a 2 GHz Xeon vCPU
INTERVAL_S = 0.05
EDGE_SAMPLES = 3


def kernel(x: np.ndarray) -> float:
    """Small numpy solves and Python arithmetic: the mix elspec's per-node
    and per-replication code runs."""
    acc = 0.0
    for i in range(40):
        h = x.T @ x + i
        acc += float(np.linalg.solve(h, x[0])[0])
        acc += sum(j * 0.5 for j in range(40))
    return acc


@dataclass
class Timing:
    raw: float = 0.0  # wall seconds of the call
    net: float = 0.0  # raw minus the kernel time spent inside the call
    kernel_s: float = 0.0  # mean kernel time around and during the call

    @property
    def normalised(self) -> float:
        return self.net * REFERENCE_S / self.kernel_s


class Calibrator:
    def __init__(self):
        self._x = np.random.default_rng(0).standard_normal((50, 2))
        self.samples: list[float] = []

    def sample(self) -> None:
        t0 = perf_counter()
        kernel(self._x)
        self.samples.append(perf_counter() - t0)

    def _on_alarm(self, signum, frame):
        self.sample()

    @contextlib.contextmanager
    def measure(self):
        """Time the body; the yielded Timing is filled in on exit, also when
        the body raises."""
        timing = Timing()
        first = len(self.samples)
        for _ in range(EDGE_SAMPLES):
            self.sample()
        inside_first = len(self.samples)
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t0 = perf_counter()
        try:
            yield timing
        finally:
            timing.raw = perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            timing.net = timing.raw - sum(self.samples[inside_first:])
            for _ in range(EDGE_SAMPLES):
                self.sample()
            timing.kernel_s = statistics.fmean(self.samples[first:])
