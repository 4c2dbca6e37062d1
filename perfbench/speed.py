"""Host-speed probe that puts measured times on a common scale.

On a shared host the speed of the same code drifts by up to 2x over
seconds to minutes. While the probe is active, a ``SIGALRM`` interrupts the
client every ``PERIOD_S`` and the handler runs three fixed NumPy kernels
for a few milliseconds each: 4x4 Cholesky/eigvalsh/solve calls (the call
overhead that bounds the n=4 programs), a 272x272 solve (the n=16 Schur
solve, threaded as BLAS is installed) and a stacked 16x16 complex matmul
(the n=16 Schur assembly). The handler runs in the client's own thread,
between bytecodes, so the client stays a single thread and long library
calls are sampled from inside.

Each sample keeps the rate of every kernel over its ``REFERENCE_RATES``
entry. A request is scaled by the kernels that resemble its work: the
call-overhead kernel alone for the d=2 workloads, the geometric mean of
all three for d=4 programs and the two-copy study. ``clock()`` is
``time.perf_counter()`` minus the time spent in the handler, so intervals
read on it are the client's own time. ``scale(c0, c1, kernels)`` is the
mean factor of the samples within one period of the interval; a duration
times its scale is the time it would take on the reference host. The
kernels are benchmark code, so a change to the library moves the request
times and not the probe.
"""

from __future__ import annotations

import bisect
import math
import signal
import time

import numpy as np

PERIOD_S = 0.05
KERNELS = ("calls", "solve", "assemble")
#: Seconds per sample spent on each kernel.
SLICE_S = (0.0025, 0.00125, 0.00125)
#: Longer samples around a set-up, which is timed outside the periodic probe.
SETUP_SAMPLE_SCALE = 10.0
#: Kernel rates (units/s) of the reference host: about the steady slow state
#: of a 2-vCPU 2.0 GHz Xeon VM with NumPy 2.4 and OpenBLAS 0.3.31.
REFERENCE_RATES = (6000.0, 700.0, 450.0)


class SpeedProbe:
    """Kernel slices interleaved with the client by a periodic timer."""

    def __init__(self):
        rng = np.random.default_rng(0)
        small = [rng.normal(size=(4, 4)) for _ in range(6)]
        self._small = [a @ a.T + 4.0 * np.eye(4) for a in small]
        big = rng.normal(size=(272, 272))
        self._big = big @ big.T + 272.0 * np.eye(272)
        self._rhs = rng.normal(size=(272, 8))
        self._stack = rng.normal(size=(256, 16, 16)) + 1j * rng.normal(size=(256, 16, 16))
        self._side = rng.normal(size=(16, 16)) + 0j
        self._kernels = (self._calls, self._solve, self._assemble)
        self.spent = 0.0
        self._at: list[float] = []
        self._logs: list[tuple[float, ...]] = []
        self._busy = False
        self._previous = None

    def _calls(self) -> None:
        for a in self._small:
            ell = np.linalg.cholesky(a)
            np.linalg.eigvalsh(a)
            np.linalg.solve(ell, a)

    def _solve(self) -> None:
        np.linalg.solve(self._big, self._rhs)

    def _assemble(self) -> None:
        np.matmul(np.matmul(self._side, self._stack), self._side)

    @staticmethod
    def _rate(kernel, seconds: float) -> float:
        """Run whole kernel units for at least ``seconds``; return units/s."""
        start = time.perf_counter()
        units = 0
        while True:
            kernel()
            units += 1
            elapsed = time.perf_counter() - start
            if elapsed >= seconds:
                return units / elapsed

    def sample(self, scale: float = 1.0) -> tuple[float, ...]:
        """Log of every kernel's rate over its reference rate."""
        return tuple(
            math.log(self._rate(kernel, scale * seconds) / ref)
            for kernel, seconds, ref in zip(self._kernels, SLICE_S, REFERENCE_RATES)
        )

    @staticmethod
    def factor(logs, kernels=KERNELS) -> float:
        """Geometric mean of the chosen kernels' rate ratios in one sample."""
        picked = [logs[KERNELS.index(k)] for k in kernels]
        return math.exp(sum(picked) / len(picked))

    def _sample(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            at = self.clock()
            start = time.perf_counter()
            logs = self.sample()
            self.spent += time.perf_counter() - start
            self._at.append(at)
            self._logs.append(logs)
        finally:
            self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def scale(self, c0: float, c1: float, kernels=KERNELS) -> float:
        """Host-speed factor of the client interval [c0, c1] on ``clock()``."""
        lo = bisect.bisect_left(self._at, c0 - PERIOD_S)
        hi = bisect.bisect_right(self._at, c1 + PERIOD_S)
        if lo == hi:
            lo, hi = max(0, lo - 1), min(len(self._at), hi + 1)
        samples = self._logs[lo:hi] or self._logs
        if not samples:
            return 1.0
        return sum(self.factor(logs, kernels) for logs in samples) / len(samples)
