"""Host-speed sentinel: how fast the shared host runs a rank, epoch by epoch.

The two vCPUs of this box are slices of a shared host.  For minutes at a
time they run NumPy code 1.5 to 2 times slower than when the host is quiet
(no steal time is reported, CPU time inflates with wall time), and a
``bulk_*`` step is processor-bound from end to end, so its wall clock
follows the host: identical runs read 28 to 53 steps/s.  A fixed kernel
timed inside each rank at every step follows the same slowdown (correlation
0.97-0.99 with the epoch's wall time over 390 epochs), and dividing an
epoch's wall time by the kernel's slowdown takes it out again.

The kernel runs where the runner asks for the step's injected delay, which
is a call into an object the benchmark supplies: no program file changes,
and the program still receives nothing but its inputs.  The delay it
reports is always zero.
"""

from __future__ import annotations

import mmap
import time
from typing import List, Sequence

import numpy as np

from bench import stats
from repro.imbalance.injection import NoDelay

#: Kernel time between the steps of a run on this box while the host is
#: quiet (0.40-0.42 ms; 0.35 in a loop of its own, its arrays still cached):
#: the speed ``bulk_*`` numbers are stated at.  Another machine reads a
#: constant factor off.
REFERENCE_MS = 0.400
_STREAM_ELEMENTS = 131072  # 1 MiB of float64: streams like the optimizer step
_STREAM_PASSES = 4
_MATMUL_SIZE = 40          # cache-resident: computes like forward/backward
_MATMUL_PASSES = 60


class HostSpeedSentinel(NoDelay):
    """A ``NoDelay`` that times a fixed kernel at every step of every rank.

    Durations go into an anonymous shared mapping made before the world
    forks, so the launching process reads what the ranks wrote.
    """

    def __init__(self, world_size: int, steps: int) -> None:
        self.world_size = world_size
        self.steps = steps
        self._shared = mmap.mmap(-1, 8 * world_size * steps)
        self._arrays = None

    def _durations(self) -> np.ndarray:
        return np.frombuffer(self._shared, dtype=np.float64).reshape(self.world_size, self.steps)

    def delay_for_rank(self, step: int, rank: int, world_size: int) -> float:
        if self._arrays is None:  # first step in this rank's process
            self._arrays = (
                np.ones(_STREAM_ELEMENTS), np.ones(_STREAM_ELEMENTS),
                np.full((_MATMUL_SIZE, _MATMUL_SIZE), 1.0 / _MATMUL_SIZE),
            )
        acc, other, square = self._arrays
        start = time.perf_counter()
        for _ in range(_STREAM_PASSES):
            np.add(acc, other, out=acc)
        for _ in range(_MATMUL_PASSES):
            square @ square
        self._durations()[rank, step] = time.perf_counter() - start
        return 0.0

    def epoch_slowdowns(self, steps_per_epoch: int) -> List[float]:
        return epoch_slowdowns(self._durations().tolist(), steps_per_epoch)


def epoch_slowdowns(durations: Sequence[Sequence[float]], steps_per_epoch: int) -> List[float]:
    """Per epoch: kernel time over ``REFERENCE_MS`` (1.0 = the quiet box).

    ``durations[rank][step]`` in seconds.  An epoch's kernel time is the
    median over its steps, averaged over the ranks: the ranks move in
    lockstep, so an epoch is as slow as its ranks are together.
    """
    epochs = len(durations[0]) // steps_per_epoch
    out = []
    for epoch in range(epochs):
        lo, hi = epoch * steps_per_epoch, (epoch + 1) * steps_per_epoch
        per_rank = [stats.median(rank[lo:hi]) for rank in durations]
        out.append(1e3 * sum(per_rank) / len(per_rank) / REFERENCE_MS)
    return out
