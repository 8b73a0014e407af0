"""Arrival-time (skew) pattern for the latency microbenchmark.

The microbenchmark of Fig. 8/9 in the paper skews the processes linearly
("``usleep(pid * 1000)``", i.e. rank ``i`` is delayed by ``i``
milliseconds) before calling the collective.
"""

from __future__ import annotations

import numpy as np


def linear_skew(size: int, step_ms: float = 1.0) -> np.ndarray:
    """Arrival times ``[0, step, 2*step, ...]`` in seconds (paper's Fig. 8)."""
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    return np.arange(size, dtype=np.float64) * (step_ms / 1000.0)
