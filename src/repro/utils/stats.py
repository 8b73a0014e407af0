"""Streaming statistics and distribution summaries.

The paper characterises load imbalance by the min / max / mean / standard
deviation of per-batch runtimes (Section 2).  :class:`RunningStat` and
:func:`summarize` provide those measurements for arbitrary traces
produced by the library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

import numpy as np


class RunningStat:
    """Numerically stable streaming mean / variance (Welford's algorithm)."""

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf

    def push(self, value: float) -> None:
        value = float(value)
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        self._min = min(self._min, value)
        self._max = max(self._max, value)

    def extend(self, values: Iterable[float]) -> None:
        for v in values:
            self.push(v)

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        return self._m2 / self.count if self.count else 0.0

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    @property
    def min(self) -> float:
        return self._min if self.count else 0.0

    @property
    def max(self) -> float:
        return self._max if self.count else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"RunningStat(count={self.count}, mean={self.mean:.4g}, "
            f"std={self.std:.4g}, min={self.min:.4g}, max={self.max:.4g})"
        )


@dataclass(frozen=True)
class DistributionSummary:
    """Five-number-style summary of a sample, as reported in the paper."""

    count: int
    mean: float
    std: float
    min: float
    max: float
    median: float

    def as_row(self) -> Tuple[int, float, float, float, float, float]:
        return (self.count, self.mean, self.std, self.min, self.max, self.median)

    def __str__(self) -> str:
        return (
            f"n={self.count} mean={self.mean:.1f} std={self.std:.1f} "
            f"min={self.min:.1f} max={self.max:.1f} median={self.median:.1f}"
        )


def summarize(values: Sequence[float]) -> DistributionSummary:
    """Summarise a sample with the statistics quoted in the paper."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        return DistributionSummary(0, 0.0, 0.0, 0.0, 0.0, 0.0)
    return DistributionSummary(
        count=int(arr.size),
        mean=float(arr.mean()),
        std=float(arr.std()),
        min=float(arr.min()),
        max=float(arr.max()),
        median=float(np.median(arr)),
    )

