"""Runtime tracking of staleness and quorum sizes.

The convergence guarantees of Section 5.1 are stated in terms of two
quantities the implementation can actually observe:

* the **staleness** of each rank's updates — for how many consecutive
  rounds a freshly computed gradient was left out of the reduction before
  finally being included (the bound ``tau`` of Lemma 5.1, property 4);
* the **quorum size** of each round — how many ranks contributed fresh
  data (the bound ``Q`` of Lemma 5.1, property 3; the "number of active
  processes" of Fig. 9).

The trackers below are fed by the training loop from the
:class:`repro.collectives.partial.PartialAllreduceResult` bookkeeping and
are reported in the experiment harnesses.
"""

from __future__ import annotations

from typing import List

import numpy as np


class StalenessTracker:
    """Tracks, per rank, how long gradients wait before being included."""

    def __init__(self) -> None:
        self._current_streak = 0
        self._streaks: List[int] = []
        self.rounds = 0
        self.included_rounds = 0

    def record(self, included: bool) -> None:
        """Record one round: was this rank's fresh gradient included?"""
        self.rounds += 1
        if included:
            self.included_rounds += 1
            self._streaks.append(self._current_streak)
            self._current_streak = 0
        else:
            self._current_streak += 1

    @property
    def max_staleness(self) -> int:
        """Observed bound ``tau``: the longest exclusion streak."""
        pending = [self._current_streak] if self._current_streak else []
        return max(self._streaks + pending, default=0)

    @property
    def mean_staleness(self) -> float:
        if not self._streaks:
            return float(self._current_streak)
        return float(np.mean(self._streaks))

    @property
    def inclusion_rate(self) -> float:
        """Fraction of rounds in which the fresh gradient was included."""
        return self.included_rounds / self.rounds if self.rounds else 1.0


class QuorumTracker:
    """Tracks the number of active (fresh-contributing) processes per round."""

    def __init__(self, world_size: int) -> None:
        if world_size < 1:
            raise ValueError(f"world_size must be >= 1, got {world_size}")
        self.world_size = world_size
        self.naps: List[int] = []

    def record(self, num_active: int) -> None:
        if not 0 <= num_active <= self.world_size:
            raise ValueError(
                f"num_active must be in [0, {self.world_size}], got {num_active}"
            )
        self.naps.append(int(num_active))

    @property
    def min_quorum(self) -> int:
        """Observed ``Q``: the smallest number of fresh contributions."""
        return min(self.naps, default=0)

    @property
    def mean_quorum(self) -> float:
        return float(np.mean(self.naps)) if self.naps else 0.0

    def majority_fraction(self) -> float:
        """Fraction of rounds in which at least half the ranks were active."""
        if not self.naps:
            return 0.0
        half = self.world_size / 2.0
        return float(np.mean([n >= half for n in self.naps]))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.naps, dtype=np.int64)
