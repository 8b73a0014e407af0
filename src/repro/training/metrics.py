"""Training histories and results."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.simtime.training_model import TrainingProjection


@dataclass
class EpochRecord:
    """Aggregated metrics of one epoch (global, not per rank)."""

    epoch: int
    train_loss: float
    train_top1: float
    train_top5: float
    eval_loss: float
    eval_top1: float
    eval_top5: float
    #: Mean number of fresh contributors per step during this epoch.
    mean_num_active: float
    #: Fraction of steps in which the local gradient was included (rank 0).
    inclusion_rate: float
    #: Projected time (seconds, paper scale) at which this epoch finished.
    sim_time: float = 0.0
    #: Wall-clock seconds spent in this epoch (reproduction scale).
    wall_time: float = 0.0


@dataclass
class RankSummary:
    """Per-rank bookkeeping collected at the end of training."""

    rank: int
    max_staleness: int
    mean_staleness: float
    inclusion_rate: float
    mean_num_active: float
    min_num_active: int
    final_model_hash: str


@dataclass
class TrainingResult:
    """Everything a training run produces.

    Attributes
    ----------
    mode:
        Exchange mode (``sync`` / ``solo`` / ``majority`` / ``quorum``).
    description:
        Human-readable configuration summary.
    epochs:
        One :class:`EpochRecord` per epoch.
    step_durations:
        Simulated per-rank, per-step local durations, shape
        ``(steps, world_size)`` — the trace behind Figs. 2b/3/4 and the
        input of the timing projection.
    projection:
        Paper-scale timing projection of the run.
    rank_summaries:
        Per-rank staleness/quorum summaries.
    wall_time:
        Total wall-clock seconds of the reproduction run.
    """

    mode: str
    description: str
    epochs: List[EpochRecord]
    step_durations: np.ndarray
    projection: Optional[TrainingProjection]
    rank_summaries: List[RankSummary]
    wall_time: float

    # ------------------------------------------------------------ helpers
    @property
    def final_epoch(self) -> EpochRecord:
        return self.epochs[-1]

    @property
    def total_sim_time(self) -> float:
        """Projected end-to-end training time in seconds (paper scale)."""
        if self.projection is not None:
            return self.projection.total_time
        return self.epochs[-1].sim_time if self.epochs else 0.0

    @property
    def throughput(self) -> float:
        """Projected steps/second (the y-axis of Figs. 10/11a)."""
        if self.projection is None:
            return 0.0
        return self.projection.throughput

    def accuracy_vs_time(self, metric: str = "eval_top1") -> List[tuple]:
        """Series of ``(sim_time_seconds, metric_value)`` per epoch."""
        return [(e.sim_time, getattr(e, metric)) for e in self.epochs]

    def summary_row(self) -> Dict[str, float]:
        """Flat summary used by the experiment report tables."""
        last = self.final_epoch
        return {
            "mode": self.mode,
            "total_sim_time_s": round(self.total_sim_time, 3),
            "throughput_steps_per_s": round(self.throughput, 4),
            "final_eval_loss": round(last.eval_loss, 5),
            "final_eval_top1": round(last.eval_top1, 4),
            "final_eval_top5": round(last.eval_top5, 4),
            "final_train_top1": round(last.train_top1, 4),
            "mean_num_active": round(
                float(np.mean([e.mean_num_active for e in self.epochs])), 2
            ),
            "wall_time_s": round(self.wall_time, 2),
        }
