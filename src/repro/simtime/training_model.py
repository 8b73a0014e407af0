"""Projection of end-to-end training time under different SGD variants.

The paper's throughput figures (Fig. 10 top, Fig. 11a) and time-to-accuracy
figures (Figs. 10-13) measure wall-clock time on a 8-64 GPU cluster with
hundreds of milliseconds of injected or inherent imbalance per step.  The
reproduction runs the *semantics* (which gradients are combined, how stale
they are) with scaled-down delays on threads, and uses this module to
project the *time axis* back to paper scale: given the per-rank per-step
compute (+ injected delay) durations, it replays the synchronisation
structure of each SGD variant and returns when every training step
completes.

The structural difference the projection captures is exactly the paper's
argument (Fig. 1):

* synchronous SGD pays ``sum over steps of the slowest rank`` (a sum of
  maxima);
* eager-SGD with solo allreduce pays roughly ``the slowest rank's own
  total compute`` (a maximum of sums), because nobody waits;
* majority allreduce sits in between: each step waits for the randomly
  designated initiator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.simtime.collective_model import activation_time, allreduce_time
from repro.simtime.network import DEFAULT_NETWORK, LogGPParams
from repro.utils.rng import SeedLike, seeded_rng


@dataclass
class StepTimeline:
    """Per-rank, per-step workload durations.

    Attributes
    ----------
    durations:
        Array of shape ``(num_steps, num_ranks)``: seconds of local work
        (forward + backward + injected delay) of each rank at each step.
    """

    durations: np.ndarray

    def __post_init__(self) -> None:
        self.durations = np.asarray(self.durations, dtype=np.float64)
        if self.durations.ndim != 2:
            raise ValueError(
                f"durations must have shape (num_steps, num_ranks), "
                f"got {self.durations.shape}"
            )
        if np.any(self.durations < 0):
            raise ValueError(
                f"durations must be non-negative, got min {self.durations.min()}"
            )

    @property
    def num_steps(self) -> int:
        return int(self.durations.shape[0])

    @property
    def num_ranks(self) -> int:
        return int(self.durations.shape[1])


@dataclass(frozen=True)
class TrainingProjection:
    """Result of replaying a training run through the timing model."""

    #: SGD variant that was replayed.
    mode: str
    #: Completion time (seconds) of every training step.
    step_completion_times: np.ndarray
    #: Number of ranks contributing fresh gradients at every step.
    num_active_per_step: np.ndarray
    #: Total training time (seconds): when the last rank finished its last step.
    total_time: float
    #: Average throughput in steps/second.
    throughput: float

    def time_at_step(self, step: int) -> float:
        """Completion time of a given step (paper plots use epoch ends)."""
        return float(self.step_completion_times[step])


_VALID_MODES = ("sync", "solo", "majority", "quorum")


def project_training_time(
    timeline: StepTimeline,
    mode: str = "sync",
    gradient_bytes: int = 4 * 1024 * 1024,
    params: LogGPParams = DEFAULT_NETWORK,
    algorithm: str = "recursive_doubling",
    seed: SeedLike = None,
    quorum: Optional[int] = None,
    model_sync_period: Optional[int] = None,
) -> TrainingProjection:
    """Replay a training run and return its projected timing.

    Parameters
    ----------
    timeline:
        Per-rank, per-step local work durations.
    mode:
        ``"sync"`` (synchronous allreduce every step), ``"solo"``,
        ``"majority"`` or ``"quorum"``.
    gradient_bytes:
        Size of the gradient allreduce payload (4 bytes per parameter for
        the fp32 gradients used in the paper).
    quorum:
        Number of arrivals required in quorum mode.
    model_sync_period:
        If given, every ``model_sync_period`` steps an additional global
        synchronisation (weight averaging) is inserted, mirroring the
        periodic model synchronisation of eager-SGD (Section 5).
    """
    if mode not in _VALID_MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {_VALID_MODES}")
    durations = timeline.durations
    num_steps, num_ranks = durations.shape
    if num_ranks < 1 or num_steps < 1:
        raise ValueError(
            f"timeline must contain at least one step and one rank, "
            f"got {num_steps} x {num_ranks}"
        )
    if mode == "quorum":
        if quorum is None:
            quorum = max(1, num_ranks // 2)
        if not 1 <= quorum <= num_ranks:
            raise ValueError(f"quorum must be in [1, {num_ranks}], got {quorum}")

    rng = seeded_rng(seed)
    reduce_cost = allreduce_time(gradient_bytes, num_ranks, algorithm, params)
    act_cost = activation_time(num_ranks, params)

    ready = np.zeros(num_ranks)
    step_completion = np.zeros(num_steps)
    nap = np.zeros(num_steps, dtype=np.int64)

    for t in range(num_steps):
        arrivals = ready + durations[t]
        if mode == "sync":
            completion = float(arrivals.max()) + reduce_cost
            ready = np.full(num_ranks, completion)
            nap[t] = num_ranks
        else:
            if mode == "solo":
                initiator_arrival = float(arrivals.min())
            elif mode == "majority":
                initiator = int(rng.integers(0, num_ranks))
                initiator_arrival = float(arrivals[initiator])
            else:  # quorum
                initiator_arrival = float(np.sort(arrivals)[quorum - 1])
            completion = initiator_arrival + act_cost + reduce_cost
            nap[t] = int(np.sum(arrivals <= initiator_arrival + act_cost))
            # Fast ranks block until the round completes; slow ranks find
            # the result ready and continue immediately.
            ready = np.maximum(arrivals, completion)
        step_completion[t] = float(ready.max())

        if model_sync_period and (t + 1) % model_sync_period == 0:
            # Periodic model synchronisation: a synchronous allreduce of
            # the weights involving every rank.
            sync_done = float(ready.max()) + reduce_cost
            ready = np.full(num_ranks, sync_done)
            step_completion[t] = sync_done

    total = float(ready.max())
    return TrainingProjection(
        mode=mode,
        step_completion_times=step_completion,
        num_active_per_step=nap,
        total_time=total,
        throughput=num_steps / total if total > 0 else math.inf,
    )
