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
  designated initiator — the one the run recorded, replayed here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.simtime.collective_model import partial_round
from repro.simtime.network import DEFAULT_NETWORK, LogGPParams


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


_VALID_MODES = ("sync", "solo", "majority", "quorum")


def project_training_time(
    timeline: StepTimeline,
    mode: str = "sync",
    *,
    exchange_cost: float,
    params: LogGPParams = DEFAULT_NETWORK,
    initiators: Optional[Sequence[int]] = None,
    quorum: Optional[int] = None,
    model_sync_period: Optional[int] = None,
) -> TrainingProjection:
    """Replay a training run and return its projected timing.

    Every eager step is one
    :func:`~repro.simtime.collective_model.partial_round` over the ranks'
    arrivals; a synchronous step waits for the slowest rank.

    Parameters
    ----------
    timeline:
        Per-rank, per-step local work durations.
    mode:
        ``"sync"`` (synchronous allreduce every step), ``"solo"``,
        ``"majority"`` or ``"quorum"``.
    exchange_cost:
        Seconds one gradient exchange takes once its ranks are present
        (the runner's is :func:`~repro.tuning.autotune.predict_exchange_time`
        of the run's exchange schedule); the caller prices it.
    params:
        Network parameters of the activation broadcast.
    initiators:
        Majority mode: the designated initiator of every step, one per
        step — the ones the run recorded, replayed rather than re-drawn.
        Solo's initiator is the earliest arrival, quorum's the Q-th.
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
    if mode == "majority":
        designated = np.asarray([] if initiators is None else initiators, dtype=np.int64)
        if designated.shape != (num_steps,) or np.any(
            (designated < 0) | (designated >= num_ranks)
        ):
            raise ValueError(
                f"majority replays one initiator in [0, {num_ranks}) per step: "
                f"{num_steps} steps, got {designated.size} initiator(s) in "
                f"[{designated.min(initial=0)}, {designated.max(initial=0)}]"
            )

    ready = np.zeros(num_ranks)
    step_completion = np.zeros(num_steps)
    nap = np.zeros(num_steps, dtype=np.int64)

    for t in range(num_steps):
        arrivals = ready + durations[t]
        if mode == "sync":
            completion = float(arrivals.max()) + exchange_cost
            ready = np.full(num_ranks, completion)
            nap[t] = num_ranks
        else:
            if mode == "solo":
                initiator = int(np.argmin(arrivals))
            elif mode == "majority":
                initiator = int(designated[t])
            else:  # quorum
                initiator = int(np.argsort(arrivals, kind="stable")[quorum - 1])
            round_ = partial_round(arrivals, initiator, exchange_cost, params)
            nap[t] = round_.num_active
            # Fast ranks block until the round completes; slow ranks find
            # the result ready and continue immediately.
            ready = np.maximum(arrivals, round_.completion_time)
        step_completion[t] = float(ready.max())

        if model_sync_period and (t + 1) % model_sync_period == 0:
            # Periodic model synchronisation: a synchronous allreduce of
            # the weights involving every rank.
            sync_done = float(ready.max()) + exchange_cost
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
