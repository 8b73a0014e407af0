"""Analytic cost models.

The paper's latency microbenchmark (Fig. 9) and its large-scale runs (64
GPU nodes on Piz Daint) need a network substrate that we do not have in a
single-process reproduction.  This package provides two substitutes:

* an **analytic LogGP-style cost model** (:mod:`repro.simtime.network`,
  :mod:`repro.simtime.collective_model`) for point-to-point messages and
  for the collective algorithms (recursive doubling, ring, binomial
  broadcast, plus the activation + reduction structure of solo/majority
  allreduce);
* a **training-time projector** (:mod:`repro.simtime.training_model`) that
  converts per-rank per-step compute times into end-to-end training time
  under synchronous SGD, solo, majority and quorum eager-SGD — this is
  what produces the paper-scale time axes of Figures 10-13.
"""

from repro.simtime.network import LogGPParams, DEFAULT_NETWORK, message_time
from repro.simtime.collective_model import (
    allreduce_time,
    broadcast_time,
    activation_time,
    solo_allreduce_latencies,
    majority_allreduce_latencies,
    synchronous_allreduce_latencies,
    CollectiveLatencyResult,
)
from repro.simtime.skew import linear_skew
from repro.simtime.training_model import (
    StepTimeline,
    project_training_time,
    TrainingProjection,
)

__all__ = [
    "LogGPParams",
    "DEFAULT_NETWORK",
    "message_time",
    "allreduce_time",
    "broadcast_time",
    "activation_time",
    "solo_allreduce_latencies",
    "majority_allreduce_latencies",
    "synchronous_allreduce_latencies",
    "CollectiveLatencyResult",
    "linear_skew",
    "StepTimeline",
    "project_training_time",
    "TrainingProjection",
]
