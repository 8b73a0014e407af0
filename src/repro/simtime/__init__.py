"""Analytic cost models.

The paper's latency microbenchmark (Fig. 9) and its large-scale runs (64
GPU nodes on Piz Daint) need a network substrate that we do not have in a
single-process reproduction.  This package provides two substitutes:

* a **LogGP cost model** (:mod:`repro.simtime.network`,
  :mod:`repro.simtime.collective_model`) for point-to-point messages and
  for the synchronous collectives — priced by walking the plans
  :mod:`repro.collectives.sync` runs — plus the binomial broadcast and
  :func:`partial_round`, the one model of a solo / majority / quorum
  round (initiator arrival + activation + reduction; ranks inside the
  activation window are active), which Fig. 9 prices;
* a **training-time projector** (:mod:`repro.simtime.training_model`) that
  converts per-rank per-step compute times into end-to-end training time
  under synchronous SGD, solo, majority and quorum eager-SGD by replaying
  one :func:`partial_round` per eager step, with the exchange cost the
  caller prices and the majority initiators the run recorded — this is
  what produces the paper-scale time axes of Figures 10-13.
"""

from repro.simtime.network import LogGPParams, DEFAULT_NETWORK, message_time
from repro.simtime.collective_model import (
    allreduce_time,
    broadcast_time,
    activation_time,
    partial_round,
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
    "partial_round",
    "synchronous_allreduce_latencies",
    "CollectiveLatencyResult",
    "linear_skew",
    "StepTimeline",
    "project_training_time",
    "TrainingProjection",
]
