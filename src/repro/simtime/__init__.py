"""Analytic cost models.

The paper's latency microbenchmark (Fig. 9) and its large-scale runs (64
GPU nodes on Piz Daint) need a network substrate that we do not have in a
single-process reproduction.  This package provides two substitutes:

* a **LogGP cost model** (:mod:`repro.simtime.network`,
  :mod:`repro.simtime.collective_model`) for point-to-point messages and
  for the synchronous collectives — priced by walking the plans
  :mod:`repro.collectives.sync` runs, the partial activation's plan
  among them — and :func:`partial_round`, the one model of a solo /
  majority / quorum round (initiator arrival + activation + reduction;
  ranks inside the activation window are active), which Fig. 9 prices;
* a **training-time projector** (:mod:`repro.simtime.training_model`) that
  converts per-rank per-step compute times into end-to-end training time
  under synchronous SGD, solo, majority and quorum eager-SGD by replaying
  one :func:`partial_round` per eager step, with the exchange cost the
  caller prices and the majority initiators the run recorded — this is
  what produces the paper-scale time axes of Figures 10-13.

What an exchange costs is one walk of the schedule it runs,
:func:`repro.tuning.autotune.predict_exchange_time` over
:func:`repro.training.exchange.exchange_schedule`: the runner's
projection, Fig. 9's sync / solo / majority rows and the tuner all
price it, so a codec's route (its ring, its payload allgather, the
partial collective's recursive doubling at its width) is decided in one
place.  :func:`allreduce_time` is one dense collective.
"""

from repro.simtime.network import LogGPParams, DEFAULT_NETWORK
from repro.simtime.collective_model import (
    allreduce_time,
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
    "allreduce_time",
    "activation_time",
    "partial_round",
    "synchronous_allreduce_latencies",
    "CollectiveLatencyResult",
    "linear_skew",
    "StepTimeline",
    "project_training_time",
    "TrainingProjection",
]
