"""Online inference tier on the comm fabric.

The serving subsystem turns the reproduction's comm fabric into a small
model server: a **frontend** rank batches concurrent inference requests
under a latency SLO (dispatch at ``max_batch_size`` requests or
``max_queue_delay_s`` seconds, whichever first; admission control with
backpressure), routes each batch to the least-loaded **replica** rank,
and completes per-request futures with results tagged by the serving
model version.  A co-scheduled **training world** — the runner's rank
loop (:func:`repro.training.runner._rank_main`) of the config's
:class:`~repro.training.config.TrainingConfig`, synch-SGD or eager-SGD,
over a :class:`~repro.comm.subworld.SubsetCommunicator` on the same
fabric — publishes weight versions that the replicas hot-swap in
between batches (double-buffered, monotonic versions), with a
bounded-staleness knob that makes replicas refuse to serve when more
than ``K`` announced versions behind.

Entry points: :func:`~repro.serving.server.serve` /
``python -m repro serve`` for batch runs with the built-in workload, and
:class:`~repro.serving.server.InferenceServer` for interactive use on
the thread backend.  The request/response and hot-swap schedules are
statically verified alongside the collectives by
``python -m repro verify`` (see
:func:`repro.analysis.schedule_verifier.serving_round_trip`).
"""

from repro.serving.batching import (
    BackpressureError,
    DynamicBatcher,
    PendingRequest,
    RequestFuture,
    StaleReplicaError,
)
from repro.serving.config import ServingConfig
from repro.serving.frontend import Frontend
from repro.serving.replica import run_replica
from repro.serving.server import (
    InferenceServer,
    ServingReport,
    Workload,
    serve,
)
from repro.serving.versioning import VersionedWeights, WeightStore

__all__ = [
    "BackpressureError",
    "DynamicBatcher",
    "PendingRequest",
    "RequestFuture",
    "StaleReplicaError",
    "ServingConfig",
    "Frontend",
    "run_replica",
    "InferenceServer",
    "ServingReport",
    "Workload",
    "serve",
    "VersionedWeights",
    "WeightStore",
]
