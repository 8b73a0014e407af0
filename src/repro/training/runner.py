"""SPMD training runner over a pluggable communication backend.

:func:`train_distributed` is the user-facing entry point of the training
side of the library: it takes a model factory, a dataset, a loss and a
:class:`~repro.training.config.TrainingConfig`, spawns one rank per
thread or OS process (``config.comm_backend``, see
:mod:`repro.comm.backend`), runs the configured SGD variant and returns a
:class:`~repro.training.metrics.TrainingResult` containing per-epoch
metrics, the per-rank workload trace and a paper-scale timing projection.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.comm.backend import launch
from repro.comm.communicator import Communicator
from repro.comm.router import Router
from repro.collectives.sync import allreduce
from repro.compression import resolve_codec
from repro.data.loader import Dataset, ShardedLoader
from repro.nn.module import Module
from repro.nn.optim import Adam, MomentumSGD, Optimizer, SGD
from repro.obs import recorder as _obs, tracing
from repro.simtime.network import DEFAULT_NETWORK
from repro.simtime.training_model import StepTimeline, project_training_time
from repro.training.config import TrainingConfig
from repro.training.distributed_sgd import DistributedSGD
from repro.training.evaluation import distributed_evaluate
from repro.training.exchange import build_exchange
from repro.training.metrics import EpochRecord, RankSummary, TrainingResult
from repro.training.model_sync import model_hash, synchronize_model
from repro.tuning.autotune import predict_exchange_time, resolve_auto_fusion

ModelFactory = Callable[[], Module]
LossFn = Callable[[np.ndarray, np.ndarray], Tuple[float, np.ndarray]]

#: Gradient bytes per parameter the timing projection prices: the paper's
#: models communicate fp32 gradients, i.e. 4 bytes per parameter.
GRADIENT_BYTES_PER_PARAMETER = 4


@dataclass
class _RankOutput:
    """Raw data returned by each rank thread."""

    summary: RankSummary
    epoch_records: List[EpochRecord]
    step_durations: List[float]
    #: Initiator of every step's partial round (-1: synchronous).
    initiators: List[int]


def _build_optimizer(model: Module, config: TrainingConfig) -> Optimizer:
    if config.optimizer == "sgd":
        return SGD(model, config.learning_rate, weight_decay=config.weight_decay)
    if config.optimizer == "momentum":
        return MomentumSGD(
            model,
            config.learning_rate,
            momentum=config.momentum,
            weight_decay=config.weight_decay,
        )
    return Adam(model, config.learning_rate, weight_decay=config.weight_decay)


def _nan_to(value: float, fallback: float = 0.0) -> float:
    return fallback if value is None or math.isnan(value) else float(value)


def _rank_main(
    comm: Communicator,
    model_factory: ModelFactory,
    train_dataset: Dataset,
    eval_dataset: Optional[Dataset],
    loss_fn: LossFn,
    config: TrainingConfig,
    classification: bool,
    on_step: Optional[Callable[[int, Module], None]] = None,
) -> _RankOutput:
    """One rank's run of ``config`` on ``comm`` (a launched world, or a serving
    world's trainers' view); ``on_step(steps, model)`` follows every step."""
    config.validate()
    _obs.instant("run", "train", mode=config.mode, sharding=config.sharding)
    rank = comm.rank
    model = model_factory()
    optimizer = _build_optimizer(model, config)
    exchange = build_exchange(
        comm,
        max(1, model.num_parameters()),
        config.mode,
        sync_style=config.sync_style,
        algorithm=config.allreduce_algorithm,
        quorum=config.quorum,
        seed=config.seed + 777,
        fusion_threshold_bytes=config.fusion_threshold_bytes,
        pipeline_chunks=config.pipeline_chunks,
        compression=config.compression,
        sharding=config.sharding,
    )
    sgd = DistributedSGD(
        model,
        optimizer,
        exchange,
        loss_fn,
        world_size=config.world_size,
        classification=classification,
    )
    loader = ShardedLoader(
        train_dataset,
        config.global_batch_size,
        rank=rank,
        world_size=config.world_size,
        seed=config.seed,
        bucket_by_length=config.bucket_by_length,
    )

    epoch_records: List[EpochRecord] = []
    step_durations: List[float] = []
    initiators: List[int] = []
    global_step = 0

    try:
        for epoch in range(config.epochs):
            epoch_start = time.perf_counter()
            losses: List[float] = []
            top1s: List[float] = []
            top5s: List[float] = []
            naps: List[float] = []
            for batch in loader.epoch_batches(epoch):
                delay = config.delay_injector.delay_for_rank(
                    global_step, rank, config.world_size
                )
                sim_compute: Optional[float] = None
                if config.cost_model is not None:
                    sim_compute = config.cost_model.batch_cost(batch)
                sleep = 0.0
                if config.time_scale > 0:
                    sleep = config.time_scale * ((sim_compute or 0.0) + delay)
                stats = sgd.step(batch, pre_exchange_sleep=sleep)
                local_work = sim_compute if sim_compute is not None else stats.compute_time
                step_durations.append(local_work + delay)
                initiators.append(stats.initiator)
                losses.append(stats.loss)
                top1s.append(_nan_to(stats.top1))
                top5s.append(_nan_to(stats.top5))
                naps.append(stats.num_active)
                global_step += 1
                if on_step is not None:
                    on_step(sgd.steps, model)

            # ---- epoch-level metrics, identical on every rank ----
            local_summary = np.array(
                [float(np.mean(losses)), float(np.mean(top1s)), float(np.mean(top5s))]
            )
            if comm.size > 1:
                train_summary = allreduce(
                    comm, local_summary, algorithm=config.allreduce_algorithm, average=True
                )
            else:
                train_summary = local_summary
            if eval_dataset is not None:
                eval_metrics = distributed_evaluate(
                    comm,
                    model,
                    eval_dataset,
                    loss_fn,
                    batch_size=config.eval_batch_size,
                    classification=classification,
                    algorithm=config.allreduce_algorithm,
                )
            else:
                eval_metrics = {"loss": float("nan"), "top1": float("nan"), "top5": float("nan")}

            # ---- periodic model synchronisation (eager-SGD, Section 5) ----
            if (
                config.is_eager
                and config.model_sync_period_epochs
                and (epoch + 1) % config.model_sync_period_epochs == 0
            ):
                synchronize_model(comm, model, algorithm=config.allreduce_algorithm)

            epoch_records.append(
                EpochRecord(
                    epoch=epoch,
                    train_loss=float(train_summary[0]),
                    train_top1=float(train_summary[1]),
                    train_top5=float(train_summary[2]),
                    eval_loss=_nan_to(eval_metrics["loss"], float("nan")),
                    eval_top1=_nan_to(eval_metrics["top1"]),
                    eval_top5=_nan_to(eval_metrics["top5"]),
                    mean_num_active=float(np.mean(naps)) if naps else 0.0,
                    inclusion_rate=sgd.staleness.inclusion_rate,
                    wall_time=time.perf_counter() - epoch_start,
                )
            )
    finally:
        sgd.close()
    _obs.counter("optimizer-state-bytes", optimizer.state_bytes())
    final_model_hash = model_hash(model)
    _obs.instant("final-model", "train", hash=final_model_hash)

    summary = RankSummary(
        rank=rank,
        max_staleness=sgd.staleness.max_staleness,
        mean_staleness=sgd.staleness.mean_staleness,
        inclusion_rate=sgd.staleness.inclusion_rate,
        mean_num_active=sgd.quorum.mean_quorum,
        min_num_active=sgd.quorum.min_quorum,
        final_model_hash=final_model_hash,
    )
    return _RankOutput(summary, epoch_records, step_durations, initiators)


def train_distributed(
    model_factory: ModelFactory,
    train_dataset: Dataset,
    loss_fn: LossFn,
    config: TrainingConfig,
    eval_dataset: Optional[Dataset] = None,
    classification: bool = True,
    run_timeout: float = 1800.0,
) -> TrainingResult:
    """Run one distributed training job and return its results.

    Parameters
    ----------
    model_factory:
        Zero-argument callable building the model.  It must be
        deterministic (fixed seed) so that every rank starts from the same
        replica, as data-parallel SGD requires.
    train_dataset, eval_dataset:
        Shared datasets; the runner shards the training set across ranks.
    loss_fn:
        ``(outputs, targets) -> (loss, grad)``.
    config:
        The training configuration (mode, imbalance model, ...).
    classification:
        Whether top-1/top-5 accuracy should be computed.
    run_timeout:
        Wall-clock limit for the whole run (converted into a hard error
        rather than a hang if something deadlocks).
    """
    config.validate()
    start = time.perf_counter()
    # Count on a temporary replica that dies here: held across ``launch``
    # it would be one more model in every forked rank and in a thread world.
    num_parameters = model_factory().num_parameters()
    # Resolve "auto" fusion knobs once, before the world spawns: every
    # rank must run the same concrete plan, and the calibrated profile is
    # cached so repeat runs skip the measurement.
    config = resolve_auto_fusion(config, max(1, num_parameters))

    if config.world_size == 1:
        outputs = [
            tracing.run_in_process(
                _rank_main,
                Communicator(Router(1), 0),
                model_factory,
                train_dataset,
                eval_dataset,
                loss_fn,
                config,
                classification,
            )
        ]
    else:
        outputs = launch(
            _rank_main,
            config.world_size,
            model_factory,
            train_dataset,
            eval_dataset,
            loss_fn,
            config,
            classification,
            backend=config.comm_backend,
            timeout=run_timeout,
        )
    wall_time = time.perf_counter() - start

    # ---- assemble the per-rank traces into a (steps, ranks) matrix ----
    durations = np.stack([np.asarray(out.step_durations) for out in outputs], axis=1)
    steps_per_epoch = durations.shape[0] // config.epochs if config.epochs else 0

    projection = None
    if durations.size:
        sync_period_steps = None
        if config.is_eager and config.model_sync_period_epochs:
            sync_period_steps = config.model_sync_period_epochs * steps_per_epoch
        projection = project_training_time(
            StepTimeline(durations),
            mode=config.mode,
            exchange_cost=_exchange_cost(config, num_parameters),
            initiators=_recorded_initiators(outputs) if config.mode == "majority" else None,
            quorum=config.quorum,
            model_sync_period=sync_period_steps,
        )

    # ---- fill the projected epoch-boundary times into the records ----
    records = outputs[0].epoch_records
    if projection is not None and steps_per_epoch > 0:
        for record in records:
            end_step = min(
                (record.epoch + 1) * steps_per_epoch - 1,
                len(projection.step_completion_times) - 1,
            )
            record.sim_time = float(projection.step_completion_times[end_step])

    return TrainingResult(
        mode=config.mode,
        description=config.describe(),
        epochs=records,
        step_durations=durations,
        projection=projection,
        rank_summaries=[out.summary for out in outputs],
        wall_time=wall_time,
    )


def _exchange_cost(config: TrainingConfig, num_parameters: int) -> float:
    """Seconds one of the run's exchanges takes once its ranks are present:
    the walk of the schedule it ran (its mode, algorithm, sharding, codec,
    buckets and chunks, on the host layout its backend launches) at
    :data:`GRADIENT_BYTES_PER_PARAMETER` on ``DEFAULT_NETWORK``."""
    codec = resolve_codec(config.compression)
    return predict_exchange_time(
        DEFAULT_NETWORK,
        config.world_size,
        max(1, num_parameters) * GRADIENT_BYTES_PER_PARAMETER,
        config.allreduce_algorithm,
        config.fusion_threshold_bytes,
        config.pipeline_chunks,
        None if codec is None else codec.cost_model(),
        config.host_layout(),
        sharding=config.sharding,
        mode=config.mode,
        bytes_per_element=GRADIENT_BYTES_PER_PARAMETER,
    )


def _recorded_initiators(outputs: List[_RankOutput]) -> List[int]:
    """The majority initiators of every step, which every rank (``outputs``
    is indexed by rank) drew from one seeded stream: a difference raises."""
    first = outputs[0].initiators
    for rank, out in enumerate(outputs[1:], 1):
        if out.initiators != first:
            step = next(t for t, (a, b) in enumerate(zip(first, out.initiators)) if a != b)
            raise RuntimeError(
                f"ranks 0 and {rank} recorded different majority initiators "
                f"at step {step}: {first[step]} vs {out.initiators[step]}"
            )
    return first
