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
from repro.collectives.sync import allreduce
from repro.data.loader import Dataset, ShardedLoader
from repro.nn.module import Module
from repro.nn.optim import Adam, MomentumSGD, Optimizer, SGD
from repro.obs import recorder as _obs
from repro.simtime.collective_model import allreduce_time
from repro.simtime.network import DEFAULT_NETWORK
from repro.simtime.training_model import StepTimeline, project_training_time
from repro.training.config import TrainingConfig
from repro.training.distributed_sgd import DistributedSGD
from repro.training.evaluation import distributed_evaluate
from repro.training.exchange import build_exchange
from repro.training.metrics import EpochRecord, RankSummary, TrainingResult
from repro.training.model_sync import model_hash, synchronize_model
from repro.tuning.autotune import resolve_auto_fusion

ModelFactory = Callable[[], Module]
LossFn = Callable[[np.ndarray, np.ndarray], Tuple[float, np.ndarray]]

#: Gradient bytes per parameter the timing projection prices: the paper's
#: models communicate fp32 gradients, i.e. 4 bytes per parameter.
GRADIENT_BYTES_PER_PARAMETER = 4


@dataclass
class _RankOutput:
    """Raw data returned by each rank thread."""

    rank: int
    epoch_records: List[EpochRecord]
    step_durations: List[float]
    #: Initiator of every step's partial round (-1: synchronous).
    initiators: List[int]
    max_staleness: int
    mean_staleness: float
    inclusion_rate: float
    mean_num_active: float
    min_num_active: int
    final_model_hash: str


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
) -> _RankOutput:
    config.validate()
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
        overwrite_recvbuff=config.overwrite_recvbuff,
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

    return _RankOutput(
        rank=rank,
        epoch_records=epoch_records,
        step_durations=step_durations,
        initiators=initiators,
        max_staleness=sgd.staleness.max_staleness,
        mean_staleness=sgd.staleness.mean_staleness,
        inclusion_rate=sgd.staleness.inclusion_rate,
        mean_num_active=sgd.quorum.mean_quorum,
        min_num_active=sgd.quorum.min_quorum,
        final_model_hash=model_hash(model),
    )


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
    probe_model = model_factory()
    num_parameters = probe_model.num_parameters()
    # Resolve the compression codec once, before the world spawns: the
    # spec is validated here (fail fast, not inside P ranks), the "auto"
    # fusion knobs below are tuned under its cost model, and the timing
    # projection scales the wire bytes it models.  Each rank builds its
    # own codec instance (error-feedback residuals are per-rank state).
    from repro.compression import resolve_codec

    codec = resolve_codec(config.compression)
    # Resolve "auto" fusion knobs once, before the world spawns: every
    # rank must run the same concrete plan, and the calibrated profile is
    # cached so repeat runs skip the measurement.
    config = resolve_auto_fusion(config, max(1, num_parameters))

    if config.world_size == 1:
        outputs = [
            _rank_main(
                _single_process_comm(),
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
        # Paper-scale wire bytes per step: reduce-closed codecs put the
        # codec's *absolute* encoded width on every hop (fp16 is 2 bytes
        # per parameter whether the dense substrate stores 4 or 8), so
        # the projection uses that width, capped at the uncompressed
        # per-parameter bytes.  Non-reduce-closed codecs keep the
        # partial collectives' background wire dense (see
        # PartialExchange), so their projection stays dense too.
        projected_bytes = num_parameters * GRADIENT_BYTES_PER_PARAMETER
        if codec is not None and codec.reduce_closed:
            projected_bytes = max(1, int(
                num_parameters
                * min(codec.wire_bytes_per_element, GRADIENT_BYTES_PER_PARAMETER)
            ))
        projection = project_training_time(
            StepTimeline(durations),
            mode=config.mode,
            exchange_cost=allreduce_time(
                projected_bytes, config.world_size, config.allreduce_algorithm,
                DEFAULT_NETWORK,
            ),
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

    summaries = [
        RankSummary(
            rank=out.rank,
            max_staleness=out.max_staleness,
            mean_staleness=out.mean_staleness,
            inclusion_rate=out.inclusion_rate,
            mean_num_active=out.mean_num_active,
            min_num_active=out.min_num_active,
            final_model_hash=out.final_model_hash,
        )
        for out in outputs
    ]
    return TrainingResult(
        mode=config.mode,
        description=config.describe(),
        epochs=records,
        step_durations=durations,
        projection=projection,
        rank_summaries=summaries,
        wall_time=wall_time,
    )


def _recorded_initiators(outputs: List[_RankOutput]) -> List[int]:
    """The majority initiators of every step, which all ranks drew from
    one seeded stream: a difference is a broken consensus, and raises."""
    first = outputs[0].initiators
    for out in outputs[1:]:
        if out.initiators != first:
            step = next(t for t, (a, b) in enumerate(zip(first, out.initiators)) if a != b)
            raise RuntimeError(
                f"ranks 0 and {out.rank} recorded different majority initiators "
                f"at step {step}: {first[step]} vs {out.initiators[step]}"
            )
    return first


def _single_process_comm() -> Communicator:
    """A world-of-one communicator for single-process baselines."""
    from repro.comm.router import Router

    return Communicator(Router(1), 0)
