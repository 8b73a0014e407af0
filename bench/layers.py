"""The traced layer run: one training step rebuilt from each layer's public calls.

``rank_main`` runs on every rank of the workload's own world (same size,
backend and message sizes as the end-to-end run).  It first replays the
runner's step loop out of public pieces, with a benchmark-side span around
every call into a layer, interleaved with the runner's own step, then times
the same sub-operations standalone on the same sizes.  Medians are over
rank 0's samples.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Dict, List

import numpy as np

from bench import stats
from bench.spans import CountingComm, SpanRecorder
from bench.workloads import GLOBAL_BATCH, Inputs, Workload, build_optimizer, training_config
from repro.collectives.partial import make_partial_allreduce
from repro.collectives.sharding import (
    ALLGATHER_FOR_REDUCE_SCATTER,
    allgather_flat,
    reduce_scatter,
)
from repro.collectives.sync import allreduce
from repro.comm.reduce_ops import get_op
from repro.data.loader import ShardedLoader
from repro.nn.metrics import topk_accuracy
from repro.nn.parameters import (
    assign_flat_gradients,
    assign_flat_parameters,
    flatten_gradients,
    flatten_parameters,
)
from repro.training.bucketing import GradientBucketer
from repro.training.distributed_sgd import DistributedSGD
from repro.training.evaluation import distributed_evaluate
from repro.training.exchange import build_exchange

#: Reduce-scatter family run for each allreduce algorithm (the mapping
#: ``build_exchange`` applies under ``sharding="zero1"``).
_SHARDED_ALGORITHM = {"recursive_doubling": "ring", "ring": "ring"}
#: Skew of the standalone partial-collective rounds: one rank of P is late.
_PARTIAL_SKEW_SECONDS = 0.005
_MIB = 1 << 20


def _ms(seconds: List[float]) -> float:
    return 1e3 * stats.median(seconds)


def timed(fn: Callable[[], object], repeats: int) -> List[float]:
    out = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        out.append(time.perf_counter() - start)
    return out


# ---------------------------------------------------------------------------
# the traced step loop
# ---------------------------------------------------------------------------
def _injected_sleep(config, batch, step: int, comm) -> float:
    """Seconds the runner sleeps before the exchange on this rank and step."""
    delay = config.delay_injector.delay_for_rank(step, comm.rank, comm.size)
    cost = config.cost_model.batch_cost(batch) if config.cost_model is not None else 0.0
    return config.time_scale * (cost + delay)


def _end_of_epoch(comm, config, model, inputs: Inputs, losses: List[float]) -> None:
    """What the runner does after an epoch's steps: train summary, then eval."""
    allreduce(
        comm, np.array([float(np.mean(losses)), 0.0, 0.0]),
        algorithm=config.allreduce_algorithm, average=True,
    )
    distributed_evaluate(
        comm, model, inputs.eval, inputs.loss_fn,
        batch_size=config.eval_batch_size, algorithm=config.allreduce_algorithm,
    )


def _traced_step(rec, step, comm, config, loss_fn, model, optimizer, exchange, batches):
    """``DistributedSGD.step`` out of public pieces, a span around each.

    A function of its own, as the runner's step is: what a step allocates
    (4 MB of flat gradient on ``bulk_*``) is released when it returns.
    """
    with rec.span("step", step=step):
        with rec.span("data.batch", step=step):
            batch = next(batches)
        with rec.span("nn.fwd_bwd", step=step):
            model.zero_grad()
            outputs = model.forward(batch.inputs)
            loss, grad = loss_fn(outputs, batch.targets)
            model.backward(grad)
        with rec.span("nn.accuracy", step=step):
            topk_accuracy(outputs, batch.targets, k=1)
            topk_accuracy(outputs, batch.targets, k=5)
        with rec.span("step.injected", step=step):
            sleep = _injected_sleep(config, batch, step, comm)
            if sleep > 0:
                time.sleep(sleep)
        with rec.span("nn.flatten", step=step):
            flat = flatten_gradients(model)
        with rec.span("exchange.call", step=step):
            if exchange.updates_parameters:
                result = exchange.exchange_update(flat, model, optimizer)
            else:
                result = exchange.exchange(flat)
        if not exchange.updates_parameters:
            with rec.span("nn.assign", step=step):
                assign_flat_gradients(model, result.gradient)
            with rec.span("nn.optim", step=step):
                optimizer.step()
    return loss, {
        "injected": sleep,
        "wait": result.wait_time,
        "collective": sum(result.bucket_waits),
        "included": bool(result.included),
        "active": result.num_active,
    }


def _traced_epochs(comm, workload: Workload, inputs: Inputs, epochs: int, rec: SpanRecorder):
    """Epoch 0 warms up; then traced and plain steps alternate.

    A traced step replays the runner's step out of public pieces with a
    span around each; a plain step calls ``DistributedSGD.step``, the code
    the runner itself runs, on the same model, optimizer and exchange.
    Alternating them step by step inside one world is what lets
    ``trace.overhead_share`` compare the two without the host's drift.
    """
    config = training_config(workload, inputs, epochs)
    model = inputs.model_factory()
    optimizer = build_optimizer(model, config)
    counting = CountingComm(comm)
    exchange = build_exchange(
        counting,
        model.num_parameters(),
        config.mode,
        sync_style=config.sync_style,
        algorithm=config.allreduce_algorithm,
        seed=config.seed + 777,
        fusion_threshold_bytes=config.fusion_threshold_bytes,
        pipeline_chunks=config.pipeline_chunks,
        sharding=config.sharding,
    )
    sgd = DistributedSGD(model, optimizer, exchange, inputs.loss_fn, world_size=comm.size)
    loader = ShardedLoader(
        inputs.train, GLOBAL_BATCH, rank=comm.rank, world_size=comm.size, seed=config.seed
    )
    samples = {"injected": [], "wait": [], "collective": [], "included": [], "active": [],
               "traced_steps": set(), "plain_steps": [], "plain_own": []}
    counted_from = None
    step = 0
    # The same draws on every rank; a fixed alternation would alias with
    # anything the program does every other step.
    coin = random.Random(config.seed)
    try:
        for epoch in range(epochs):
            if epoch == 1:  # epoch 0 warms up and is not measured
                counted_from = counting.snapshot()
            losses = []
            with rec.span("epoch", step=epoch):
                batches = loader.epoch_batches(epoch)
                for _ in range(loader.steps_per_epoch()):
                    if epoch > 0 and coin.random() < 0.5:
                        start = time.perf_counter()
                        batch = next(batches)
                        sleep = _injected_sleep(config, batch, step, comm)
                        done = sgd.step(batch, pre_exchange_sleep=sleep)
                        duration = time.perf_counter() - start
                        loss = done.loss
                        samples["plain_steps"].append(duration)
                        samples["plain_own"].append(duration - sleep - done.exchange_wait)
                    else:
                        loss, observed = _traced_step(
                            rec, step, comm, config, inputs.loss_fn, model, optimizer,
                            exchange, batches,
                        )
                        if epoch > 0:
                            samples["traced_steps"].add(step)
                            for key, value in observed.items():
                                samples[key].append(value)
                    losses.append(loss)
                    step += 1
                with rec.span("runner.eval", step=epoch):
                    _end_of_epoch(comm, config, model, inputs, losses)
        counted = counting.snapshot()
        partials = getattr(exchange, "partials", None)
        if partials:
            samples["partial_rounds"] = partials[0].rounds_completed / step
    finally:
        sgd.close()
    measured = step - loader.steps_per_epoch()
    samples["sends_per_step"] = (counted["sends"] - counted_from["sends"]) / measured
    samples["bytes_per_step"] = (counted["bytes"] - counted_from["bytes"]) / measured
    samples["optim_state_mb"] = optimizer.state_bytes() / 1e6
    return samples, model, config


# ---------------------------------------------------------------------------
# standalone sub-operations, same world and sizes
# ---------------------------------------------------------------------------
def _ping_pong(comm, nbytes: int, repeats: int, tag: int) -> List[float]:
    """Round-trip times between ranks 0 and 1 (empty on every other rank)."""
    payload = np.zeros(nbytes // 8)
    rtts: List[float] = []
    if comm.rank == 0:
        for _ in range(repeats):
            start = time.perf_counter()
            comm.send(payload, 1, tag=tag)
            comm.recv(source=1, tag=tag)
            rtts.append(time.perf_counter() - start)
    elif comm.rank == 1:
        for _ in range(repeats):
            comm.recv(source=0, tag=tag)
            comm.send(payload, 0, tag=tag)
    comm.barrier()
    return rtts


def _partial_rounds(comm, num_elements: int, mode: str, chunks: int, rounds: int, seed: int):
    """``reduce()`` latency on a rank that is on time while one of P is late."""
    contribution = np.ones(num_elements)
    waits: List[float] = []
    active: List[int] = []
    with make_partial_allreduce(
        comm, (num_elements,), mode, average=True, seed=seed, n_chunks=chunks,
        channel_suffix=f".bench-{mode}",
    ) as partial:
        for index in range(rounds):
            late = index % comm.size
            comm.barrier()
            if comm.rank == late:
                time.sleep(_PARTIAL_SKEW_SECONDS)
            start = time.perf_counter()
            result = partial.reduce(contribution)
            if comm.rank != late:
                waits.append(time.perf_counter() - start)
            active.append(result.num_active)
        comm.barrier()
        completed = partial.rounds_completed
    return waits, float(np.mean(active)) / comm.size, completed / rounds


def _standalone(comm, workload: Workload, model, config, repeats: int) -> Dict[str, float]:
    out: Dict[str, float] = {}
    size = comm.size
    n = model.num_parameters()
    chunks = workload.pipeline_chunks
    if workload.fusion_threshold_bytes is None:
        bucketer = GradientBucketer.fixed_count(n, 1)
    else:
        bucketer = GradientBucketer.from_flat(n, workload.fusion_threshold_bytes)
    flat = np.ones(n)

    # comm: point to point, and the reduction kernel every collective combines with
    comm.barrier()
    small = _ping_pong(comm, 64, 20 * repeats, tag=7001)
    bulk = _ping_pong(comm, _MIB, repeats, tag=7002)
    if comm.rank == 0:  # half a round trip is one message's latency
        out["comm.p2p_small_us"] = 1e6 * stats.median(small) / 2
        out["comm.p2p_bulk_mbps"] = _MIB / 1e6 / (stats.median(bulk) / 2)
    acc, other, add = np.ones(_MIB // 8), np.ones(_MIB // 8), get_op("sum")
    combine = stats.median(timed(lambda: add.combine_into(acc, other), 10 * repeats))
    out["comm.combine_gbps"] = _MIB / 1e9 / combine

    # training.bucketing
    buffers = bucketer.pack(flat)
    out["bucketing.pack_ms"] = _ms(timed(lambda: bucketer.pack(flat, out=buffers), 2 * repeats))
    out["bucketing.unpack_ms"] = _ms(timed(lambda: bucketer.unpack(buffers), 2 * repeats))
    out["bucketing.buckets"] = float(bucketer.num_buckets)

    # collectives: one call per fusion bucket, as the exchange issues them
    sharded = _SHARDED_ALGORITHM[workload.algorithm]

    def all_buckets(call) -> Callable[[], None]:
        def run() -> None:
            for buffer in buffers:
                call(buffer)
        return run

    comm.barrier()
    out["collectives.allreduce_ms"] = _ms(timed(all_buckets(lambda b: allreduce(
        comm, b, algorithm=workload.algorithm, average=True, n_chunks=chunks, copy=False,
    )), repeats))
    out["collectives.reduce_scatter_ms"] = _ms(timed(all_buckets(lambda b: reduce_scatter(
        comm, b, average=True, algorithm=sharded, n_chunks=chunks, copy=False,
    )), repeats))
    out["collectives.allgather_ms"] = _ms(timed(all_buckets(lambda b: allgather_flat(
        comm, b, algorithm=ALLGATHER_FOR_REDUCE_SCATTER[sharded], n_chunks=chunks,
    )), repeats))
    rounds = max(2 * size, repeats)
    waits, _fresh, _rounds = _partial_rounds(comm, n, "solo", chunks, rounds, config.seed + 777)
    out["collectives.partial_solo_ms"] = _ms(waits)
    waits, fresh, completed = _partial_rounds(comm, n, "majority", chunks, rounds, config.seed + 777)
    out["collectives.partial_majority_ms"] = _ms(waits)
    # Overridden by the step's own numbers when the workload's exchange is partial.
    out["collectives.fresh_share"] = fresh
    out["collectives.partial_rounds"] = completed

    # nn on the zero1 path: the exchange owns the update, so time its pieces here
    if workload.sharding == "zero1":
        optimizer = build_optimizer(model, config)
        windows = bucketer.shard_windows(size, sharded)
        params = bucketer.pack(flatten_parameters(model))
        views, grads, keys = [], [], []
        for bucket, window in zip(bucketer.buckets, windows):
            lo, hi = window[comm.rank]
            views.append(params[bucket.index][lo:hi])
            grads.append(buffers[bucket.index][lo:hi])
            keys.append(f"{bucket.start + lo}:{bucket.start + hi}")
        out["nn.optim_ms"] = _ms(timed(
            lambda: optimizer.step_windows(views, grads, keys), 2 * repeats
        ))
        out["nn.assign_ms"] = _ms(timed(
            lambda: assign_flat_parameters(model, bucketer.unpack(params)), 2 * repeats
        ))
    comm.barrier()
    return out


# ---------------------------------------------------------------------------
# per-rank entry point
# ---------------------------------------------------------------------------
def rank_main(comm, workload: Workload, inputs: Inputs, epochs: int, repeats: int) -> dict:
    """Traced and plain steps, then standalone timings; rank 0 reduces them."""
    rec = SpanRecorder(comm.rank)
    samples, model, config = _traced_epochs(comm, workload, inputs, epochs, rec)
    standalone = _standalone(comm, workload, model, config, repeats)
    if comm.rank != 0:
        return {"spans": rec.spans, "metrics": None}

    steps = samples["traced_steps"]
    m = dict(standalone)
    durations = rec.durations("step", steps)
    m["step.ms_p50"] = _ms(durations)
    # About 360 traced steps: a p99 needs 1000 samples, more than a run holds.
    m["step.ms_p95"] = 1e3 * stats.percentile(durations, 95.0)
    m["step.injected_ms"] = 1e3 * float(np.mean(samples["injected"]))
    self_times = stats.span_self_times(rec.spans)
    step_spans = [s for s in rec.spans if s["name"] == "step" and s["step"] in steps]
    m["step.unattributed_share"] = sum(self_times[s["id"]] for s in step_spans) / sum(durations)
    m["runner.eval_ms"] = _ms(rec.durations("runner.eval", range(1, epochs)))
    m["data.batch_ms"] = _ms(rec.durations("data.batch", steps))
    m["nn.fwd_bwd_ms"] = _ms(rec.durations("nn.fwd_bwd", steps))
    m["nn.flatten_ms"] = _ms(rec.durations("nn.flatten", steps))
    if workload.sharding != "zero1":
        m["nn.assign_ms"] = _ms(rec.durations("nn.assign", steps))
        m["nn.optim_ms"] = _ms(rec.durations("nn.optim", steps))
    m["nn.optim_state_mb"] = samples["optim_state_mb"]

    calls = rec.durations("exchange.call", steps)
    m["exchange.call_ms"] = _ms(calls)
    m["exchange.wait_ms"] = _ms(samples["wait"])
    # Orchestration left in a call once packing, the collectives (as they ran
    # in the step, waiting included), unpacking and, under zero1, the
    # windowed optimizer are taken out.
    fixed = m["bucketing.pack_ms"] + m["bucketing.unpack_ms"]
    if workload.sharding == "zero1":
        fixed += m["nn.optim_ms"]
    m["exchange.self_ms"] = stats.median(
        [1e3 * (call - coll) - fixed for call, coll in zip(calls, samples["collective"])]
    )
    m["exchange.included_share"] = float(np.mean(samples["included"]))
    m["comm.sends_per_step"] = samples["sends_per_step"]
    m["comm.wire_bytes_per_step"] = samples["bytes_per_step"]
    if not workload.synchronous:
        m["collectives.fresh_share"] = float(np.mean(samples["active"])) / comm.size
        m["collectives.partial_rounds"] = samples["partial_rounds"]
    # What tracing adds to a rank's own work in a step, over the untraced
    # step.  Sleep and exchange wait are left out of the difference: under
    # majority the median step sits between two modes (p45 11 ms, p55 14.5
    # ms) and the difference of two such medians read -13% to +13%.
    own = [d - sleep - wait for d, sleep, wait in zip(durations, samples["injected"], samples["wait"])]
    m["trace.overhead_share"] = (
        stats.median(own) - stats.median(samples["plain_own"])
    ) / stats.median(samples["plain_steps"])
    return {
        "spans": rec.spans,
        "metrics": m,
        "samples": {"traced_steps": len(durations), "plain_steps": len(samples["plain_steps"])},
    }
