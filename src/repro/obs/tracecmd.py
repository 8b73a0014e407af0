"""``python -m repro trace``: run a small traced training job, export Perfetto JSON.

The command launches the hyperplane-regression workload (Fig. 10's data at
test scale, fitted by a two-layer MLP so the trace carries per-layer
``layer-fwd`` / ``layer-bwd`` rows) on any registered comm backend with a
:class:`~repro.obs.recorder.FlightRecorder` bound on every rank, then:

1. ships each rank's event buffer to rank 0 over the ``telemetry`` tag
   region (:func:`repro.obs.collect.gather_traces`), aligning the ranks'
   monotonic clocks with ping-pong midpoint offset estimation;
2. merges the per-rank metric registries
   (:func:`repro.obs.metrics.merge_snapshots`);
3. folds per-step timings into the straggler-attribution report
   (:func:`repro.obs.metrics.straggler_attribution`);
4. writes one Chrome trace-event JSON file loadable in Perfetto
   (https://ui.perfetto.dev) or ``chrome://tracing``, with one process
   track per rank and send→recv flow arrows between them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.obs import recorder as _obs
from repro.obs.collect import gather_traces
from repro.obs.metrics import MetricsRegistry, merge_snapshots, straggler_attribution
from repro.obs.recorder import DEFAULT_CAPACITY, FlightRecorder
from repro.obs.trace import to_chrome_trace, write_chrome_trace


@dataclass
class TraceConfig:
    """Knobs of the traced demonstration run."""

    world_size: int = 4
    steps: int = 8
    mode: str = "sync"  # "sync", "solo", "majority" or "quorum"
    sharding: str = "none"  # "none" or "zero1" (sync mode only)
    fusion_buckets: int = 2
    input_dim: int = 64
    global_batch_size: int = 32
    learning_rate: float = 0.05
    seed: int = 0
    capacity: int = DEFAULT_CAPACITY
    sync_rounds: int = 4

    def validate(self) -> None:
        if self.world_size < 1:
            raise ValueError(f"world_size must be >= 1, got {self.world_size}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {self.capacity}")
        if self.sharding not in ("none", "zero1"):
            raise ValueError(
                f"sharding must be 'none' or 'zero1', got {self.sharding!r}"
            )
        if self.sharding == "zero1" and self.mode != "sync":
            raise ValueError(
                f"sharding='zero1' requires mode='sync', got {self.mode!r}"
            )


def _trace_rank_main(comm, config: TraceConfig) -> Optional[Dict[str, Any]]:
    """SPMD entry: train a few traced steps, collect everything on rank 0."""
    from repro.data.hyperplane import HyperplaneDataset
    from repro.data.loader import ShardedLoader
    from repro.nn.losses import MSELoss
    from repro.nn.models.mlp import MLPClassifier
    from repro.nn.optim import MomentumSGD
    from repro.training.distributed_sgd import DistributedSGD
    from repro.training.exchange import build_exchange

    rank = comm.rank
    recorder = FlightRecorder(rank=rank, capacity=config.capacity)
    _obs.bind(recorder)
    registry = MetricsRegistry()
    step_timings: List[Dict[str, float]] = []
    try:
        model = MLPClassifier(
            config.input_dim, hidden_dims=(config.input_dim,), num_classes=1,
            seed=config.seed,
        )
        exchange = build_exchange(
            comm,
            max(1, model.num_parameters()),
            config.mode,
            fusion_buckets=config.fusion_buckets,
            seed=config.seed + 777,
            sharding=config.sharding,
        )
        # Momentum (not plain SGD) so the optimizer actually carries
        # per-parameter state and the state-bytes gauge has a story to
        # tell: replicated under sharding="none", cut P-fold under zero1.
        optimizer = MomentumSGD(model, config.learning_rate)
        sgd = DistributedSGD(
            model,
            optimizer,
            exchange,
            MSELoss(),
            world_size=comm.size,
            classification=False,
        )
        # The loader shards the global batch evenly, so round it to a
        # multiple of the world size (at least one example per rank).
        global_batch = max(1, config.global_batch_size // comm.size) * comm.size
        dataset = HyperplaneDataset(
            num_examples=max(global_batch * config.steps, 64),
            input_dim=config.input_dim,
            noise_std=0.5,
            seed=config.seed,
        )
        loader = ShardedLoader(
            dataset,
            global_batch,
            rank=rank,
            world_size=comm.size,
            seed=config.seed,
        )
        steps_hist = registry.histogram("step-loss")
        compute_hist = registry.histogram("step-compute-s")
        wait_hist = registry.histogram("step-exchange-wait-s")
        done = 0
        epoch = 0
        while done < config.steps:
            for batch in loader.epoch_batches(epoch):
                stats = sgd.step(batch)
                registry.counter("steps").inc()
                steps_hist.push(abs(stats.loss))
                compute_hist.push(stats.compute_time)
                wait_hist.push(stats.exchange_wait)
                registry.gauge("num-active").set(stats.num_active)
                wait = (
                    sum(stats.bucket_waits)
                    if stats.bucket_waits
                    else stats.exchange_wait
                )
                step_timings.append(
                    {
                        "compute_s": stats.compute_time,
                        "wait_s": wait,
                        "exchange_s": stats.exchange_wait,
                    }
                )
                done += 1
                if done >= config.steps:
                    break
            epoch += 1
        registry.gauge("repro_optimizer_state_bytes").set(optimizer.state_bytes())
        sgd.close()
        # All training traffic is done on every rank before anyone dumps
        # its buffer, so the traces cover the same (whole) run.
        comm.barrier()
        # The transport's otherwise silent events; none on "thread".
        for name, value in getattr(comm.router, "stats", dict)().items():
            recorder.counter(f"transport.{name}", value, cat="comm")
    finally:
        payload = {
            "trace": recorder.dump(),
            "metrics": registry.snapshot(),
            "steps": step_timings,
        }
        _obs.bind(None)

    collected = gather_traces(comm, payload, rounds=config.sync_rounds)
    if collected is None:
        return None
    payloads, offsets = collected
    return {
        "dumps": [p["trace"] for p in payloads],
        "snapshots": [p["metrics"] for p in payloads],
        "per_rank_steps": [p["steps"] for p in payloads],
        "clock_offsets_ns": offsets,
    }


def run_trace(
    config: Optional[TraceConfig] = None,
    backend: Optional[str] = None,
    out: str = "trace.json",
    timeout: Optional[float] = 300.0,
) -> Dict[str, Any]:
    """Run the traced job and write the Chrome trace; returns a summary."""
    from repro.comm.backend import launch

    config = config or TraceConfig()
    config.validate()
    results = launch(
        _trace_rank_main,
        config.world_size,
        config,
        backend=backend,
        timeout=timeout,
    )
    collected = results[0]
    trace = to_chrome_trace(
        collected["dumps"],
        clock_offsets_ns=collected["clock_offsets_ns"],
        metadata={
            "mode": config.mode,
            "steps": config.steps,
            "backend": backend or "default",
        },
    )
    write_chrome_trace(out, trace)
    merged = merge_snapshots(collected["snapshots"])
    straggler = straggler_attribution(collected["per_rank_steps"])
    state_bytes = [
        int(snapshot.get("repro_optimizer_state_bytes", {}).get("value", 0))
        for snapshot in collected["snapshots"]
    ]
    return {
        "out": out,
        "world_size": config.world_size,
        "sharding": config.sharding,
        "optimizer_state_bytes": state_bytes,
        "events": len(trace["traceEvents"]),
        "dropped_events": trace["otherData"]["dropped_events"],
        "clock_offsets_ns": collected["clock_offsets_ns"],
        "metrics": merged,
        "straggler": straggler,
    }


def format_summary(summary: Dict[str, Any]) -> str:
    """Human-readable report of one trace run (used by the CLI)."""
    lines = [
        "trace report",
        f"  wrote      : {summary['out']} "
        f"({summary['events']} events, "
        f"{sum(summary['dropped_events'].values())} dropped) "
        "- load in https://ui.perfetto.dev",
        f"  ranks      : {summary['world_size']}, clock offsets "
        + ", ".join(
            f"r{rank}={ns} ns"
            for rank, ns in sorted(summary["clock_offsets_ns"].items())
        ),
    ]
    for record in summary["straggler"]:
        lines.append(
            f"  rank {record['rank']:>3}   : "
            f"{100 * record['compute_share']:5.1f}% compute, "
            f"{100 * record['wait_share']:5.1f}% wait, "
            f"{100 * record['wire_share']:5.1f}% wire "
            f"over {record['steps']} step(s)"
        )
    state_bytes = summary.get("optimizer_state_bytes")
    if state_bytes:
        per_rank = ", ".join(
            f"r{rank}={nbytes}" for rank, nbytes in enumerate(state_bytes)
        )
        lines.append(
            f"  opt state  : {per_rank} bytes "
            f"(sharding={summary.get('sharding', 'none')})"
        )
    steps = summary["metrics"].get("steps", {}).get("value")
    if steps is not None:
        lines.append(f"  steps      : {int(steps)} across all ranks")
    wait = summary["metrics"].get("step-exchange-wait-s")
    if wait and wait.get("count"):
        lines.append(
            f"  exch wait  : p50 {1e3 * wait['p50']:.3f} ms, "
            f"p99 {1e3 * wait['p99']:.3f} ms over {wait['count']} step(s)"
        )
    return "\n".join(lines)
