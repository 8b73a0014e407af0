"""``python -m repro train``: run the training runner's own steps under a recorder.

Every rank binds a :class:`~repro.obs.recorder.FlightRecorder` and runs
the runner's rank loop (:func:`repro.training.runner._rank_main`, what
:func:`~repro.training.runner.train_distributed` runs) for one epoch of
exactly ``steps`` steps of the hyperplane-regression workload (Fig. 10's
data at test scale, fitted by a two-layer MLP so the trace carries
per-layer ``layer-fwd`` / ``layer-bwd`` rows), on any registered comm
backend.  Then:

1. each rank records its transport's counters (``transport.*``) and
   ships its event buffer to rank 0 over the ``telemetry`` tag region
   (:func:`repro.obs.collect.gather_traces`), aligning the ranks'
   monotonic clocks with ping-pong midpoint offset estimation;
2. rank 0's buffers become one Chrome trace-event JSON object, with one
   process track per rank and send→recv flow arrows between them; with
   ``--trace PATH`` it is written there, loadable in Perfetto
   (https://ui.perfetto.dev) or ``chrome://tracing``;
3. the report is read back from that trace (:func:`trace_report`), so
   the report and the file cannot disagree — each rank's final model
   hash included, so ``repro train`` exits 1 when the replicas of a
   synchronous (or ZeRO-1) run did not end on one model.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.comm.backend import launch
from repro.data.hyperplane import HyperplaneDataset
from repro.nn.losses import MSELoss
from repro.nn.models.mlp import MLPClassifier
from repro.obs import recorder as _obs
from repro.obs.collect import gather_traces
from repro.obs.metrics import LogHistogram, straggler_attribution
from repro.obs.recorder import DEFAULT_CAPACITY, FlightRecorder
from repro.obs.trace import to_chrome_trace, write_chrome_trace
from repro.training.config import TrainingConfig
from repro.training.runner import _rank_main

#: Input width of the traced workload, and the MLP's hidden width.
INPUT_DIM = 64

#: The run ``python -m repro train`` makes unless its flags say otherwise:
#: one epoch of a 32-example global batch, with momentum so the optimizer
#: carries state that ``--sharding zero1`` cuts P-fold, and a 20 KiB fusion
#: threshold that cuts the MLP's 4 225 parameters into two buckets.
PRESET = TrainingConfig(
    epochs=1, global_batch_size=32, optimizer="momentum", fusion_threshold_bytes=20 * 1024
)


def _trace_rank_main(comm, config: TrainingConfig, steps: int, capacity: int):
    """SPMD entry: the runner's loop under a recorder, traces gathered on rank 0."""
    recorder = _obs.bind(FlightRecorder(rank=comm.rank, capacity=capacity))
    try:
        out = _rank_main(
            comm,
            lambda: MLPClassifier(
                INPUT_DIM, hidden_dims=(INPUT_DIM,), num_classes=1, seed=config.seed
            ),
            # One epoch is exactly ``steps`` global batches.
            HyperplaneDataset(
                num_examples=config.global_batch_size * steps,
                input_dim=INPUT_DIM,
                noise_std=0.5,
                seed=config.seed,
            ),
            None,
            MSELoss(),
            config,
            classification=False,
        )
        # The transport's otherwise silent events; none on "thread".
        for name, value in getattr(comm.router, "stats", dict)().items():
            recorder.counter(f"transport.{name}", value, cat="comm")
        # All training traffic is done on every rank before anyone dumps
        # its buffer, so the traces cover the same (whole) run.
        comm.barrier()
    finally:
        _obs.bind(None)
    return gather_traces(comm, (recorder.dump(), out.final_model_hash))


def run_trace(
    config: TrainingConfig,
    steps: int = 8,
    capacity: int = DEFAULT_CAPACITY,
    out: Optional[str] = None,
    timeout: float = 300.0,
) -> Dict[str, Any]:
    """Trace ``steps`` steps of ``config`` and return :func:`trace_report`
    of the Chrome trace, which is written to ``out`` when given."""
    config.validate()
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    payloads, offsets = launch(
        _trace_rank_main,
        config.world_size,
        config,
        steps,
        capacity,
        backend=config.comm_backend,
        timeout=timeout,
    )[0]
    dumps = [dump for dump, _ in payloads]
    trace = to_chrome_trace(
        dumps,
        clock_offsets_ns=offsets,
        metadata={
            "mode": config.mode,
            "sharding": config.sharding,
            "steps": steps,
            "backend": config.comm_backend or "default",
            "model_hashes": {str(rank): h for rank, (_, h) in enumerate(payloads)},
        },
    )
    if out is not None:
        write_chrome_trace(out, trace)
    return trace_report(trace)


def trace_report(trace: Dict[str, Any]) -> Dict[str, Any]:
    """The report of a traced run, computed from its Chrome trace alone.

    ``trace`` is the object :func:`run_trace` writes, or its JSON loaded
    back (both give the same report).  Per rank: the straggler
    attribution (:func:`~repro.obs.metrics.straggler_attribution`) and
    the ``optimizer-state-bytes`` counter the runner emits after its
    loop; over every rank's ``exchange`` spans: p50 / p99 seconds; and
    each rank's final model hash, with whether they all agree.
    """
    exchange = LogHistogram()
    state_bytes: Dict[int, int] = {}
    for event in trace["traceEvents"]:
        if event["ph"] == "X" and (event["cat"], event["name"]) == ("step", "exchange"):
            exchange.push(event["dur"] / 1e6)
        elif event["ph"] == "C" and event["name"] == "optimizer-state-bytes":
            state_bytes[event["pid"]] = int(event["args"]["value"])
    other = trace["otherData"]
    hashes = other.get("model_hashes", {})
    return {
        "world_size": other["ranks"],
        "mode": other.get("mode"),
        "sharding": other.get("sharding"),
        "model_hashes": hashes,
        "models_agree": len(set(hashes.values())) == 1,
        "events": len(trace["traceEvents"]),
        "dropped_events": other["dropped_events"],
        "clock_offsets_ns": other["clock_offsets_ns"],
        "straggler": straggler_attribution(trace),
        "optimizer_state_bytes": state_bytes,
        "exchanges": exchange.count,
        "exchange_p50_s": exchange.quantile(0.50) if exchange.count else None,
        "exchange_p99_s": exchange.quantile(0.99) if exchange.count else None,
    }


def format_summary(report: Dict[str, Any], out: Optional[str]) -> str:
    """Human-readable :func:`trace_report` of a run whose trace went to
    ``out`` (``None``: not written); used by the CLI."""
    written = f"wrote {out}, load in https://ui.perfetto.dev" if out else "not written"
    lines = [
        "trace report",
        f"  trace      : {report['events']} events, "
        f"{sum(report['dropped_events'].values())} dropped ({written})",
        f"  ranks      : {report['world_size']}, clock offsets "
        + ", ".join(
            f"r{rank}={ns} ns"
            for rank, ns in sorted(
                report["clock_offsets_ns"].items(), key=lambda item: int(item[0])
            )
        ),
    ]
    for record in report["straggler"]:
        lines.append(
            f"  rank {record['rank']:>3}   : "
            f"{100 * record['compute_share']:5.1f}% compute, "
            f"{100 * record['collective_share']:5.1f}% collective, "
            f"{100 * record['overhead_share']:5.1f}% exchange overhead "
            f"over {record['steps']} step(s)"
        )
    state_bytes = report["optimizer_state_bytes"]
    if state_bytes:
        per_rank = ", ".join(
            f"r{rank}={nbytes}" for rank, nbytes in sorted(state_bytes.items())
        )
        lines.append(
            f"  opt state  : {per_rank} bytes (sharding={report['sharding']})"
        )
    verdict = "all ranks agree" if report["models_agree"] else "ranks differ"
    per_rank = ", ".join(f"r{rank}={h}" for rank, h in report["model_hashes"].items())
    lines.append(f"  models     : {verdict} ({per_rank})")
    if report["exchanges"]:
        lines.append(
            f"  exchange   : p50 {1e3 * report['exchange_p50_s']:.3f} ms, "
            f"p99 {1e3 * report['exchange_p99_s']:.3f} ms "
            f"over {report['exchanges']} exchange(s) on all ranks"
        )
    return "\n".join(lines)
