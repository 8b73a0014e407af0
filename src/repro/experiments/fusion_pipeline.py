"""Fused, chunked gradient-exchange pipeline vs. the monolithic baseline.

The seed implementation shipped every step's gradient as **one monolithic
flat vector through a single blocking recursive-doubling allreduce** —
no tensor fusion, no chunk pipelining.  This harness quantifies what the
bucketed/chunked exchange subsystem buys:

* *analytic rows* — the LogGP walk of the plans that run
  (:func:`repro.simtime.collective_model.allreduce_time` for one
  collective, :func:`repro.tuning.autotune.predict_exchange_time` for a
  bucketed exchange, whose buckets run back to back) across world sizes,
  bucket sizes and chunk counts;
* *functional rows* (optional) — wall-clock of the thread-backed
  :class:`~repro.training.exchange.SynchronousExchange` at reduced scale,
  validating that the fused path computes the identical average gradient.

The headline: for a >= 4 MB gradient at P = 8, the best chunked or
fused configuration is >= 1.3x faster than the seed's unfused
single-buffer exchange (``tests/test_fusion_pipeline.py`` asserts this
bound).  Splitting 4 MB into several buckets does not pay at these
parameters: every bucket is its own collective and pays its own
``collective_overhead`` and latency rounds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Annotated, List, Literal, Optional, Sequence

import numpy as np

from repro.experiments.report import format_table
from repro.simtime.collective_model import CompressionModel, allreduce_time
from repro.simtime.network import DEFAULT_NETWORK, LogGPParams
from repro.tuning.autotune import bucketer_for, predict_exchange_time
from repro.utils.argtypes import comma_list, int_at_least, positive_float

MB = 1024 * 1024


@dataclass(frozen=True)
class FusionRow:
    """Modelled latency of one exchange configuration at one world size."""

    world_size: int
    gradient_mb: float
    configuration: str
    buckets: int
    n_chunks: int
    time_us: float
    #: Speedup over the unfused single-buffer (recursive-doubling) baseline.
    speedup: float


@dataclass(frozen=True)
class FunctionalRow:
    """Wall-clock of the real exchange on one backend (reduced scale)."""

    world_size: int
    elements: int
    configuration: str
    seconds_per_exchange: float
    max_abs_error: float
    backend: str = "thread"
    #: Bytes rank 0 sent per exchange, counted at its communicator.
    sent_bytes: int = 0


@dataclass
class FusionPipelineResult:
    rows: List[FusionRow]
    functional_rows: List[FunctionalRow] = field(default_factory=list)

    def headline_speedup(self, world_size: int = 8) -> float:
        """Best chunked/fused speedup at ``world_size`` over the baseline.

        Only genuinely chunked or bucketed configurations count — the
        plain single-buffer ring is reported for context but excluded.
        """
        candidates = [
            r.speedup
            for r in self.rows
            if r.world_size == world_size and (r.n_chunks > 1 or r.buckets > 1)
        ]
        if not candidates:
            raise ValueError(f"no fused rows at world size {world_size}")
        return max(candidates)


def run(
    world_sizes: Annotated[Sequence[int], comma_list(int_at_least(1))] = (4, 8, 16, 32),
    gradient_mb: Annotated[float, positive_float] = 4.0,
    bucket_mb: Annotated[Sequence[float], comma_list(positive_float)] = (1.0, 4.0),
    pipeline_chunks: Annotated[int, int_at_least(1)] = 8,
    params: LogGPParams = DEFAULT_NETWORK,
    compression: Optional[str] = None,
    functional: bool = False,
    functional_world_size: Annotated[int, int_at_least(1)] = 4,
    sharding: Literal["none", "zero1"] = "none",
    backend: Optional[str] = None,
) -> FusionPipelineResult:
    """Model the fused/chunked exchange against the monolithic baseline.

    For every world size of ``world_sizes`` the table contains the seed
    baseline (one blocking recursive-doubling allreduce of the whole
    simulated ``gradient_mb`` MB gradient), the plain ring exchange, the
    ring pipelined in ``pipeline_chunks`` segments per collective round,
    and the fused bucketed exchanges for every fusion-buffer size of
    ``bucket_mb`` (MB).  With ``compression``, each fused exchange
    additionally gets a compressed sibling row scored with the codec's
    wire/transform terms
    (:class:`~repro.simtime.collective_model.CompressionModel`).

    ``functional`` (implied by an explicit ``backend``) also runs the real
    exchange on the comm ``backend`` at ``functional_world_size`` ranks
    (:func:`run_functional`); ``sharding="zero1"`` adds its ZeRO-1
    sharded-exchange row (reduce-scatter, shard-local update, parameter
    allgather).
    """
    cm: Optional[CompressionModel] = None
    codec_label = ""
    if compression is not None:
        from repro.compression import resolve_codec

        codec = resolve_codec(compression)
        if codec is not None:
            cm = codec.cost_model()
            codec_label = codec.name
    total_bytes = int(gradient_mb * MB)
    rows: List[FusionRow] = []
    for size in world_sizes:
        seen_wire_counts: set = set()
        baseline = allreduce_time(total_bytes, size, "recursive_doubling", params)
        rows.append(
            FusionRow(size, gradient_mb, "unfused single-buffer (RD)", 1, 1,
                      baseline * 1e6, 1.0)
        )
        ring = allreduce_time(total_bytes, size, "ring", params)
        rows.append(
            FusionRow(size, gradient_mb, "single-buffer ring", 1, 1,
                      ring * 1e6, baseline / ring)
        )
        chunked = allreduce_time(total_bytes, size, "ring", params, n_chunks=pipeline_chunks)
        rows.append(
            FusionRow(size, gradient_mb, f"chunked ring (C={pipeline_chunks})", 1,
                      pipeline_chunks, chunked * 1e6, baseline / chunked)
        )
        for bmb in bucket_mb:
            threshold = int(bmb * MB)
            count = bucketer_for(total_bytes, threshold).num_buckets
            fused = predict_exchange_time(
                params, size, total_bytes, "ring", threshold, pipeline_chunks
            )
            rows.append(
                FusionRow(
                    size, gradient_mb,
                    f"fused pipeline ({count} x {bmb:g} MB, C={pipeline_chunks})",
                    count, pipeline_chunks, fused * 1e6, baseline / fused,
                )
            )
            if cm is None:
                continue
            # Compressed sibling: same dense gradient, the threshold
            # budgets encoded bytes (so buckets hold more elements).
            wire_count = bucketer_for(total_bytes, threshold, cm).num_buckets
            if wire_count in seen_wire_counts:
                # Several thresholds can collapse to the same encoded
                # bucketing; one row describes them all.
                continue
            seen_wire_counts.add(wire_count)
            compressed = predict_exchange_time(
                params, size, total_bytes, "ring", threshold, pipeline_chunks, cm
            )
            wire_bucket_mb = total_bytes / wire_count * cm.wire_scale / MB
            rows.append(
                FusionRow(
                    size, gradient_mb,
                    f"fused pipeline + {codec_label} "
                    f"({wire_count} x {wire_bucket_mb:g} MB wire, C={pipeline_chunks})",
                    wire_count, pipeline_chunks, compressed * 1e6,
                    baseline / compressed,
                )
            )
    result = FusionPipelineResult(rows=rows)
    if functional or backend is not None:
        result.functional_rows = run_functional(
            world_size=functional_world_size,
            pipeline_chunks=pipeline_chunks,
            backend=backend,
            compression=compression,
            sharding=sharding,
        )
    return result


def run_functional(
    world_size: int = 4,
    elements: int = 1 << 15,
    pipeline_chunks: int = 4,
    fusion_threshold_bytes: int = 64 * 1024,
    iterations: int = 4,
    backend: Optional[str] = None,
    compression: Optional[str] = None,
    sharding: str = "none",
) -> List[FunctionalRow]:
    """Measure the real exchange on ``backend`` and verify its result.

    Wall-clock numbers on the thread substrate are dominated by copying
    and scheduling rather than network physics; the process backend adds
    loopback TCP and removes the shared GIL.  Either way the functional
    rows validate correctness and give a rough cost signal, while the
    analytic rows carry the latency claims.

    ``sharding="zero1"`` appends a row running the ZeRO-1
    :class:`~repro.training.exchange.ShardedExchange` end to end (SGD on
    a flat parameter vector): its error column compares the gathered
    parameters against the dense-update reference.  Every row's
    ``sent B/rank`` is the bytes rank 0 measured itself sending per
    exchange, so the algorithms' wire volumes compare directly.
    """
    from repro.comm import get_backend, launch
    from repro.training.exchange import SynchronousExchange, _WireCountingComm

    if sharding not in ("none", "zero1"):
        raise ValueError(f"sharding must be 'none' or 'zero1', got {sharding!r}")
    backend_name = get_backend(backend).name
    configs = [
        ("unfused single-buffer (RD)", dict(algorithm="recursive_doubling")),
        ("single-buffer ring", dict(algorithm="ring")),
        (
            f"fused chunked ring (C={pipeline_chunks})",
            dict(
                algorithm="ring",
                fusion_threshold_bytes=fusion_threshold_bytes,
                pipeline_chunks=pipeline_chunks,
            ),
        ),
    ]
    if compression is not None:
        from repro.compression import resolve_codec

        codec = resolve_codec(compression)
        if codec is not None:
            configs.append(
                (
                    f"fused chunked ring + {codec.name} (C={pipeline_chunks})",
                    dict(
                        algorithm="ring",
                        fusion_threshold_bytes=fusion_threshold_bytes,
                        pipeline_chunks=pipeline_chunks,
                        compression=compression,
                    ),
                )
            )
    base = np.arange(elements, dtype=np.float64) / elements
    expected = base + (world_size - 1) / 2.0

    def dense(kwargs):
        def make_step(comm):
            exchange = SynchronousExchange(comm, **kwargs)
            return lambda gradient: exchange.exchange(gradient).gradient
        return make_step

    # (configuration, make_step(comm) -> step(gradient) -> vector to check, its reference)
    cases = [(name, dense(kwargs), expected) for name, kwargs in configs]
    if sharding == "zero1":
        lr = 0.25
        init = np.linspace(-1.0, 1.0, elements)

        def sharded(comm):
            from repro.nn.module import Module
            from repro.nn.optim import SGD
            from repro.nn.parameters import flatten_parameters
            from repro.training.exchange import ShardedExchange

            model = Module()
            model.add_parameter("theta", init.copy())
            optimizer = SGD(model, lr)
            exchange = ShardedExchange(
                comm,
                algorithm="ring",
                fusion_threshold_bytes=fusion_threshold_bytes,
                pipeline_chunks=pipeline_chunks,
            )

            def step(gradient):
                exchange.exchange_update(gradient, model, optimizer)
                return flatten_parameters(model)
            return step

        cases.append((
            f"zero1 sharded ring (C={pipeline_chunks})", sharded, init - iterations * lr * expected
        ))

    rows: List[FunctionalRow] = []
    for name, make_step, reference in cases:
        def worker(comm):
            # Every row counts the bytes its rank sends the same way, and
            # inside the same clock.
            counting = _WireCountingComm(comm)
            step = make_step(counting)
            start = time.perf_counter()
            for _ in range(iterations):
                # An exchange consumes its argument: a fresh one each step.
                out = step(base + comm.rank)
            elapsed = (time.perf_counter() - start) / iterations
            return (
                elapsed,
                float(np.max(np.abs(out - reference))),
                counting.bytes_sent // iterations,
            )

        outputs = launch(worker, world_size, backend=backend)
        rows.append(
            FunctionalRow(
                world_size=world_size,
                elements=elements,
                configuration=name,
                seconds_per_exchange=float(np.mean([o[0] for o in outputs])),
                max_abs_error=float(max(o[1] for o in outputs)),
                backend=backend_name,
                sent_bytes=int(outputs[0][2]),
            )
        )
    return rows


def report(result: FusionPipelineResult) -> str:
    """Render the comparison tables."""
    parts = [
        format_table(
            ["P", "gradient", "exchange", "buckets", "chunks", "time [us]", "speedup"],
            [
                (
                    r.world_size,
                    f"{r.gradient_mb:g} MB",
                    r.configuration,
                    r.buckets,
                    r.n_chunks,
                    r.time_us,
                    r.speedup,
                )
                for r in result.rows
            ],
            title="fused/chunked gradient exchange vs. unfused single-buffer baseline "
            "(LogGP walk of the plans; buckets run back to back)",
        )
    ]
    if result.functional_rows:
        backends = "/".join(sorted({r.backend for r in result.functional_rows}))
        parts.append("")
        parts.append(
            format_table(
                ["P", "elements", "exchange", "s/exchange", "max |err|", "sent B/rank"],
                [
                    (
                        r.world_size,
                        r.elements,
                        r.configuration,
                        r.seconds_per_exchange,
                        r.max_abs_error,
                        r.sent_bytes,
                    )
                    for r in result.functional_rows
                ],
                title=f"{backends}-backed exchange (functional validation)",
            )
        )
    try:
        headline = result.headline_speedup(8)
        parts.append("")
        parts.append(
            f"headline: fused/chunked exchange is {headline:.2f}x faster than the "
            f"unfused single-buffer exchange at P = 8 (target: >= 1.3x)"
        )
    except ValueError:
        pass
    return "\n".join(parts)
