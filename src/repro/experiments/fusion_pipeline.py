"""Fused, chunked gradient-exchange pipeline vs. the monolithic baseline.

The seed implementation shipped every step's gradient as **one monolithic
flat vector through a single blocking recursive-doubling allreduce** —
no tensor fusion, no chunk pipelining.  This harness quantifies what the
bucketed/chunked exchange subsystem buys, as analytic rows: the LogGP
walk of the plans that run
(:func:`repro.simtime.collective_model.allreduce_time` for one
collective, :func:`repro.tuning.autotune.predict_exchange_time` for a
bucketed exchange, whose buckets run back to back) across world sizes,
bucket sizes and chunk counts.

The real exchange runs end to end through the training runner
(``python -m repro train --backend B --compression C --sharding S``);
its correctness and wire volume are tier-1 tests
(``tests/test_fusion_pipeline.py``, ``tests/test_sharded_training.py``).

The headline: for a >= 4 MB gradient at P = 8, the best chunked or
fused configuration is >= 1.3x faster than the seed's unfused
single-buffer exchange (``tests/test_fusion_pipeline.py`` asserts this
bound).  Splitting 4 MB into several buckets does not pay at these
parameters: every bucket is its own collective and pays its own
``collective_overhead`` and latency rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated, List, Optional, Sequence

from repro.collectives.topology import HostTopology
from repro.experiments.report import format_table
from repro.simtime.collective_model import CompressionModel, allreduce_time
from repro.simtime.network import DEFAULT_NETWORK, LogGPParams
from repro.training.exchange import exchange_schedule
from repro.tuning.autotune import predict_exchange_time
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


@dataclass
class FusionPipelineResult:
    rows: List[FusionRow]

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

    def num_buckets(threshold: int, codec: Optional[CompressionModel] = None) -> int:
        """Buckets the exchange cuts: its schedule's, at the codec's wire width."""
        flat = HostTopology.single_host(1)
        schedule = exchange_schedule(flat, codec=codec, fusion_threshold_bytes=threshold)
        return schedule.cut(max(1, total_bytes // 8)).num_buckets

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
            count = num_buckets(threshold)
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
            wire_count = num_buckets(threshold, cm)
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
    return FusionPipelineResult(rows=rows)


def report(result: FusionPipelineResult) -> str:
    """Render the comparison table and the P = 8 headline."""
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
