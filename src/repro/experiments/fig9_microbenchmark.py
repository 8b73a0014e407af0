"""Fig. 9 — latency microbenchmark of partial allreduce operations.

The microbenchmark (Fig. 8 of the paper) skews 32 processes linearly by
1..32 ms before every collective call, runs 64 iterations per message size
(64 B to 4 MB) and reports, per operation, the average latency over all
processes together with the Number of Active Processes (NAP).  The paper's
headline numbers: compared to ``MPI_Allreduce``, solo and majority
allreduce reduce the latency by on average 53.32x and 2.46x respectively;
the NAP is around 1 for solo and around 16 (half of 32) for majority.

The reproduction runs the same sweep through the analytic LogGP latency
model and, optionally, through the real implementation on a selectable
comm backend at a reduced scale.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.comm.backend import launch
from repro.collectives.partial import MajorityAllreduce, SoloAllreduce
from repro.collectives.sync import allreduce
from repro.experiments.report import FidelityRow, format_table, ratio_line
from repro.simtime.collective_model import (
    majority_allreduce_latencies,
    solo_allreduce_latencies,
    synchronous_allreduce_latencies,
)
from repro.simtime.skew import linear_skew
from repro.utils.rng import seeded_rng

#: Message sizes of Fig. 9 (bytes).
DEFAULT_MESSAGE_SIZES = (64, 512, 4 * 1024, 32 * 1024, 256 * 1024, 4 * 1024 * 1024)
#: The paper's average latency-reduction factors over MPI_Allreduce.
PAPER_SOLO_SPEEDUP = 53.32
PAPER_MAJORITY_SPEEDUP = 2.46


@dataclass
class MicrobenchmarkRow:
    """Average latencies (ms) and NAP for one message size."""

    message_bytes: int
    mpi_latency_ms: float
    majority_latency_ms: float
    solo_latency_ms: float
    majority_nap: float
    solo_nap: float


@dataclass
class Fig9Result:
    world_size: int
    iterations: int
    skew_step_ms: float
    rows: List[MicrobenchmarkRow]
    #: Average latency-reduction factors over all message sizes.
    solo_speedup: float = 0.0
    majority_speedup: float = 0.0
    #: Optional functional-backend measurements (reduced scale).
    functional_rows: List[MicrobenchmarkRow] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.rows:
            solo = np.mean([r.mpi_latency_ms / max(r.solo_latency_ms, 1e-9) for r in self.rows])
            majority = np.mean(
                [r.mpi_latency_ms / max(r.majority_latency_ms, 1e-9) for r in self.rows]
            )
            self.solo_speedup = float(solo)
            self.majority_speedup = float(majority)


def run(
    world_size: int = 32,
    iterations: int = 64,
    skew_step_ms: float = 1.0,
    message_sizes=DEFAULT_MESSAGE_SIZES,
    seed: int = 0,
    compression: Optional[str] = None,
) -> Fig9Result:
    """Run the analytic microbenchmark sweep (Fig. 8's loop).

    ``compression`` names a gradient codec (:mod:`repro.compression`):
    the analytic latencies then include the codec's compressed-bytes and
    encode/decode terms (:class:`~repro.simtime.collective_model.CompressionModel`).
    """
    cm = None
    if compression is not None:
        from repro.compression import get_codec

        cm = get_codec(compression).cost_model()
    arrivals = linear_skew(world_size, skew_step_ms)
    rng = seeded_rng(seed)
    rows: List[MicrobenchmarkRow] = []
    for nbytes in message_sizes:
        mpi = synchronous_allreduce_latencies(arrivals, nbytes, compression=cm)
        solo = solo_allreduce_latencies(arrivals, nbytes, compression=cm)
        majority_lat: List[float] = []
        majority_nap: List[float] = []
        for _ in range(iterations):
            initiator = int(rng.integers(0, world_size))
            m = majority_allreduce_latencies(
                arrivals, nbytes, initiator=initiator, compression=cm
            )
            majority_lat.append(m.average_latency)
            majority_nap.append(m.num_active)
        rows.append(
            MicrobenchmarkRow(
                message_bytes=int(nbytes),
                mpi_latency_ms=mpi.average_latency * 1e3,
                majority_latency_ms=float(np.mean(majority_lat)) * 1e3,
                solo_latency_ms=solo.average_latency * 1e3,
                majority_nap=float(np.mean(majority_nap)),
                solo_nap=float(solo.num_active),
            )
        )
    return Fig9Result(
        world_size=world_size,
        iterations=iterations,
        skew_step_ms=skew_step_ms,
        rows=rows,
    )


def run_functional(
    world_size: int = 8,
    iterations: int = 8,
    skew_step_ms: float = 4.0,
    message_elements: int = 1024,
    seed: int = 0,
    backend: Optional[str] = None,
    compression: Optional[str] = None,
) -> List[MicrobenchmarkRow]:
    """Measure the real collectives directly on ``backend`` (reduced scale).

    Each rank sleeps ``rank * skew_step_ms`` before calling the collective,
    exactly like the microbenchmark pseudo-code of Fig. 8, and the average
    per-rank latency is reported.  Running 32 ranks with 4 MB payloads on
    threads would measure Python overhead rather than algorithmic
    behaviour, so the functional check uses a smaller world; the *ordering*
    solo < majority < synchronous and the NAP expectations are what it
    validates.

    With ``compression``, every collective carries the codec's wire
    payload: reduce-closed codecs (fp16) reduce at the encoded width;
    other codecs contribute the locally quantized dense gradient (the
    decode-reduce-encode caveat documented in
    :mod:`repro.training.exchange`).
    """

    def worker(comm, mode: str):
        from repro.compression import resolve_codec

        codec = resolve_codec(compression)
        dtype = np.float64
        if codec is not None and codec.reduce_closed:
            dtype = codec.wire_dtype
        latencies = []
        naps = []
        if mode == "solo":
            partial = SoloAllreduce(comm, message_elements, seed=seed, dtype=dtype)
        elif mode == "majority":
            partial = MajorityAllreduce(comm, message_elements, seed=seed, dtype=dtype)
        else:
            partial = None
        data = np.ones(message_elements)
        if codec is not None:
            encoded = codec.encode(data)
            data = (
                np.asarray(encoded.payload)
                if codec.reduce_closed
                else codec.decode(encoded)
            )
        for it in range(iterations):
            comm.barrier()
            time.sleep((comm.rank + 1) * skew_step_ms / 1000.0)
            start = time.perf_counter()
            if partial is None:
                allreduce(comm, data, average=True)
                naps.append(comm.size)
            else:
                result = partial.reduce(data)
                naps.append(result.num_active)
            latencies.append(time.perf_counter() - start)
        if partial is not None:
            partial.close()
        return float(np.mean(latencies)), float(np.mean(naps))

    measurements: Dict[str, tuple] = {}
    for mode in ("mpi", "majority", "solo"):
        per_rank = launch(worker, world_size, mode, backend=backend)
        lat = float(np.mean([r[0] for r in per_rank])) * 1e3
        nap = float(np.mean([r[1] for r in per_rank]))
        measurements[mode] = (lat, nap)
    row = MicrobenchmarkRow(
        message_bytes=message_elements * 8,
        mpi_latency_ms=measurements["mpi"][0],
        majority_latency_ms=measurements["majority"][0],
        solo_latency_ms=measurements["solo"][0],
        majority_nap=measurements["majority"][1],
        solo_nap=measurements["solo"][1],
    )
    return [row]


def fidelity(result: Fig9Result) -> List[FidelityRow]:
    """The two headline factors (the model's solo factor is ~80x below 4 MB, 54x at 4 MB)."""
    return [
        FidelityRow(
            "Fig. 9", "solo latency reduction", PAPER_SOLO_SPEEDUP, result.solo_speedup, 0.5
        ),
        FidelityRow(
            "Fig. 9", "majority latency reduction", PAPER_MAJORITY_SPEEDUP,
            result.majority_speedup, 0.15,
        ),
    ]


def _latency_table(rows: List[MicrobenchmarkRow], sync_label: str, title: str) -> str:
    return format_table(
        [
            "message size",
            f"{sync_label} (ms)",
            "Majority (ms)",
            "Solo (ms)",
            "NAP majority",
            "NAP solo",
        ],
        [
            (
                _format_bytes(r.message_bytes),
                r.mpi_latency_ms,
                r.majority_latency_ms,
                r.solo_latency_ms,
                r.majority_nap,
                r.solo_nap,
            )
            for r in rows
        ],
        title=title,
    )


def report(result: Fig9Result) -> str:
    parts = [
        _latency_table(
            result.rows,
            "MPI_Allreduce",
            f"Fig. 9  Partial allreduce latency, {result.world_size} processes, "
            f"{result.iterations} iterations, linear skew {result.skew_step_ms:g} ms/rank",
        ),
        "",
        *(ratio_line(r.claim, r.ours, r.paper) for r in fidelity(result)),
        f"expected NAP: solo ~1, majority ~{result.world_size // 2} (half of {result.world_size})",
    ]
    if result.functional_rows:
        parts += [
            "",
            _latency_table(
                result.functional_rows,
                "sync allreduce",
                "Functional measurement on the real transport (reduced scale)",
            ),
        ]
    return "\n".join(parts)


def _format_bytes(nbytes: int) -> str:
    if nbytes >= 1024 * 1024:
        return f"{nbytes // (1024 * 1024)} MB"
    if nbytes >= 1024:
        return f"{nbytes // 1024} KB"
    return f"{nbytes} B"
