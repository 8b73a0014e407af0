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
from repro.experiments.report import FidelityRow, format_table, ratio_line
from repro.simtime.collective_model import partial_round, synchronous_allreduce_latencies
from repro.simtime.network import DEFAULT_NETWORK
from repro.simtime.skew import linear_skew
from repro.training.exchange import build_exchange
from repro.training.runner import GRADIENT_BYTES_PER_PARAMETER
from repro.tuning.autotune import predict_exchange_time
from repro.utils.rng import seeded_rng

#: Message sizes of Fig. 9 (bytes).
MESSAGE_SIZES = (64, 512, 4 * 1024, 32 * 1024, 256 * 1024, 4 * 1024 * 1024)
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
    skew_ms: float
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
    skew_ms: float = 1.0,
    seed: int = 0,
    compression: Optional[str] = None,
    functional: bool = False,
    backend: Optional[str] = None,
) -> Fig9Result:
    """Run the analytic microbenchmark sweep (Fig. 8's loop).

    ``world_size`` processes, rank r skewed by ``r * skew_ms`` ms, run
    ``iterations`` majority rounds per message size of
    :data:`MESSAGE_SIZES`; ``seed`` draws the majority initiators.  Each
    variant pays for the exchange it runs: the walk of its own schedule
    (:func:`~repro.tuning.autotune.predict_exchange_time`, one bucket of
    4-byte elements), ``sync`` for the MPI column in
    :func:`~repro.simtime.collective_model.synchronous_allreduce_latencies`,
    ``solo`` (the earliest arrival initiates) and ``majority`` in
    :func:`~repro.simtime.collective_model.partial_round`.
    ``compression`` names a gradient codec (:mod:`repro.compression`):
    the schedules then route it as the exchanges do (the ring, the
    payload allgather, or the partial's recursive doubling at the
    codec's width) and charge its encode/decode.

    ``functional`` (implied by an explicit ``backend``) also measures the
    real exchanges on the comm ``backend`` with :func:`run_functional`,
    at its own reduced scale: 8 processes, 8 iterations, 4 ms/rank skew.
    """
    cm = None
    if compression is not None:
        from repro.compression import get_codec

        cm = get_codec(compression).cost_model()
    arrivals = linear_skew(world_size, skew_ms)
    rng = seeded_rng(seed)
    rows: List[MicrobenchmarkRow] = []

    def price(mode: str, nbytes: int) -> float:
        return predict_exchange_time(
            DEFAULT_NETWORK, world_size, nbytes, "recursive_doubling", None, 1, cm,
            mode=mode, bytes_per_element=GRADIENT_BYTES_PER_PARAMETER,
        )

    for nbytes in MESSAGE_SIZES:
        mpi = synchronous_allreduce_latencies(arrivals, price("sync", nbytes))
        solo = partial_round(arrivals, int(np.argmin(arrivals)), price("solo", nbytes))
        cost = price("majority", nbytes)
        majority_lat: List[float] = []
        majority_nap: List[float] = []
        for _ in range(iterations):
            m = partial_round(arrivals, int(rng.integers(0, world_size)), cost)
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
    result = Fig9Result(
        world_size=world_size, iterations=iterations, skew_ms=skew_ms, rows=rows
    )
    if functional or backend is not None:
        result.functional_rows = run_functional(
            seed=seed, backend=backend, compression=compression
        )
    return result


def run_functional(
    world_size: int = 8,
    iterations: int = 8,
    skew_ms: float = 4.0,
    message_elements: int = 1024,
    seed: int = 0,
    backend: Optional[str] = None,
    compression: Optional[str] = None,
) -> List[MicrobenchmarkRow]:
    """Measure the real exchanges on ``backend`` (reduced scale).

    Each rank sleeps ``rank * skew_ms`` before calling the exchange,
    exactly like the microbenchmark pseudo-code of Fig. 8, and the average
    per-rank latency is reported.  Running 32 ranks with 4 MB payloads on
    threads would measure Python overhead rather than algorithmic
    behaviour, so the functional check uses a smaller world; the *ordering*
    solo < majority < synchronous and the NAP expectations are what it
    validates.

    Every column runs the exchange :func:`~repro.training.exchange.build_exchange`
    builds for its mode (one bucket of ``message_elements`` float64), so
    ``compression`` takes the route the exchange schedule gives the codec.
    """

    def worker(comm, mode: str):
        latencies = []
        naps = []
        with build_exchange(
            comm, message_elements, mode, seed=seed, compression=compression
        ) as exchange:
            for _ in range(iterations):
                data = np.ones(message_elements)  # the exchange reduces it in place
                comm.barrier()
                time.sleep((comm.rank + 1) * skew_ms / 1000.0)
                start = time.perf_counter()
                naps.append(exchange.exchange(data).num_active)
                latencies.append(time.perf_counter() - start)
        return float(np.mean(latencies)), float(np.mean(naps))

    measurements: Dict[str, tuple] = {}
    for mode in ("sync", "majority", "solo"):
        per_rank = launch(worker, world_size, mode, backend=backend)
        lat = float(np.mean([r[0] for r in per_rank])) * 1e3
        nap = float(np.mean([r[1] for r in per_rank]))
        measurements[mode] = (lat, nap)
    row = MicrobenchmarkRow(
        message_bytes=message_elements * 8,
        mpi_latency_ms=measurements["sync"][0],
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
            f"{result.iterations} iterations, linear skew {result.skew_ms:g} ms/rank",
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
