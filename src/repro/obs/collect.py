"""Cross-rank telemetry collection over the comm fabric.

After an instrumented run, every rank holds a local flight-recorder dump
stamped with its own ``perf_counter_ns`` readings.  Two things must
happen before those dumps become one aligned timeline:

1. **Clock-offset estimation** (:func:`estimate_clock_offsets`): rank 0
   ping-pongs each peer on the ``telemetry`` tag region and applies the
   classic midpoint estimate — if rank 0 stamps ``t0`` before the ping
   and ``t1`` after the pong, and the peer stamped ``t_peer`` in
   between, then ``offset = (t0 + t1) / 2 - t_peer`` maps the peer's
   clock onto rank 0's (``peer_ts + offset``), with error bounded by
   half the round-trip asymmetry.  Each peer's estimate keeps the round with the smallest
   RTT (least queueing noise).  On a single host all ranks share
   ``CLOCK_MONOTONIC``, so offsets come out near zero — the estimation
   still runs unconditionally, which is what lets the same code align
   process/shm/tcp/hier worlds spanning kernel clocks.
2. **Buffer shipment** (:func:`gather_traces`): each rank ``r > 0``
   ships its dump to rank 0 on ``telemetry_buffer_tag(r)``.

Every receive waits at most the communicator's deadline (the world's;
see :mod:`repro.comm.communicator`).  The combined schedule is
deterministic SPMD — every rank performs the same source-explicit
sends/recvs in the same order — so the static schedule verifier
(:mod:`repro.analysis.schedule_verifier`) sweeps it like any collective.
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import Any, Dict, List, Optional, Tuple

from repro.comm import tags

__all__ = [
    "estimate_clock_offsets",
    "gather_traces",
]

#: Ping-pong rounds per peer; the minimum-RTT round wins.
DEFAULT_SYNC_ROUNDS = 4


def estimate_clock_offsets(
    comm, rounds: int = DEFAULT_SYNC_ROUNDS
) -> Optional[Dict[int, int]]:
    """Estimate each rank's clock offset relative to rank 0.

    Collective over ``comm`` (all ranks must call it).  Returns
    ``{rank: offset_ns}`` on rank 0 — such that ``peer_ts + offset``
    lands on rank 0's clock — and ``None`` on every other rank.
    """
    if not 1 <= rounds <= tags.TELEMETRY_SYNC_MAX_ROUNDS:
        raise ValueError(
            f"rounds must be in [1, {tags.TELEMETRY_SYNC_MAX_ROUNDS}], got {rounds}"
        )
    rank, size = comm.rank, comm.size
    if rank == 0:
        offsets: Dict[int, int] = {0: 0}
        for peer in range(1, size):
            samples = []  # (round trip, offset estimate) per round
            for k in range(rounds):
                t0 = perf_counter_ns()
                comm.send(int(k), peer, tag=tags.telemetry_ping_tag(peer, k))
                t_peer = int(comm.recv(source=peer, tag=tags.telemetry_pong_tag(peer, k)))
                t1 = perf_counter_ns()
                samples.append((t1 - t0, (t0 + t1) // 2 - t_peer))
            offsets[peer] = min(samples)[1]
        return offsets
    for k in range(rounds):
        comm.recv(source=0, tag=tags.telemetry_ping_tag(rank, k))
        comm.send(perf_counter_ns(), 0, tag=tags.telemetry_pong_tag(rank, k))
    return None


def gather_traces(
    comm, payload: Any, rounds: int = DEFAULT_SYNC_ROUNDS
) -> Optional[Tuple[List[Any], Dict[int, int]]]:
    """Clock-sync then gather every rank's ``payload`` onto rank 0.

    Collective over ``comm``.  Rank 0 returns ``(payloads, offsets)``
    with ``payloads[r]`` the object rank ``r`` passed in (rank 0's own
    included) and ``offsets`` the clock-offset map; other ranks ship
    their payload and return ``None``.
    """
    offsets = estimate_clock_offsets(comm, rounds=rounds)
    rank, size = comm.rank, comm.size
    if rank == 0:
        payloads: List[Any] = [payload]
        for peer in range(1, size):
            payloads.append(comm.recv(source=peer, tag=tags.telemetry_buffer_tag(peer)))
        assert offsets is not None
        return payloads, offsets
    comm.send(payload, 0, tag=tags.telemetry_buffer_tag(rank))
    return None
