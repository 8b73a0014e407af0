"""Recorded runs: run real code on a thread per rank, read its message graph
off the flight recorder.

The schedule verifier needs the *global send/recv multigraph* of a
schedule — who sends what tag to whom, and which receive consumes which
send — without caring about payload bandwidth.  :func:`record` runs
``fn(comm)`` on a thread world with one
:class:`~repro.obs.recorder.FlightRecorder` bound per rank, so the code
under test runs on the plain :class:`~repro.comm.communicator.Communicator`
and logs through the same ``send`` / ``recv`` / ``recv-timeout`` spans a
traced run writes to its Chrome trace; the :class:`RunRecord` is read off
those spans alone.

Payloads are tiny integer certificate vectors (a few dozen elements),
so a full sweep over the recorded schedules at P up to 64 runs in
seconds; the graph properties (match-completeness, tag soundness,
deadlock freedom) are read off the event log alone, and the certificates
prove reduction coverage exactly (integer ``float64`` arithmetic below
``2**53`` is exact).

The world's receive deadline is short: a deliberately broken schedule
does not hang the verifier — the receive that runs it out is recorded
(kind ``"starved"``), raises
:class:`~repro.comm.communicator.CommTimeoutError`, and the checkers
classify it as a deadlock cycle or a lost message.
"""

from __future__ import annotations

import threading
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Any, Callable, List, NamedTuple, Optional, Tuple

from repro.collectives.topology import HostTopology
from repro.comm.communicator import Communicator, CommTimeoutError
from repro.comm.world import ThreadWorld
from repro.obs import recorder as _obs

#: Events each rank's recorder holds: the largest recorded case, the fp16
#: ring at P = 64, records about 500 (a send or receive is two: its span
#: and its flow event).
CAPACITY = 8192


class CommEvent(NamedTuple):
    """One recorded communication action of one rank.

    ``kind`` is ``"send"``, ``"recv"`` or ``"starved"``.  ``peer`` is the
    destination rank of a send, the *matched* source of a receive, and
    the awaited source of a starved receive.  ``seq`` identifies a
    message: a send's ``seq`` is its index in the record's events, and a
    receive carries the seq of the send it consumed, which is what turns
    the log into an exact send↔recv pairing.  ``order`` is the per-rank
    program index (total order within the rank), the program-order edges
    of the deadlock check.
    """

    kind: str
    rank: int
    order: int
    channel: str
    peer: int
    tag: int
    seq: int
    elements: int


@dataclass
class RunRecord:
    """Everything one recorded run produced."""

    world_size: int
    events: List[CommEvent]
    results: List[Any]
    errors: List[Optional[BaseException]]

    def sends(self) -> List[CommEvent]:
        return [e for e in self.events if e.kind == "send"]

    def recvs(self) -> List[CommEvent]:
        return [e for e in self.events if e.kind == "recv"]

    def starved(self) -> List[CommEvent]:
        return [e for e in self.events if e.kind == "starved"]

    @property
    def crashed(self) -> List[Tuple[int, BaseException]]:
        """Rank failures that are *not* starvations (receive timeouts)."""
        return [
            (rank, err)
            for rank, err in enumerate(self.errors)
            if err is not None and not isinstance(err, CommTimeoutError)
        ]


def record(
    fn: Callable[[Communicator], Any],
    world_size: int,
    recv_timeout: float = 30.0,
    host_topology: Optional[HostTopology] = None,
) -> RunRecord:
    """Run ``fn(comm)`` on every rank of a thread world (one thread each,
    ``recv_timeout`` its receive deadline, ``host_topology`` set on its
    router for the hierarchical collectives to discover) and read the
    run's :class:`RunRecord` off each rank's flight recorder.

    Exceptions — including the ``CommTimeoutError`` of a receive that ran
    out the deadline — are captured per rank, never raised: the checkers
    decide what a failure means.  A recorder that dropped events raises
    ``RuntimeError``: a partial log must never pass as a proof.

    Per rank, events are in program order by time: a send at its span's
    start, a receive or starvation at its span's end.  Sends and receives
    pair FIFO per ``(channel, source, dest, tag)``, as a mailbox matches
    them, so every match edge points forward in time too.
    """
    world = ThreadWorld(world_size, default_timeout=recv_timeout)
    if host_topology is not None:
        world.router.host_topology = host_topology
    recorders = [_obs.FlightRecorder(rank, CAPACITY) for rank in range(world_size)]
    results: List[Any] = [None] * world_size
    errors: List[Optional[BaseException]] = [None] * world_size

    def worker(rank: int) -> None:
        _obs.bind(recorders[rank])
        try:
            results[rank] = fn(world.communicator(rank))
        except BaseException as exc:  # noqa: BLE001 - recorded, not raised
            errors[rank] = exc

    threads = [
        threading.Thread(target=worker, args=(rank,), name=f"verify-rank-{rank}")
        for rank in range(world_size)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    world.close()
    for rec in recorders:
        if rec.dropped:
            raise RuntimeError(
                f"rank {rec.rank}'s recorder dropped {rec.dropped} of "
                f"{rec.total_recorded} events: its log is partial"
            )

    # (time, sends first at a tie, rank, append index, kind, args) of every
    # comm span.
    kinds = {"send": "send", "recv": "recv", "recv-timeout": "starved"}
    spans = sorted(
        (ts if name == "send" else ts + dur, name != "send", rec.rank, index,
         kinds[name], args)
        for rec in recorders
        for index, (_ph, name, cat, ts, dur, args, _thread) in enumerate(rec.events())
        if cat == "comm" and name in kinds
    )
    events: List[CommEvent] = []
    orders = [0] * world_size
    unreceived: defaultdict = defaultdict(deque)
    for _t, _late, rank, _index, kind, args in spans:
        peer, tag, channel = args["peer"], args["tag"], args["channel"]
        seq = -1
        if kind == "send":
            seq = len(events)
            unreceived[channel, rank, peer, tag].append(seq)
        elif kind == "recv":
            waiting = unreceived[channel, peer, rank, tag]
            seq = waiting.popleft() if waiting else -1
        events.append(CommEvent(
            kind, rank, orders[rank], channel, peer, tag, seq, args.get("elements", 0)
        ))
        orders[rank] += 1
    return RunRecord(world_size, events, results, errors)
