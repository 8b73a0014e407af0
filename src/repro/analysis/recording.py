"""Recording communicator: run a collective, capture its message graph.

The schedule verifier needs the *global send/recv multigraph* of a
collective — who sends what tag to whom, and which receive consumes which
send — without caring about payload bandwidth.  This module provides a
:class:`RecordingWorld` of :class:`RecordingCommunicator` endpoints
(satisfying :class:`repro.comm.backend.CommunicatorLike`) that execute
the *real* collective code per rank on an in-process router, while
logging every send and receive as a :class:`CommEvent`.

Payloads are tiny integer certificate vectors (a few dozen elements),
so a full sweep over every registered schedule at P up to 64 runs in
seconds; the graph properties (match-completeness, tag soundness,
deadlock freedom) are read off the event log alone, and the certificates
prove reduction coverage exactly (integer ``float64`` arithmetic below
``2**53`` is exact).

Receives carry a short timeout: a deliberately broken schedule does not
hang the verifier — the starved receive is logged (kind ``"starved"``)
and the checkers classify it as a deadlock cycle or a lost message.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.collectives.topology import HostTopology
from repro.comm.communicator import Communicator
from repro.comm.mailbox import land
from repro.comm.message import ANY_SOURCE, ANY_TAG, Message
from repro.comm.router import Channel, DEFAULT_CHANNELS, Router


class RecvStarvedError(RuntimeError):
    """A recorded receive timed out: the matching send never arrived."""


class CommEvent(NamedTuple):
    """One recorded communication action of one rank.

    ``kind`` is ``"send"``, ``"recv"`` or ``"starved"``.  ``peer`` is the
    destination rank of a send, the *matched* source of a receive, and
    the awaited source of a starved receive.  ``seq`` is the router's
    globally unique message id — a receive carries the seq of the send it
    consumed, which is what turns the log into an exact send↔recv
    pairing.  ``order`` is the per-rank program index (total order within
    the rank), the program-order edges of the deadlock check.
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
        """Rank failures that are *not* recorded starvations."""
        return [
            (rank, err)
            for rank, err in enumerate(self.errors)
            if err is not None and not isinstance(err, RecvStarvedError)
        ]


def _payload_elements(payload: Any) -> int:
    if isinstance(payload, np.ndarray):
        return int(payload.size)
    return 0


class RecordingCommunicator(Communicator):
    """A :class:`Communicator` that logs every send/recv it performs.

    Behaviour is identical to the thread transport (same router, same
    mailboxes, same eager-send semantics), so the schedule that runs here
    is byte-for-byte the schedule that runs in production — only with an
    event log on the side and a short receive timeout instead of the
    2-minute production safety net.
    """

    def __init__(
        self,
        world: "RecordingWorld",
        rank: int,
        channel: str = Channel.APP,
    ) -> None:
        super().__init__(
            world.router, rank, channel=channel,
            default_timeout=world.recv_timeout,
        )
        self._world = world

    # ------------------------------------------------------------- record
    def _record(self, kind: str, peer: int, tag: int, seq: int, elements: int) -> None:
        self._world.record(
            CommEvent(
                kind=kind,
                rank=self._rank,
                order=self._world.next_order(self._rank),
                channel=self._channel,
                peer=peer,
                tag=tag,
                seq=seq,
                elements=elements,
            )
        )

    # --------------------------------------------------------------- send
    def _deliver(self, payload: Any, dest: int, tag: int) -> Message:
        msg = super()._deliver(payload, dest, tag)
        self._record("send", msg.dest, msg.tag, msg.seq, _payload_elements(payload))
        return msg

    # --------------------------------------------------------------- recv
    def recv_message(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        timeout: Optional[float] = None,
    ) -> Message:
        effective = self.default_timeout if timeout is None else min(
            timeout, self.default_timeout
        )
        try:
            msg = self._mailbox.get(source, tag, timeout=effective)
        except TimeoutError:
            self._record("starved", source, int(tag), -1, 0)
            raise RecvStarvedError(
                f"rank {self._rank}/{self._channel}: no matching send for "
                f"recv(source={source}, tag={tag}) within {effective}s"
            ) from None
        self._record(
            "recv", msg.source, msg.tag, msg.seq, _payload_elements(msg.payload)
        )
        return msg

    def recv_into(self, out, source: int, tag: int, op=None) -> None:
        land(out, self.recv_message(source, tag).payload, op)

    def poll(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Optional[Any]:
        msg = self._mailbox.poll(source, tag)
        if msg is None:
            return None
        self._record(
            "recv", msg.source, msg.tag, msg.seq, _payload_elements(msg.payload)
        )
        return msg.payload

    # ---------------------------------------------------------------- dup
    def dup(self, channel: Optional[str] = None) -> "RecordingCommunicator":
        return RecordingCommunicator(
            self._world, self._rank, channel=channel or self._channel
        )


class RecordingWorld:
    """A thread-per-rank world whose communicators log every message.

    Parameters
    ----------
    world_size:
        Number of ranks.
    channels:
        Router channels to create (the production default set).
    host_topology:
        When given, exposed as ``router.host_topology`` so hierarchical
        collectives discover it exactly the way they discover the ``hier``
        backend's topology.
    recv_timeout:
        Per-receive timeout; broken schedules surface as recorded
        starvation after this many seconds instead of hanging.
    """

    def __init__(
        self,
        world_size: int,
        channels: Sequence[str] = DEFAULT_CHANNELS,
        host_topology: Optional[HostTopology] = None,
        recv_timeout: float = 30.0,
    ) -> None:
        self.world_size = int(world_size)
        self.router = Router(self.world_size, channels)
        if host_topology is not None:
            self.router.host_topology = host_topology
        self.recv_timeout = float(recv_timeout)
        self.events: List[CommEvent] = []
        self._lock = threading.Lock()
        self._orders = [0] * self.world_size

    # ---------------------------------------------------------- recording
    def record(self, event: CommEvent) -> None:
        with self._lock:
            self.events.append(event)

    def next_order(self, rank: int) -> int:
        with self._lock:
            order = self._orders[rank]
            self._orders[rank] = order + 1
            return order

    # -------------------------------------------------------------- world
    def communicator(
        self, rank: int, channel: str = Channel.APP
    ) -> RecordingCommunicator:
        return RecordingCommunicator(self, rank, channel=channel)

    def run(self, fn: Callable[[RecordingCommunicator], Any]) -> RunRecord:
        """Run ``fn(comm)`` on every rank (one thread each) and record.

        Exceptions — including :class:`RecvStarvedError` from timed-out
        receives — are captured per rank, never raised: the checkers
        decide what a failure means.
        """
        results: List[Any] = [None] * self.world_size
        errors: List[Optional[BaseException]] = [None] * self.world_size

        def worker(rank: int) -> None:
            try:
                results[rank] = fn(self.communicator(rank))
            except BaseException as exc:  # noqa: BLE001 - recorded, not raised
                errors[rank] = exc

        threads = [
            threading.Thread(target=worker, args=(rank,), name=f"verify-rank-{rank}")
            for rank in range(self.world_size)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        with self._lock:
            events = list(self.events)
        return RunRecord(
            world_size=self.world_size,
            events=events,
            results=results,
            errors=errors,
        )
