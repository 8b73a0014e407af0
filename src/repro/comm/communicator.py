"""Per-rank communicator handle.

A :class:`Communicator` binds a rank to a channel of the
:class:`~repro.comm.router.Router` and exposes MPI-like point-to-point
primitives.  Collective operations are layered on top of it in
:mod:`repro.collectives`.

Deadlines
---------
Every blocking receive waits at most its communicator's
``default_timeout``: one finite positive number per world, set by
``launch(default_recv_timeout=...)`` (default :data:`DEFAULT_TIMEOUT`)
and checked by :func:`check_deadline`.  The collectives, the barrier and
telemetry collection take no deadline of their own; only ``recv`` /
``recv_message`` accept a per-call ``timeout``,
for poll loops that want a shorter one.  A receive past its deadline
raises :class:`CommTimeoutError`.
"""

from __future__ import annotations

import copy
import itertools
import math
import numbers
from typing import Any, Optional

import numpy as np

from repro.comm.mailbox import CommTimeoutError
from repro.comm.message import ANY_SOURCE, ANY_TAG, Message
from repro.comm.router import Channel, Router
from repro.obs import recorder as _obs

#: The world's receive deadline, in seconds, unless ``launch`` is given
#: another.  Distributed-training deadlocks otherwise hang the test suite;
#: a generous-but-finite deadline converts them into actionable errors.
DEFAULT_TIMEOUT = 120.0


def check_deadline(seconds: Any, name: str = "default_recv_timeout") -> float:
    """``seconds`` as a deadline; anything but a finite positive number
    (``None``, ``0``, negatives, ``nan``, ``inf``) raises ``ValueError``
    naming ``name`` and the value."""
    if not (isinstance(seconds, numbers.Real) and 0 < seconds < math.inf):
        raise ValueError(
            f"{name} must be a finite positive number of seconds, got {seconds!r}"
        )
    return float(seconds)


class Communicator:
    """MPI-like communicator for one rank on one channel.

    Parameters
    ----------
    router:
        The shared in-process router.
    rank:
        This endpoint's rank in ``[0, world_size)``.
    channel:
        Router channel carrying this communicator's traffic.
    default_timeout:
        Deadline, in seconds, of every blocking receive that does not
        name its own (see *Deadlines* above).
    """

    def __init__(
        self,
        router: Router,
        rank: int,
        channel: str = Channel.APP,
        default_timeout: float = DEFAULT_TIMEOUT,
    ) -> None:
        self.default_timeout = check_deadline(default_timeout)
        self._router = router
        self._rank = int(rank)
        self._channel = channel
        self._mailbox = router.mailbox(rank, channel)
        self._collective_epochs = itertools.count()

    # -------------------------------------------------------------- meta
    @property
    def rank(self) -> int:
        """This endpoint's rank."""
        return self._rank

    @property
    def size(self) -> int:
        """World size."""
        return self._router.world_size

    @property
    def channel(self) -> str:
        """Channel name this communicator uses."""
        return self._channel

    @property
    def router(self) -> Router:
        """The underlying router (shared by all communicators)."""
        return self._router

    def dup(self, channel: Optional[str] = None) -> "Communicator":
        """Return a communicator for the same rank on another channel."""
        return Communicator(
            self._router,
            self._rank,
            channel=channel or self._channel,
            default_timeout=self.default_timeout,
        )

    # ----------------------------------------------------------- p2p send
    @staticmethod
    def _copy_payload(payload: Any) -> Any:
        if isinstance(payload, np.ndarray):
            return payload.copy()
        # Small control payloads (ints, tuples, dataclasses); deep-copy so
        # the receiver can never observe sender-side mutation.
        return copy.deepcopy(payload)

    def _outgoing(self, payload: Any, dest: int) -> Any:
        """The payload object a send may enqueue for ``dest``.

        Local delivery shares the object with the receiver's mailbox, so
        it must be copied.  Transports that *frame* remote payloads
        synchronously inside ``deliver`` (the socket and shared-memory
        meshes: the bytes are on the wire before the send returns)
        advertise ``remote_payloads_framed`` and skip the defensive copy
        for remote destinations — on a 4 MB gradient that is one full
        memory pass per hop.
        """
        if dest != self._rank and getattr(self._router, "remote_payloads_framed", False):
            return payload
        return self._copy_payload(payload)

    def _deliver(self, payload: Any, dest: int, tag: int) -> Message:
        dest = int(dest)
        msg = Message(
            source=self._rank, dest=dest, tag=int(tag),
            payload=self._outgoing(payload, dest),
        )
        rec = _obs.current()
        if rec is None:
            self._router.deliver(msg, self._channel)
        else:
            t0 = _obs.perf_counter_ns()
            self._router.deliver(msg, self._channel)
            _obs.record_send(rec, self._channel, self._rank, dest, msg.tag, payload, t0)
        return msg

    def send(self, payload: Any, dest: int, tag: int = 0) -> None:
        """Eager blocking send (copies/frames and enqueues)."""
        self._deliver(payload, dest, tag)

    # ----------------------------------------------------------- p2p recv
    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        timeout: Optional[float] = None,
    ) -> Any:
        """Blocking receive; returns the payload."""
        return self.recv_message(source, tag, timeout=timeout).payload

    def recv_message(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        timeout: Optional[float] = None,
    ) -> Message:
        """Blocking receive returning the full :class:`Message` envelope;
        ``timeout`` (seconds) overrides the communicator's deadline.

        Under a flight recorder a receive is a ``recv`` span, and one that
        runs out the world's deadline a ``recv-timeout`` span; a receive
        given its own ``timeout`` records nothing when that expires."""
        effective = self.default_timeout if timeout is None else timeout
        rec = _obs.current()
        if rec is None:
            return self._mailbox.get(source, tag, timeout=effective)
        t0 = _obs.perf_counter_ns()
        try:
            msg = self._mailbox.get(source, tag, timeout=effective)
        except CommTimeoutError:
            if timeout is None:
                _obs.record_timeout(rec, self._channel, source, tag, t0)
            raise
        _obs.record_recv(
            rec, self._channel, msg.source, self._rank, msg.tag, msg.payload, t0
        )
        return msg

    def recv_into(self, out: np.ndarray, source: int, tag: int, op: Any = None) -> None:
        """Blocking receive of one array message into ``out`` — written, or
        with a reduce ``op`` combined in; another dtype or size raises
        ``ValueError``.  On the process-model transports the frame lands
        straight in ``out`` (see :mod:`repro.comm.process_backend`)."""
        rec = _obs.current()
        t0 = 0 if rec is None else _obs.perf_counter_ns()
        try:
            self._mailbox.get_into(out, source, tag, op, timeout=self.default_timeout)
        except CommTimeoutError:
            if rec is not None:
                _obs.record_timeout(rec, self._channel, source, tag, t0)
            raise
        if rec is not None:
            _obs.record_recv(rec, self._channel, source, self._rank, tag, out, t0)

    def poll(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Optional[Any]:
        """Non-blocking receive; returns the payload or ``None``."""
        rec = _obs.current()
        t0 = 0 if rec is None else _obs.perf_counter_ns()
        msg = self._mailbox.poll(source, tag)
        if msg is None:
            return None
        if rec is not None:
            _obs.record_recv(
                rec, self._channel, msg.source, self._rank, msg.tag, msg.payload, t0
            )
        return msg.payload

    # ------------------------------------------------------------ barrier
    def barrier(self) -> None:
        """Return once every rank of this group has called ``barrier``.

        A zero-length recursive-doubling allreduce
        (:func:`~repro.collectives.sync.allreduce`, without its span):
        it draws one collective epoch, as every collective does, and no
        rank leaves its last exchange before every rank has entered the
        first (a non-power-of-two group's extras fold in and out).
        """
        from repro.collectives.sync import _allreduce

        _allreduce(self, np.empty(0))

    def next_collective_epoch(self) -> int:
        """Sequence number of this group's next collective.

        Every collective of :mod:`repro.collectives` draws one and mints
        its ``sync`` tags under it.  All ranks call collectives in the
        same (SPMD) order, so a local counter keeps the tag spaces
        aligned globally; pass-through proxies (which forward unknown
        attributes) share the counter of the communicator they wrap.
        """
        return next(self._collective_epochs)

    # --------------------------------------------------------------- misc
    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Communicator(rank={self._rank}, size={self.size}, "
            f"channel={self._channel!r})"
        )
