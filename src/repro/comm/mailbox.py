"""Per-rank mailbox with tag/source matching.

A mailbox is an unbounded thread-safe queue of :class:`Message` objects
plus the matching logic needed for MPI-like semantics: a receiver may ask
for a message from a specific source and/or with a specific tag, and
messages that do not match stay queued for later receives (out-of-order
matching, FIFO per matching key).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Deque, Optional

import numpy as np

from repro.comm import tags
from repro.comm.message import ANY_SOURCE, ANY_TAG, Message


class MailboxClosed(RuntimeError):
    """Raised when receiving from (or delivering to) a closed mailbox."""


class CommTimeoutError(TimeoutError):
    """A blocking receive exceeded its deadline."""


def land(out: np.ndarray, payload: Any, op: Any = None) -> None:
    """Write ``payload`` into ``out`` or, with ``op``, combine it in
    (``op.combine_into``): what a receive into caller memory does with a
    message, staged or in place.  Anything but an array of ``out``'s
    dtype and size raises; nothing is cast or truncated."""
    is_array = isinstance(payload, np.ndarray)
    if not (is_array and payload.dtype == out.dtype and payload.size == out.size):
        got = f"{payload.dtype} x {payload.size}" if is_array else type(payload).__name__
        raise ValueError(f"received {got} for a receive into {out.dtype} x {out.size}")
    incoming = payload.reshape(out.shape)
    if op is None:
        np.copyto(out, incoming)
    else:
        op.combine_into(out, incoming)


class Mailbox:
    """Thread-safe tagged message queue for one ``(rank, channel)`` endpoint."""

    def __init__(self, owner_rank: int, channel: str) -> None:
        self.owner_rank = owner_rank
        self.channel = channel
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._messages: Deque[Message] = deque()
        self._closed = False

    # ------------------------------------------------------------------ put
    def put(self, message: Message) -> None:
        """Deliver ``message`` into the mailbox (called by the router)."""
        with self._cond:
            if self._closed:
                raise MailboxClosed(
                    f"mailbox rank={self.owner_rank} channel={self.channel} is closed"
                )
            self._messages.append(message)
            self._cond.notify_all()

    # ------------------------------------------------------------------ get
    def _find(self, source: int, tag: int) -> Optional[Message]:
        for i, msg in enumerate(self._messages):
            if msg.matches(source, tag):
                del self._messages[i]
                return msg
        return None

    def get(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG, *, timeout: float
    ) -> Message:
        """Blocking receive of the first message matching ``(source, tag)``.

        Raises
        ------
        CommTimeoutError
            If ``timeout`` (seconds, finite) elapses with no matching message.
        MailboxClosed
            If the mailbox is closed and empty of matching messages.
        """
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                msg = self._find(source, tag)
                if msg is not None:
                    return msg
                self._cond.wait(self._remaining(deadline, source, tag))

    def _remaining(self, deadline: float, source: int, tag: int) -> float:
        """Seconds left until ``deadline`` (lock held); raises once the
        mailbox is closed or the deadline has passed."""
        if self._closed:
            raise MailboxClosed(
                f"mailbox rank={self.owner_rank} channel={self.channel} "
                "closed while waiting for a message"
            )
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise CommTimeoutError(
                f"rank {self.owner_rank}/{self.channel}: timed out waiting "
                f"for message from source={source} tag={tags.describe_tag(tag)}"
            )
        return remaining

    def get_into(
        self, out: np.ndarray, source: int, tag: int, op: Any = None, *, timeout: float
    ) -> None:
        """:meth:`get` the first matching message and :func:`land` it in ``out``."""
        land(out, self.get(source, tag, timeout=timeout).payload, op)

    def poll(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Optional[Message]:
        """Non-blocking receive; returns ``None`` if no matching message."""
        with self._cond:
            return self._find(source, tag)

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> bool:
        """Whether a matching message is queued (without consuming it)."""
        with self._cond:
            return any(m.matches(source, tag) for m in self._messages)

    # ---------------------------------------------------------------- admin
    def close(self) -> None:
        """Close the mailbox, waking any blocked receivers."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def pending(self) -> int:
        """Number of queued (unmatched) messages."""
        with self._lock:
            return len(self._messages)
