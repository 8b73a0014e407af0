"""Nonblocking communication requests (``isend`` / ``irecv``).

The thread transport delivers sends eagerly (a send never blocks), so a
:class:`SendRequest` is complete upon creation.  A :class:`RecvRequest`
wraps a deferred matching receive and supports ``test`` / ``wait`` in the
style of ``mpi4py`` requests.
"""

from __future__ import annotations

import threading
from typing import Any, Optional

from repro.comm.mailbox import Mailbox
from repro.comm.message import Message


class Request:
    """Base class for nonblocking communication requests."""

    def test(self) -> bool:
        """Return ``True`` if the operation has completed (non-blocking)."""
        raise NotImplementedError

    def wait(self, timeout: Optional[float] = None) -> Any:
        """Block until the operation completes and return its result."""
        raise NotImplementedError


class SendRequest(Request):
    """A completed send (the eager transport copies on send)."""

    def __init__(self, message: Message) -> None:
        self.message = message

    def test(self) -> bool:
        return True

    def wait(self, timeout: Optional[float] = None) -> None:
        return None


class RecvRequest(Request):
    """A pending receive matched lazily against the owner's mailbox;
    :meth:`wait` defaults to ``default_timeout`` (its communicator's
    deadline) and raises :class:`~repro.comm.mailbox.CommTimeoutError`."""

    def __init__(
        self, mailbox: Mailbox, source: int, tag: int, default_timeout: float
    ) -> None:
        self._mailbox = mailbox
        self._source = source
        self._tag = tag
        self._default_timeout = default_timeout
        self._result: Optional[Message] = None
        self._lock = threading.Lock()

    def test(self) -> bool:
        with self._lock:
            if self._result is not None:
                return True
            msg = self._mailbox.poll(self._source, self._tag)
            if msg is not None:
                self._result = msg
                return True
            return False

    def wait(self, timeout: Optional[float] = None) -> Any:
        with self._lock:
            if self._result is None:
                self._result = self._mailbox.get(
                    self._source, self._tag,
                    timeout=self._default_timeout if timeout is None else timeout,
                )
            return self._result.payload

    @property
    def message(self) -> Optional[Message]:
        """The matched message, or ``None`` if not yet completed."""
        with self._lock:
            return self._result
