"""In-process router connecting all rank mailboxes.

The router is the "network": a send is a copy of the payload followed by a
``put`` into the destination mailbox.  Each rank owns one mailbox per
*channel*; channels keep the traffic of the application thread and of the
communication-library progress thread (Section 4.3 of the paper) disjoint,
so that a partial collective progressing in the background can never steal
messages intended for a synchronous collective issued by the application,
and vice versa.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Dict, Iterable, Sequence, Tuple

from repro.comm.mailbox import Mailbox
from repro.comm.message import Message


@dataclass(frozen=True)
class Channel:
    """Well-known channel names."""

    APP: str = "app"
    LIB: str = "lib"
    ACTIVATION: str = "activation"


#: Channels created by default for every rank.
DEFAULT_CHANNELS: Tuple[str, ...] = (Channel.APP, Channel.LIB, Channel.ACTIVATION)


def is_declared_channel(channels: Sequence[str], name: str) -> bool:
    """The channel-name rule, stated once for every transport.

    ``True`` when ``name`` is one of ``channels``; ``False`` when it is a
    valid dynamic sub-channel — ``"<known>.<suffix>"``, a declared name
    plus a dotted suffix — that its caller creates on first use.  Any
    other name raises ``KeyError`` immediately, so typos fail fast
    instead of stalling a receiver on an empty mailbox.
    """
    if name in channels:
        return True
    base = name.split(".", 1)[0]
    if base == name or base not in channels:
        raise KeyError(
            f"unknown channel {name!r}; available: {tuple(channels)} "
            f"(plus '<known>.<suffix>' dynamic sub-channels)"
        )
    return False


class Router:
    """Delivers messages between ranks inside one process.

    Parameters
    ----------
    world_size:
        Number of ranks.
    channels:
        Channel names to create for every rank.
    """

    def __init__(
        self, world_size: int, channels: Iterable[str] = DEFAULT_CHANNELS
    ) -> None:
        if world_size < 1:
            raise ValueError(f"world_size must be >= 1, got {world_size}")
        self.world_size = int(world_size)
        self.channels: Tuple[str, ...] = tuple(channels)
        if not self.channels:
            raise ValueError(f"at least one channel is required, got {channels!r}")
        self._mailboxes: Dict[Tuple[int, str], Mailbox] = {
            (rank, ch): Mailbox(rank, ch)
            for rank in range(self.world_size)
            for ch in self.channels
        }
        self._seq = itertools.count()
        self._lock = threading.Lock()
        self._message_count = 0
        self._byte_count = 0
        self._closed = False

    # ------------------------------------------------------------- access
    def mailbox(self, rank: int, channel: str) -> Mailbox:
        """Return the mailbox for ``(rank, channel)``.

        Channels of the form ``"<known>.<suffix>"`` (see
        :func:`is_declared_channel`) are created on first use, for every
        rank of the world, so sender and receiver always agree on the
        endpoint set.  Dynamic sub-channels let higher layers open
        private lanes, e.g. one ``lib.bucketN``/``activation.bucketN``
        pair per fusion bucket of the gradient exchange, without
        pre-declaring them at world creation.
        """
        self._check_rank(rank)
        mailbox = self._mailboxes.get((rank, channel))
        if mailbox is None:
            with self._lock:
                if not is_declared_channel(self.channels, channel):
                    for r in range(self.world_size):
                        box = Mailbox(r, channel)
                        if self._closed:
                            box.close()
                        self._mailboxes[(r, channel)] = box
                    self.channels = self.channels + (channel,)
            mailbox = self._mailboxes[(rank, channel)]
        return mailbox

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.world_size:
            raise ValueError(
                f"rank {rank} out of range for world of size {self.world_size}"
            )

    # ------------------------------------------------------------ deliver
    def deliver(self, message: Message, channel: str) -> None:
        """Route ``message`` to its destination mailbox on ``channel``."""
        self._check_rank(message.dest)
        self._check_rank(message.source)
        message.seq = next(self._seq)
        with self._lock:
            self._message_count += 1
            self._byte_count += message.nbytes()
        self.mailbox(message.dest, channel).put(message)

    # ------------------------------------------------------------- stats
    @property
    def message_count(self) -> int:
        """Total number of messages delivered so far."""
        with self._lock:
            return self._message_count

    @property
    def byte_count(self) -> int:
        """Total number of array payload bytes delivered so far."""
        with self._lock:
            return self._byte_count

    def pending_messages(self) -> int:
        """Number of delivered-but-unreceived messages across all mailboxes."""
        with self._lock:
            mailboxes = list(self._mailboxes.values())
        return sum(mb.pending() for mb in mailboxes)

    # -------------------------------------------------------------- close
    def close(self) -> None:
        """Close every mailbox (wakes all blocked receivers).

        Dynamic sub-channels created after (or concurrently with) the
        close are born closed, so a straggler rank blocked on one is
        woken with :class:`~repro.comm.mailbox.MailboxClosed` instead of
        hanging until its receive timeout.
        """
        with self._lock:
            self._closed = True
            mailboxes = list(self._mailboxes.values())
        for mb in mailboxes:
            mb.close()
