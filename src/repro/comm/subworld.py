"""Rank-subset views of a communicator: several SPMD groups, one fabric.

The serving tier co-schedules a *training world* and a *serving pool* on
the same launched world (`python -m repro serve`): ranks ``[0, T)`` run
data-parallel SGD while ranks ``[T, P)`` serve inference traffic.  The
training ranks still want the whole collectives layer — allreduce,
barrier, the fused exchange — but spanning only their subset.

:class:`SubsetCommunicator` provides that: a view over a parent
communicator that renumbers a chosen subset of global ranks as a dense
``[0, size)`` world and translates every source/destination through the
mapping.  The synchronous collectives run on it verbatim because they are
*source-explicit* (every receive names its peer), so two disjoint subsets
can run collectives concurrently on the same channel without stealing
each other's messages: tags may coincide, but the (source, tag) match
never does.

The view deliberately does **not** support wildcard receives
(``source=ANY_SOURCE``): a wildcard could match a message from outside
the subset, silently breaking the group abstraction.  Every layer the
subset view is meant for (the sync collectives, the dissemination
barrier, the serving protocol) names its sources.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional, Sequence, Tuple

from repro.comm.communicator import Communicator
from repro.comm.message import ANY_SOURCE, ANY_TAG, Message
from repro.comm.requests import RecvRequest, Request


class SubsetCommunicator:
    """A dense-rank view over a subset of a parent communicator's world.

    Parameters
    ----------
    parent:
        The full-world communicator of *this* rank.  The parent's global
        rank must be a member of ``ranks``.
    ranks:
        Global ranks of the subset, in the order that defines the view's
        rank numbering (``ranks[i]`` is view rank ``i``).  Must be
        distinct and within the parent world.
    """

    def __init__(self, parent: Communicator, ranks: Sequence[int]) -> None:
        ranks = [int(r) for r in ranks]
        if len(set(ranks)) != len(ranks):
            raise ValueError(f"subset ranks must be distinct, got {ranks}")
        for r in ranks:
            if not 0 <= r < parent.size:
                raise ValueError(
                    f"subset rank {r} outside the parent world [0, {parent.size})"
                )
        if parent.rank not in ranks:
            raise ValueError(
                f"parent rank {parent.rank} is not a member of the subset {ranks}"
            )
        self._parent = parent
        self._ranks: Tuple[int, ...] = tuple(ranks)
        self._index = {g: i for i, g in enumerate(self._ranks)}
        self._rank = self._index[parent.rank]
        self._barrier_epoch = 0
        self._collective_epochs = itertools.count()

    # -------------------------------------------------------------- meta
    @property
    def rank(self) -> int:
        """This endpoint's rank *within the subset*."""
        return self._rank

    @property
    def size(self) -> int:
        """Number of ranks in the subset."""
        return len(self._ranks)

    @property
    def channel(self) -> str:
        return self._parent.channel

    @property
    def default_timeout(self) -> float:
        """The parent's receive deadline, which is the world's."""
        return self._parent.default_timeout

    @property
    def parent(self) -> Communicator:
        """The underlying full-world communicator."""
        return self._parent

    @property
    def global_ranks(self) -> Tuple[int, ...]:
        """Global rank of each view rank, in view-rank order."""
        return self._ranks

    def global_rank(self, view_rank: int) -> int:
        """Translate a view rank to its global rank."""
        return self._ranks[view_rank]

    def dup(self, channel: Optional[str] = None) -> "SubsetCommunicator":
        """The same subset view on another channel of the parent world."""
        return SubsetCommunicator(self._parent.dup(channel), self._ranks)

    # -------------------------------------------------------- translation
    def _to_global(self, view_rank: int, what: str) -> int:
        view_rank = int(view_rank)
        if not 0 <= view_rank < len(self._ranks):
            raise ValueError(
                f"{what} rank {view_rank} outside the subset [0, {len(self._ranks)})"
            )
        return self._ranks[view_rank]

    def _require_member(self, source: int) -> int:
        if source == ANY_SOURCE:
            raise ValueError(
                f"SubsetCommunicator does not support wildcard receives "
                f"(source={source}): a wildcard could match a sender outside "
                f"the subset {self._ranks}; name the source rank explicitly"
            )
        return self._to_global(source, "source")

    # ----------------------------------------------------------------- p2p
    def send(self, payload: Any, dest: int, tag: int = 0) -> None:
        self._parent.send(payload, self._to_global(dest, "dest"), tag=tag)

    def isend(self, payload: Any, dest: int, tag: int = 0) -> Request:
        return self._parent.isend(payload, self._to_global(dest, "dest"), tag=tag)

    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        timeout: Optional[float] = None,
    ) -> Any:
        return self.recv_message(source, tag, timeout=timeout).payload

    def recv_message(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        timeout: Optional[float] = None,
    ) -> Message:
        return self._parent.recv_message(
            self._require_member(source), tag, timeout=timeout
        )

    def recv_into(self, out, source: int, tag: int, op=None) -> None:
        self._parent.recv_into(out, self._require_member(source), tag, op)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> RecvRequest:
        return self._parent.irecv(self._require_member(source), tag)

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> bool:
        return self._parent.probe(self._require_member(source), tag)

    def poll(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Optional[Any]:
        return self._parent.poll(self._require_member(source), tag)

    # ------------------------------------------------------------- barrier
    #: Dissemination barrier over the subset only: the parent class's own
    #: body (same algorithm and tag layout) run on this view's ``size`` /
    #: ``_rank`` / ``send`` / ``recv``, so the distance arithmetic is in
    #: view-rank space and only subset members participate.  The view
    #: keeps its own ``_barrier_epoch`` and ``_collective_epochs``: the
    #: parent's are left untouched, and disjoint subsets stay separated
    #: by their explicit (source, tag) matches.
    barrier = Communicator.barrier
    next_collective_epoch = Communicator.next_collective_epoch

    # ---------------------------------------------------------------- misc
    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"SubsetCommunicator(rank={self._rank}/{self.size}, "
            f"global={self._ranks}, channel={self.channel!r})"
        )
