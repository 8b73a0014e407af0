"""Communication topologies used by the collective algorithms.

The activation phase of a partial collective is the binomial broadcast
rooted at the round's initiator: one of the ``P`` binomial trees whose
union Section 4.1.1 of the paper describes.  The reduction itself uses
*recursive doubling* (hypercube exchange).  This module provides the
pure rank arithmetic of the tree (:func:`binomial_tree_children`, the one
forwarding rule, and :func:`bcast_order`, the edge list that
:mod:`repro.collectives.sync` builds the intra-host trees and the
activation plan from), and the rank -> host map the hierarchical
collectives query (:class:`HostTopology`) with its one resolver
(:func:`resolve_host_topology`).
"""

from __future__ import annotations

import os
from collections.abc import Sequence as _SequenceABC
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

#: Environment variable carrying a ``"0,0,1,1"``-style rank -> host spec:
#: the layout the ``hier`` backend launches when no option names one.
HOST_TOPOLOGY_ENV_VAR = "REPRO_HOST_TOPOLOGY"


def _validate(size: int, rank: int = 0, root: int = 0) -> None:
    if size < 1:
        raise ValueError(f"world size must be >= 1, got {size}")
    if not 0 <= rank < size:
        raise ValueError(f"rank {rank} out of range for size {size}")
    if not 0 <= root < size:
        raise ValueError(f"root {root} out of range for size {size}")


def binomial_tree_children(rank: int, size: int, root: int = 0) -> List[int]:
    """Children of ``rank`` in the binomial tree rooted at ``root``: the
    forwarding rule of every binomial broadcast here, the partial
    collectives' activation included.

    The tree is the doubling broadcast on offsets ``v = (rank - root) mod
    size``: in round ``k`` every reached offset ``v < 2^k`` sends to ``v +
    2^k`` while that stays below ``size``.  So ``v`` is reached in the
    round of its top set bit and forwards to ``v + 2^j`` for every higher
    ``j``.  Offsets never wrap: each ``v`` in ``[1, size)`` has one
    parent, ``v`` with its top set bit stripped, and a message reaches
    ``v`` after ``popcount(v)`` hops.  Because the round a rank is reached
    in is a function of its offset, an activation needs to carry only its
    initiator, and whom a rank forwards to does not depend on the order
    messages arrive in.
    """
    _validate(size, rank, root)
    v = (rank - root) % size
    children = []
    j = v.bit_length()
    while v + (1 << j) < size:
        children.append((root + v + (1 << j)) % size)
        j += 1
    return children


def largest_power_of_two_leq(n: int) -> int:
    """Largest power of two that is ``<= n``."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return 1 << (n.bit_length() - 1)


def bcast_order(size: int, root: int = 0) -> List[Tuple[int, int]]:
    """Flattened ``(sender, receiver)`` edge list of the binomial broadcast.

    The edges are listed level by level, which is the order in which they
    can first be scheduled, each sender's in
    :func:`binomial_tree_children`'s order; every rank but the root is
    the receiver of exactly one edge.
    """
    _validate(size, root=root)
    edges: List[Tuple[int, int]] = []
    frontier = [root]
    while frontier:
        level = [
            (sender, child)
            for sender in frontier
            for child in binomial_tree_children(sender, size, root)
        ]
        edges += level
        frontier = [child for _, child in level]
    return edges


# ---------------------------------------------------------------------------
# Host topology: the rank -> host map that hierarchical collectives query.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HostTopology:
    """Explicit rank-to-host assignment of a (possibly multi-host) world.

    The topology is the single source of truth the two-tier collectives
    use to split intra-host from inter-host traffic: every host elects a
    *leader* (its lowest rank), non-leaders only ever talk to their own
    leader, and leaders exchange among themselves over the (slow)
    inter-host links.

    ``host_of`` maps each rank to an opaque host label.  Labels are
    canonicalised to dense indices ``0..num_hosts-1`` in order of first
    appearance, so ``HostTopology(["a", "a", "b"])`` and
    ``HostTopology([0, 0, 1])`` describe the same fabric.
    """

    #: Canonical rank -> host-index map (dense, first-appearance order).
    host_of: Tuple[int, ...] = field(default=())

    def __init__(self, host_of: Sequence[object]) -> None:
        if len(host_of) < 1:
            raise ValueError(f"host topology needs at least one rank, got {host_of!r}")
        canonical: Dict[object, int] = {}
        dense: List[int] = []
        ranks_by_host: List[List[int]] = []
        local_index: List[int] = []
        for rank, label in enumerate(host_of):
            if label not in canonical:
                canonical[label] = len(canonical)
                ranks_by_host.append([])
            members = ranks_by_host[canonical[label]]
            dense.append(canonical[label])
            local_index.append(len(members))
            members.append(rank)
        object.__setattr__(self, "host_of", tuple(dense))
        # The host -> ranks table the queries below read, built once.
        object.__setattr__(self, "_ranks_by_host", tuple(map(tuple, ranks_by_host)))
        object.__setattr__(self, "_local_index", tuple(local_index))

    # -- constructors ------------------------------------------------------

    @classmethod
    def single_host(cls, world_size: int) -> "HostTopology":
        """All ranks on one host (the degenerate flat topology)."""
        if world_size < 1:
            raise ValueError(f"world size must be >= 1, got {world_size}")
        return cls([0] * world_size)

    @classmethod
    def from_string(cls, spec: str) -> "HostTopology":
        """Parse ``"0,0,1,1"``-style rank->host specs (REPRO_HOST_TOPOLOGY).

        Each comma-separated entry is the host label of the rank at that
        position.  Labels need not be numeric: ``"a,a,b,b"`` works too.
        """
        labels = [s.strip() for s in spec.split(",") if s.strip()]
        if not labels:
            raise ValueError(f"empty host topology spec {spec!r}")
        return cls(labels)

    @classmethod
    def from_hosts(cls, ranks_per_host: Sequence[int]) -> "HostTopology":
        """Build a topology from per-host rank counts, e.g. ``[3, 1]``."""
        if not ranks_per_host or any(n < 1 for n in ranks_per_host):
            raise ValueError(
                f"ranks_per_host entries must be >= 1, got {list(ranks_per_host)}"
            )
        labels: List[int] = []
        for host, count in enumerate(ranks_per_host):
            labels.extend([host] * count)
        return cls(labels)

    # -- queries -----------------------------------------------------------

    @property
    def world_size(self) -> int:
        return len(self.host_of)

    @property
    def num_hosts(self) -> int:
        return len(self._ranks_by_host)

    @property
    def is_single_host(self) -> bool:
        return self.num_hosts == 1

    def host(self, rank: int) -> int:
        """Host index of ``rank``."""
        _validate(self.world_size, rank)
        return self.host_of[rank]

    def ranks_on_host(self, host: int) -> Tuple[int, ...]:
        """All ranks placed on ``host``, in ascending rank order."""
        if not 0 <= host < self.num_hosts:
            raise ValueError(f"host {host} out of range for {self.num_hosts} hosts")
        return self._ranks_by_host[host]

    def local_ranks(self, rank: int) -> Tuple[int, ...]:
        """All ranks sharing ``rank``'s host (including ``rank`` itself)."""
        return self.ranks_on_host(self.host(rank))

    def local_index(self, rank: int) -> int:
        """Position of ``rank`` within its host group (0 = the leader)."""
        _validate(self.world_size, rank)
        return self._local_index[rank]

    def leader_of(self, host: int) -> int:
        """The leader (lowest rank) of ``host``."""
        return self.ranks_on_host(host)[0]

    @property
    def leaders(self) -> Tuple[int, ...]:
        """Per-host leader ranks, indexed by host."""
        return tuple(ranks[0] for ranks in self._ranks_by_host)

    def is_leader(self, rank: int) -> bool:
        return self.leader_of(self.host(rank)) == rank

    def to_string(self) -> str:
        """Inverse of :meth:`from_string` (canonical labels)."""
        return ",".join(str(h) for h in self.host_of)


def resolve_host_topology(layout: Any, world_size: int) -> HostTopology:
    """The host layout of a ``world_size``-rank world: the one resolver the
    ``hier`` backend, the collectives, ``TrainingConfig.validate()`` and
    the tuner read.

    ``layout`` is a :class:`HostTopology`, a ``"0,0,1,1"``-style spec or a
    rank -> host label sequence; a communicator (the layout its transport
    exposes as ``router.host_topology``, else one host); or ``None``, the
    ``hier`` backend's default (``$REPRO_HOST_TOPOLOGY``, else one host).
    A layout of another size raises ``ValueError``: a stale or mis-sized
    layout must not silently reshape a schedule.
    """
    if layout is None:
        layout = os.environ.get(HOST_TOPOLOGY_ENV_VAR) or HostTopology.single_host(world_size)
    if isinstance(layout, HostTopology):
        topology = layout
    elif isinstance(layout, str):
        topology = HostTopology.from_string(layout)
    elif isinstance(layout, _SequenceABC):
        topology = HostTopology(layout)
    else:
        exposed = getattr(getattr(layout, "router", None), "host_topology", None)
        topology = exposed or HostTopology.single_host(world_size)
    if topology.world_size != world_size:
        raise ValueError(
            f"host topology covers {topology.world_size} rank(s), expected {world_size}"
        )
    return topology
