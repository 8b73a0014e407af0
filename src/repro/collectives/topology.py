"""Communication topologies used by the collective algorithms.

The activation phase of a partial collective broadcasts a small message
along a *binomial tree rooted at the initiator* (the union of ``P``
binomial trees described in Section 4.1.1 of the paper); the reduction
itself uses *recursive doubling* (hypercube exchange).  This module
provides the pure rank arithmetic for the trees, and the rank -> host map
the hierarchical collectives query.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple


def _validate(size: int, rank: int = 0, root: int = 0) -> None:
    if size < 1:
        raise ValueError(f"world size must be >= 1, got {size}")
    if not 0 <= rank < size:
        raise ValueError(f"rank {rank} out of range for size {size}")
    if not 0 <= root < size:
        raise ValueError(f"root {root} out of range for size {size}")


def tree_depth(size: int) -> int:
    """Depth of a binomial broadcast tree over ``size`` ranks."""
    _validate(size)
    return int(math.ceil(math.log2(size))) if size > 1 else 0


def activation_children(
    offset: int, incoming_class: int, size: int
) -> List[Tuple[int, int]]:
    """The activation dissemination rule of the partial collectives.

    A rank at ``offset`` from the initiator that was first activated via
    distance class ``incoming_class`` (``-1``: it *is* the initiator)
    forwards to the offsets ``offset + 2^j`` for every ``j >
    incoming_class`` while they stay below ``size``; the result lists
    ``(child_offset, j)``.  Offsets **never wrap**, so each offset in
    ``[1, size)`` has exactly one parent (strip the top set bit) and
    activation reaches every rank under *any* message delivery order.
    The earlier ``mod P`` variant aliased two tree positions onto one rank
    at non-power-of-two sizes; a rank whose first activation arrived via
    the aliased (higher) class then skipped its low-class forwards and
    could strand part of the world.

    This is the one statement of the rule: the progress thread
    (:meth:`repro.collectives.partial.PartialAllreduce._forward_activation`)
    sends along it and the verifier
    (:func:`repro.analysis.schedule_verifier.check_dissemination`)
    explores it.  Offsets are initiator-relative, which is what makes the
    pattern the union of ``P`` binomial trees of Section 4.1.1.
    """
    children = []
    for j in range(incoming_class + 1, tree_depth(size)):
        child = offset + (1 << j)
        if child >= size:
            break
        children.append((child, j))
    return children


def binomial_tree_children(rank: int, size: int, root: int = 0) -> List[int]:
    """Children of ``rank`` in the binomial tree rooted at ``root``.

    The tree is defined on *relative* ranks ``v = (rank - root) mod size``
    by the doubling broadcast recursion: in round ``k`` (``k = 0, 1, ...``)
    every already-reached rank ``v < 2^k`` sends to ``v + 2^k`` when that
    target exists.  A rank ``v > 0`` is therefore first reached in the
    round given by its highest set bit and forwards in every later round:
    the tree is :func:`activation_children` followed from the class each
    rank is reached in (-1 for the root, which starts sending in round 0).
    """
    _validate(size, rank, root)
    v = (rank - root) % size
    return [
        (child + root) % size
        for child, _ in activation_children(v, v.bit_length() - 1, size)
    ]


def binomial_tree_parent(rank: int, size: int, root: int = 0) -> int:
    """Parent of ``rank`` in the binomial tree rooted at ``root``.

    The root's parent is itself.
    """
    _validate(size, rank, root)
    v = (rank - root) % size
    if v == 0:
        return root
    # Clear the highest set bit to obtain the parent's relative rank.
    parent_v = v & ~(1 << (v.bit_length() - 1))
    return (parent_v + root) % size


def largest_power_of_two_leq(n: int) -> int:
    """Largest power of two that is ``<= n``."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return 1 << (n.bit_length() - 1)


def bcast_order(size: int, root: int = 0) -> List[Tuple[int, int]]:
    """Flattened ``(sender, receiver)`` edge list of the binomial broadcast.

    The edges are listed level by level, which is the order in which they
    can first be scheduled; the intra-host reduce and broadcast edge lists
    below are built from it.
    """
    _validate(size, root=root)
    edges: List[Tuple[int, int]] = []
    frontier = [root]
    reached = {root}
    while len(reached) < size:
        next_frontier: List[int] = []
        for sender in frontier:
            for child in binomial_tree_children(sender, size, root):
                if child not in reached:
                    edges.append((sender, child))
                    reached.add(child)
                    next_frontier.append(child)
        if not next_frontier:
            # Defensive: should never happen for a correct tree.
            missing = sorted(set(range(size)) - reached)
            raise RuntimeError(f"broadcast tree did not reach ranks {missing}")
        frontier = next_frontier
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


def intra_reduce_edges(topology: HostTopology, host: int) -> List[Tuple[int, int]]:
    """``(sender, receiver)`` edges of the intra-host reduce to the leader.

    The reduction runs the binomial broadcast tree *in reverse*: leaves
    send first, inner nodes combine their subtree before forwarding, so
    the leader performs ``O(log n)`` receives instead of ``n - 1``.  The
    edge list is ordered so every sender appears only after all of its
    own children have sent (a valid sequential reduce schedule).
    """
    local = topology.ranks_on_host(host)
    n = len(local)
    if n == 1:
        return []
    # Reverse of the broadcast edge order: deepest edges first.
    edges = bcast_order(n, root=0)
    return [(local[child], local[parent]) for parent, child in reversed(edges)]


def intra_bcast_edges(topology: HostTopology, host: int) -> List[Tuple[int, int]]:
    """``(sender, receiver)`` edges broadcasting the result from the leader."""
    local = topology.ranks_on_host(host)
    if len(local) == 1:
        return []
    return [
        (local[src], local[dst]) for src, dst in bcast_order(len(local), root=0)
    ]
