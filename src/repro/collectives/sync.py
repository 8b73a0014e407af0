"""Synchronous collectives, defined as compositions of collective *phases*.

A phase is one communication pattern with exactly one body in this
module.  Every collective — here and in :mod:`repro.collectives.sharding`
— draws one epoch from its communicator
(:meth:`~repro.comm.communicator.Communicator.next_collective_epoch`),
and its phases mint ``tags.sync_tag(epoch, phase, round, chunk)`` under
the phase ids of this table, the one place a phase id is assigned::

    id  phase                                    run by
     0  binomial-tree broadcast                  broadcast
     1  binomial-tree reduce                     reduce
     2  ring gather of arbitrary payloads        allgather
     3  pairwise full-vector exchange            recursive doubling
     4  ring reduce-scatter                      ring
     5  ring allgather                           ring
     6  recursive-halving reduce-scatter         Rabenseifner / halving
     7  recursive-doubling allgather             Rabenseifner / doubling
     8  fold-in of the non-power-of-two extras   recursive doubling, halving
     9  fold-out to the extras                   recursive doubling, doubling
    10  intra-host reduce onto the leader        hierarchical
    11  intra-host broadcast from the leader     hierarchical
    12  leader-ring reduce-scatter               hierarchical
    13  leader-ring allgather                    hierarchical
    14  sub-window scatter, leader -> members    hierarchical reduce_scatter
    15  sub-window gather, members -> leader     hierarchical allgather_flat

Every algorithm of the paper's Section 7 (*Collective communication*) is
a short composition of them:

* **recursive doubling** = fold-in (8), ``log2(P)`` pairwise exchanges
  (3), fold-out (9); latency-optimal, the reduction schedule of the
  paper's partial collectives.
* **split allreduces** — an allreduce *is* a reduce-scatter followed by
  an allgather.  :func:`_reduce_scatter_phases` and
  :func:`_allgather_phases` are those halves; ``allreduce_ring`` and
  ``allreduce_rabenseifner`` run both in one epoch (dividing the owned
  window in between under ``average``), while the sharding module's
  ``reduce_scatter`` / ``allgather_flat`` run one each — so ring
  allreduce ≡ reduce-scatter ∘ allgather bitwise by construction.  The
  halves by family: **ring** = 4 ∘ 5 (bandwidth-optimal, Horovod's
  default); **halving / doubling** (Rabenseifner) = 8, 6 ∘ 7, 9;
  **hierarchical** (sharded only) = 10, 12, 14 ∘ 15, 13, 11.
* **hierarchical allreduce** = intra-host reduce (10), the ring
  composition over the host leaders only (12, 13 — a
  :class:`~repro.comm.subworld.SubsetCommunicator` view renames ranks,
  the tags are the enclosing epoch's), intra-host broadcast (11).
  The schedule queries the transport's
  :class:`~repro.collectives.topology.HostTopology`
  (``comm.router.host_topology``, exposed by the ``hier`` backend) so
  non-leader ranks never touch an inter-host link.

The fold (the ``P - 2^k`` extra ranks fold their contribution into a
partner in the power-of-two group and are handed the result back) makes
non-power-of-two worlds native: the algorithm named by the caller is the
algorithm that runs, at every world size — **no silent fallback** (the
ring needs no fold at all).

Chunk pipelining
----------------
Every phase built on ``_send_segments`` / ``_recv_segments`` accepts
``n_chunks``: each per-round payload is segmented into ``n_chunks``
messages so that the reduction of segment *k* overlaps the transmission
of segment *k + 1* (sends are eager on this substrate, so all segments
of a round are in flight while the receiver combines the earlier ones).
The doubling allgather keeps one message per round.  ``n_chunks=1``
reproduces the classic monolithic rounds bit-for-bit.

Wire dtypes
-----------
A reduce-closed codec (:mod:`repro.compression`: its encode is a cast
to ``codec.wire_dtype``) is the dtype the ring phases' hops travel in —
``allreduce(..., codec=)`` on ``ring`` and on the leader ring of
``hierarchical``, and the ring ``reduce_scatter`` / ``allgather_flat``.
The messages and tags are the dense ring's; only the bytes shrink.  A
reduce-scatter hop sends its segment cast to the wire dtype and adds the
received wire segment into the ``float64`` slice with one mixed-dtype
``np.add``.  The allgather first rounds the owned window through the wire
dtype in place, so re-casting the widened values it forwards is exact
and every replica holds the same bits.

Deadlines
---------
No collective takes a ``timeout``: every receive of every phase waits at
most its communicator's ``default_timeout`` — the world's one deadline
(see :mod:`repro.comm.communicator`) — and then raises
:class:`~repro.comm.mailbox.CommTimeoutError`.

Tag layout
----------
The ``(epoch, phase, round, chunk)`` strides live in the global
tag-region map (:mod:`repro.comm.tags`); :func:`repro.comm.tags.sync_tag`
*raises* on any field overflow instead of wrapping into a neighbouring
phase or epoch.  Its ``2^17`` rounds per phase support ring worlds
beyond 100k ranks (a ring phase uses ``P - 1`` rounds).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.comm import tags
from repro.comm.communicator import Communicator
from repro.comm.subworld import SubsetCommunicator
from repro.obs import recorder as _obs
from repro.comm.reduce_ops import ReduceOp, get_op
from repro.collectives.topology import (
    HostTopology,
    binomial_tree_children,
    binomial_tree_parent,
    intra_bcast_edges,
    intra_reduce_edges,
    largest_power_of_two_leq,
)

# The phase table of the module docstring (ids < tags.SYNC_MAX_PHASES).
_PHASE_BCAST = 0
_PHASE_REDUCE = 1
_PHASE_GATHER = 2
_PHASE_RD = 3
_PHASE_RING_RS = 4
_PHASE_RING_AG = 5
_PHASE_HALVING_RS = 6
_PHASE_DOUBLING_AG = 7
_PHASE_FOLD_IN = 8
_PHASE_FOLD_OUT = 9
_PHASE_HIER_REDUCE = 10
_PHASE_HIER_BCAST = 11
_PHASE_LEADER_RS = 12
_PHASE_LEADER_AG = 13
_PHASE_HIER_SCATTER = 14
_PHASE_HIER_GATHER = 15

#: Reduce-scatter algorithms and the allgather each one pairs with (the
#: allgather must be fed windows from the *same* ownership map).
ALLGATHER_FOR_REDUCE_SCATTER: Dict[str, str] = {
    "ring": "ring",
    "halving": "doubling",
    "hierarchical": "hierarchical",
}


def _validate_chunks(n_chunks: int) -> int:
    n_chunks = int(n_chunks)
    if not 1 <= n_chunks <= tags.SYNC_MAX_CHUNKS:
        raise ValueError(
            f"n_chunks must be in [1, {tags.SYNC_MAX_CHUNKS}], got {n_chunks}"
        )
    return n_chunks


def _as_float_array(data, copy: bool = True, codec=None) -> np.ndarray:
    """Owned floating-point working buffer for a reduction.

    Narrow float dtypes are *preserved* so that narrow payloads (e.g. the
    fp16 send buffer of a compressed partial collective) are reduced —
    and transmitted — at their width instead of being silently upcast;
    everything else (ints, bools, lists) is promoted to the ``float64``
    substrate.  Under a ``codec`` the buffer is always ``float64``: the
    codec narrows the wire, never the combines.

    ``copy=False`` reduces a caller-owned buffer in place (the bucketed
    exchange passes slices of the gradient vector it was given to
    consume); a read-only or non-float input is still copied/converted.
    """
    arr = np.asarray(data)
    if codec is not None or not np.issubdtype(arr.dtype, np.floating):
        wide = np.asarray(arr, dtype=np.float64)
        if wide is not arr:
            return wide  # the conversion already produced an owned buffer
    if not copy and arr.flags.writeable:
        return arr
    return np.array(arr, copy=True)


def _require_reduce_closed(codec, reduce_op: Optional[ReduceOp] = None) -> None:
    """Reject a codec the ring phases cannot carry as their wire dtype.

    Only a reduce-closed codec's payload is its values in another dtype
    (:mod:`repro.compression.base`), and a wire hop adds, so ``reduce_op``
    (when given) must be a sum.
    """
    if not codec.reduce_closed:
        raise ValueError(
            f"codec {codec.name!r} is not reduce-closed: the ring phases "
            f"carry only a codec whose encode is a cast to its wire dtype"
        )
    if reduce_op is not None and reduce_op.name != "sum":
        raise ValueError(
            f"a codec's wire hop adds, so it requires op='sum', "
            f"got op={reduce_op.name!r}"
        )


# --------------------------------------------------------------------------
# chunked segment helpers
# --------------------------------------------------------------------------
def _segment_bounds(length: int, n_chunks: int) -> List[Tuple[int, int]]:
    """Contiguous ``(lo, hi)`` bounds splitting ``length`` into ``n_chunks``.

    Matches :func:`numpy.array_split` sizing (first ``length % n_chunks``
    segments get one extra element); empty segments are allowed so sender
    and receiver always agree on the segment count.
    """
    base, extra = divmod(length, n_chunks)
    bounds: List[Tuple[int, int]] = []
    lo = 0
    for i in range(n_chunks):
        hi = lo + base + (1 if i < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def _send_segments(
    comm: Communicator,
    flat: np.ndarray,
    lo: int,
    hi: int,
    dest: int,
    epoch: int,
    phase: int,
    round_index: int,
    n_chunks: int,
    wire: Optional[np.dtype] = None,
) -> None:
    """Send ``flat[lo:hi]`` to ``dest`` as ``n_chunks`` eager segments,
    each cast to the ``wire`` dtype when one is given."""
    for k, (slo, shi) in enumerate(_segment_bounds(hi - lo, n_chunks)):
        segment = flat[lo + slo : lo + shi]
        comm.send(
            segment if wire is None else segment.astype(wire), dest,
            tag=tags.sync_tag(epoch, phase, round_index, k),
        )


def _recv_segments(
    comm: Communicator,
    flat: np.ndarray,
    lo: int,
    hi: int,
    source: int,
    epoch: int,
    phase: int,
    round_index: int,
    n_chunks: int,
    reduce_op: Optional[ReduceOp] = None,
    wire: Optional[np.dtype] = None,
) -> None:
    """Receive ``n_chunks`` segments into ``flat[lo:hi]``.

    With ``reduce_op`` the incoming segment is combined into the local
    data as soon as it arrives, so combining segment *k* overlaps the
    (eager) transmission of segments ``> k``; without it the segment is
    assigned (allgather phases) — on the process-model transports by
    reading the frame straight into ``flat``.  A ``wire`` segment lands
    in a scratch of that dtype and is widened into ``flat``: added (the
    one combine a codec's ring runs is a sum) or assigned.
    """
    for k, (slo, shi) in enumerate(_segment_bounds(hi - lo, n_chunks)):
        segment = flat[lo + slo : lo + shi]
        tag = tags.sync_tag(epoch, phase, round_index, k)
        if wire is None:
            comm.recv_into(segment, source, tag, op=reduce_op)
            continue
        narrow = np.empty(segment.size, dtype=wire)
        comm.recv_into(narrow, source, tag)
        if reduce_op is None:
            segment[...] = narrow
        else:
            np.add(segment, narrow, out=segment)


# --------------------------------------------------------------------------
# non-power-of-two fold helpers
# --------------------------------------------------------------------------
def _fold_in(
    comm: Communicator,
    flat: np.ndarray,
    epoch: int,
    n_chunks: int,
    reduce_op: ReduceOp,
) -> bool:
    """Fold the extra ranks' contributions into the power-of-two group.

    Returns whether this rank stays in the power-of-two group (ranks
    ``[2^k, P)`` send their data to ``rank - 2^k`` and drop out until
    :func:`_fold_out` hands the result back).
    """
    rank, size = comm.rank, comm.size
    pof2 = largest_power_of_two_leq(size)
    if rank >= pof2:
        _send_segments(
            comm, flat, 0, flat.size, rank - pof2, epoch, _PHASE_FOLD_IN, 0,
            n_chunks,
        )
        return False
    if rank < size - pof2:
        _recv_segments(
            comm, flat, 0, flat.size, rank + pof2, epoch, _PHASE_FOLD_IN, 0,
            n_chunks, reduce_op=reduce_op,
        )
    return True


def _fold_out(
    comm: Communicator,
    flat: np.ndarray,
    epoch: int,
    n_chunks: int,
) -> None:
    """Hand the result back to the folded-out extra ranks (see :func:`_fold_in`)."""
    rank, size = comm.rank, comm.size
    pof2 = largest_power_of_two_leq(size)
    if rank >= pof2:
        _recv_segments(
            comm, flat, 0, flat.size, rank - pof2, epoch, _PHASE_FOLD_OUT, 0,
            n_chunks,
        )
    elif rank < size - pof2:
        _send_segments(
            comm, flat, 0, flat.size, rank + pof2, epoch, _PHASE_FOLD_OUT, 0,
            n_chunks,
        )


# --------------------------------------------------------------------------
# ring phases
# --------------------------------------------------------------------------
def _ring_reduce_scatter(
    comm,
    flat: np.ndarray,
    bounds: List[Tuple[int, int]],
    epoch: int,
    phase: int,
    n_chunks: int,
    reduce_op: ReduceOp,
    codec=None,
) -> None:
    """Ring reduce-scatter: rank r ends owning chunk ``(r + 1) % P`` reduced.

    The payload is chunked by ``bounds`` into ``P`` pieces; each of the
    ``P - 1`` steps sends one chunk to the successor and combines the
    chunk received from the predecessor — in ``codec``'s wire dtype when
    one is given (see "Wire dtypes" in the module docstring).
    """
    rank, size = comm.rank, comm.size
    succ = (rank + 1) % size
    pred = (rank - 1) % size
    wire = None if codec is None else codec.wire_dtype
    for step in range(size - 1):
        send_chunk = (rank - step) % size
        recv_chunk = (rank - step - 1) % size
        _send_segments(
            comm, flat, *bounds[send_chunk], succ, epoch, phase, step, n_chunks,
            wire=wire,
        )
        _recv_segments(
            comm, flat, *bounds[recv_chunk], pred, epoch, phase, step, n_chunks,
            reduce_op=reduce_op, wire=wire,
        )


def _ring_allgather(
    comm,
    flat: np.ndarray,
    bounds: List[Tuple[int, int]],
    epoch: int,
    phase: int,
    n_chunks: int,
    codec=None,
) -> None:
    """Ring allgather: circulates each rank's owned chunk ``(r + 1) % P``.

    Under ``codec`` the owned chunk is first rounded through the wire
    dtype in place, so the replicas all hold the values the wire carried.
    """
    rank, size = comm.rank, comm.size
    succ = (rank + 1) % size
    pred = (rank - 1) % size
    wire = None if codec is None else codec.wire_dtype
    if wire is not None:
        lo, hi = bounds[(rank + 1) % size]
        flat[lo:hi] = flat[lo:hi].astype(wire)
    for step in range(size - 1):
        send_chunk = (rank - step + 1) % size
        recv_chunk = (rank - step) % size
        _send_segments(
            comm, flat, *bounds[send_chunk], succ, epoch, phase, step, n_chunks,
            wire=wire,
        )
        _recv_segments(
            comm, flat, *bounds[recv_chunk], pred, epoch, phase, step, n_chunks,
            wire=wire,
        )


# --------------------------------------------------------------------------
# halving / doubling phases (power-of-two group; see _fold_in / _fold_out)
# --------------------------------------------------------------------------
def _halving_rounds(
    rank: int, pof2: int, length: int
) -> Iterator[Tuple[int, Tuple[int, int], Tuple[int, int]]]:
    """The recursive-halving bisection walk of in-group ``rank``.

    Yields ``(partner, keep, send)`` per round: the lower-ranked partner
    keeps the lower half of the current window and sends the upper half.
    """
    lo, hi = 0, length
    dist = pof2 // 2
    while dist >= 1:
        partner = rank ^ dist
        mid = lo + (hi - lo) // 2
        if rank < partner:
            keep, send = (lo, mid), (mid, hi)
        else:
            keep, send = (mid, hi), (lo, mid)
        yield partner, keep, send
        lo, hi = keep
        dist //= 2


def _halving_window(rank: int, pof2: int, length: int) -> Tuple[int, int]:
    """The window the recursive-halving bisection walk leaves ``rank`` with."""
    window = (0, length)
    for _partner, window, _send in _halving_rounds(rank, pof2, length):
        pass
    return window


def _halving_reduce_scatter(
    comm: Communicator,
    flat: np.ndarray,
    epoch: int,
    n_chunks: int,
    reduce_op: ReduceOp,
) -> None:
    """Recursive-halving reduce-scatter; rank ends owning ``_halving_window``."""
    pof2 = largest_power_of_two_leq(comm.size)
    for round_index, (partner, keep, send) in enumerate(
        _halving_rounds(comm.rank, pof2, flat.size)
    ):
        _send_segments(
            comm, flat, *send, partner, epoch, _PHASE_HALVING_RS, round_index,
            n_chunks,
        )
        _recv_segments(
            comm, flat, *keep, partner, epoch, _PHASE_HALVING_RS, round_index,
            n_chunks, reduce_op=reduce_op,
        )


def _doubling_allgather(
    comm: Communicator,
    flat: np.ndarray,
    epoch: int,
) -> None:
    """Recursive-doubling allgather of the ``_halving_window`` segments.

    Retraces the halving steps in reverse order, one message per round.
    """
    rank = comm.rank
    pof2 = largest_power_of_two_leq(comm.size)
    seg_lo, seg_hi = _halving_window(rank, pof2, flat.size)
    dist = 1
    round_index = 0
    while dist < pof2:
        partner = rank ^ dist
        tag = tags.sync_tag(epoch, _PHASE_DOUBLING_AG, round_index)
        comm.send((seg_lo, seg_hi, flat[seg_lo:seg_hi].copy()), partner, tag=tag)
        other_lo, other_hi, other_data = comm.recv(source=partner, tag=tag)
        if other_hi > other_lo:
            flat[other_lo:other_hi] = other_data
        seg_lo, seg_hi = min(seg_lo, other_lo), max(seg_hi, other_hi)
        dist *= 2
        round_index += 1


# --------------------------------------------------------------------------
# host-tier phases (two-tier schedules over a HostTopology)
# --------------------------------------------------------------------------
def _intra_reduce(
    comm: Communicator,
    flat: np.ndarray,
    topology: HostTopology,
    epoch: int,
    n_chunks: int,
    reduce_op: ReduceOp,
) -> None:
    """Reduce every host's contributions onto its leader (binomial tree)."""
    rank = comm.rank
    with _obs.span("hier-intra-reduce", "collective", n_chunks=n_chunks):
        for round_index, (src, dst) in enumerate(
            intra_reduce_edges(topology, topology.host(rank))
        ):
            if rank == src:
                _send_segments(
                    comm, flat, 0, flat.size, dst, epoch, _PHASE_HIER_REDUCE,
                    round_index, n_chunks,
                )
            elif rank == dst:
                _recv_segments(
                    comm, flat, 0, flat.size, src, epoch, _PHASE_HIER_REDUCE,
                    round_index, n_chunks, reduce_op=reduce_op,
                )


def _intra_bcast(
    comm: Communicator,
    flat: np.ndarray,
    topology: HostTopology,
    epoch: int,
    n_chunks: int,
) -> None:
    """Broadcast the leader's (reduced) buffer back across its host."""
    rank = comm.rank
    with _obs.span("hier-intra-bcast", "collective", n_chunks=n_chunks):
        for round_index, (src, dst) in enumerate(
            intra_bcast_edges(topology, topology.host(rank))
        ):
            if rank == src:
                _send_segments(
                    comm, flat, 0, flat.size, dst, epoch, _PHASE_HIER_BCAST,
                    round_index, n_chunks,
                )
            elif rank == dst:
                _recv_segments(
                    comm, flat, 0, flat.size, src, epoch, _PHASE_HIER_BCAST,
                    round_index, n_chunks,
                )


def _hier_sub_bounds(
    topology: HostTopology, host: int, host_bounds: List[Tuple[int, int]]
) -> List[Tuple[int, int]]:
    """Member sub-windows of ``host``'s owned segment, in local-index order."""
    hlo, hhi = host_bounds[(host + 1) % topology.num_hosts]
    locals_ = topology.ranks_on_host(host)
    return [
        (hlo + slo, hlo + shi)
        for slo, shi in _segment_bounds(hhi - hlo, len(locals_))
    ]


def _hierarchical_reduce_scatter(
    comm: Communicator,
    flat: np.ndarray,
    topology: HostTopology,
    epoch: int,
    n_chunks: int,
    reduce_op: ReduceOp,
) -> None:
    """Intra-host reduce → leader ring reduce-scatter → sub-window scatter."""
    rank = comm.rank
    host = topology.host(rank)
    host_bounds = _segment_bounds(flat.size, topology.num_hosts)
    _intra_reduce(comm, flat, topology, epoch, n_chunks, reduce_op)
    sub_bounds = _hier_sub_bounds(topology, host, host_bounds)
    if topology.is_leader(rank):
        _ring_reduce_scatter(
            SubsetCommunicator(comm, topology.leaders), flat, host_bounds,
            epoch, _PHASE_LEADER_RS, n_chunks, reduce_op,
        )
        for j, member in enumerate(topology.ranks_on_host(host)):
            if member != rank:
                _send_segments(
                    comm, flat, *sub_bounds[j], member, epoch,
                    _PHASE_HIER_SCATTER, j, n_chunks,
                )
    else:
        j = topology.local_index(rank)
        _recv_segments(
            comm, flat, *sub_bounds[j], topology.leader_of(host), epoch,
            _PHASE_HIER_SCATTER, j, n_chunks,
        )


def _hierarchical_allgather(
    comm: Communicator,
    flat: np.ndarray,
    topology: HostTopology,
    epoch: int,
    n_chunks: int,
) -> None:
    """Sub-window gather to leader → leader ring allgather → intra bcast."""
    rank = comm.rank
    host = topology.host(rank)
    host_bounds = _segment_bounds(flat.size, topology.num_hosts)
    sub_bounds = _hier_sub_bounds(topology, host, host_bounds)
    if topology.is_leader(rank):
        for j, member in enumerate(topology.ranks_on_host(host)):
            if member != rank:
                _recv_segments(
                    comm, flat, *sub_bounds[j], member, epoch,
                    _PHASE_HIER_GATHER, j, n_chunks,
                )
        _ring_allgather(
            SubsetCommunicator(comm, topology.leaders), flat, host_bounds,
            epoch, _PHASE_LEADER_AG, n_chunks,
        )
    else:
        j = topology.local_index(rank)
        _send_segments(
            comm, flat, *sub_bounds[j], topology.leader_of(host), epoch,
            _PHASE_HIER_GATHER, j, n_chunks,
        )
    _intra_bcast(comm, flat, topology, epoch, n_chunks)


# --------------------------------------------------------------------------
# the two halves of a split allreduce (and of reduce_scatter / allgather_flat)
# --------------------------------------------------------------------------
def _owned_window(
    rank: int,
    size: int,
    length: int,
    algorithm: str,
    topology: Optional[HostTopology] = None,
) -> Tuple[int, int]:
    """The ``(lo, hi)`` window ``algorithm``'s reduce-scatter leaves fully
    reduced on ``rank`` of a ``size > 1`` world (the paired allgather's
    name is accepted too; the non-power-of-two extras of ``halving`` own
    an empty window)."""
    if algorithm == "ring":
        return _segment_bounds(length, size)[(rank + 1) % size]
    if algorithm in ("halving", "doubling"):
        pof2 = largest_power_of_two_leq(size)
        return _halving_window(rank, pof2, length) if rank < pof2 else (0, 0)
    host_bounds = _segment_bounds(length, topology.num_hosts)
    return _hier_sub_bounds(topology, topology.host(rank), host_bounds)[
        topology.local_index(rank)
    ]


def _reduce_scatter_phases(
    comm: Communicator,
    flat: np.ndarray,
    algorithm: str,
    epoch: int,
    n_chunks: int,
    reduce_op: Optional[ReduceOp],
    average: bool = False,
    codec=None,
    topology: Optional[HostTopology] = None,
) -> Tuple[int, int]:
    """The reduce-scatter half of ``algorithm`` in ``epoch``.

    Returns this rank's :func:`_owned_window`, which holds the fully
    reduced sums — divided by the world size under ``average``, the only
    ``N / P`` sums this rank holds final.  ``codec`` (ring only) is the
    wire dtype of the ring's hops.
    """
    with _obs.span(
        f"reduce_scatter[{algorithm}]", "collective",
        nbytes=flat.nbytes, n_chunks=n_chunks,
    ):
        if algorithm == "ring":
            _ring_reduce_scatter(
                comm, flat, _segment_bounds(flat.size, comm.size), epoch,
                _PHASE_RING_RS, n_chunks, reduce_op, codec,
            )
        elif algorithm == "halving":
            if _fold_in(comm, flat, epoch, n_chunks, reduce_op):
                _halving_reduce_scatter(comm, flat, epoch, n_chunks, reduce_op)
        else:  # hierarchical
            _hierarchical_reduce_scatter(
                comm, flat, topology, epoch, n_chunks, reduce_op
            )
    lo, hi = _owned_window(comm.rank, comm.size, flat.size, algorithm, topology)
    if average:
        flat[lo:hi] /= comm.size
    return lo, hi


def _allgather_phases(
    comm: Communicator,
    flat: np.ndarray,
    algorithm: str,
    epoch: int,
    n_chunks: int,
    codec=None,
    topology: Optional[HostTopology] = None,
) -> None:
    """The allgather half of ``algorithm`` (an allgather name) in ``epoch``:
    every rank's :func:`_owned_window` lands on every rank."""
    with _obs.span(
        f"allgather_flat[{algorithm}]", "collective",
        nbytes=flat.nbytes, n_chunks=n_chunks,
    ):
        if algorithm == "ring":
            _ring_allgather(
                comm, flat, _segment_bounds(flat.size, comm.size), epoch,
                _PHASE_RING_AG, n_chunks, codec,
            )
        elif algorithm == "doubling":
            if comm.rank < largest_power_of_two_leq(comm.size):
                _doubling_allgather(comm, flat, epoch)
            _fold_out(comm, flat, epoch, n_chunks)
        else:  # hierarchical
            _hierarchical_allgather(comm, flat, topology, epoch, n_chunks)


def _split_allreduce(
    comm: Communicator,
    arr: np.ndarray,
    algorithm: str,
    reduce_op: Optional[ReduceOp],
    average: bool,
    n_chunks: int,
    codec=None,
) -> np.ndarray:
    """Reduce-scatter ∘ allgather of ``algorithm`` on ``arr`` in one epoch."""
    epoch = comm.next_collective_epoch()
    n_chunks = _validate_chunks(n_chunks)
    if comm.size == 1:
        return arr
    flat = arr.reshape(-1)
    _reduce_scatter_phases(
        comm, flat, algorithm, epoch, n_chunks, reduce_op,
        average=average, codec=codec,
    )
    _allgather_phases(
        comm, flat, ALLGATHER_FOR_REDUCE_SCATTER[algorithm], epoch, n_chunks,
        codec=codec,
    )
    return flat.reshape(arr.shape)


# --------------------------------------------------------------------------
# broadcast / reduce / allgather
# --------------------------------------------------------------------------
def broadcast(comm: Communicator, data, root: int = 0):
    """Binomial-tree broadcast of ``data`` from ``root`` to all ranks."""
    epoch = comm.next_collective_epoch()
    rank, size = comm.rank, comm.size
    tag = tags.sync_tag(epoch, _PHASE_BCAST, 0)
    if size == 1:
        return data
    if rank != root:
        parent = binomial_tree_parent(rank, size, root)
        data = comm.recv(source=parent, tag=tag)
    for child in binomial_tree_children(rank, size, root):
        comm.send(data, child, tag=tag)
    return data


def reduce(
    comm: Communicator,
    data,
    op: ReduceOp | str = "sum",
    root: int = 0,
) -> Optional[np.ndarray]:
    """Binomial-tree reduction to ``root``; returns the result on root only."""
    epoch = comm.next_collective_epoch()
    reduce_op = get_op(op)
    rank, size = comm.rank, comm.size
    acc = _as_float_array(data)
    tag = tags.sync_tag(epoch, _PHASE_REDUCE, 0)
    if size == 1:
        return acc
    # Children in the *broadcast* tree are the senders in the reduction tree.
    # A rooted reduction has a single owner per partial result, so narrow
    # dtypes may accumulate widened (float32) across all children and
    # narrow once — the multi-segment kernel of repro.comm.reduce_kernels.
    children = list(reversed(binomial_tree_children(rank, size, root)))
    widened = reduce_op.accumulator(acc) if len(children) > 1 else None
    for child in children:
        contribution = comm.recv(source=child, tag=tag)
        if widened is not None:
            widened.combine(contribution)
        else:
            acc = reduce_op.combine_into(acc, contribution)
    if widened is not None:
        acc = widened.finish()
    if rank != root:
        parent = binomial_tree_parent(rank, size, root)
        comm.send(acc, parent, tag=tag)
        return None
    return acc


def allgather(
    comm: Communicator,
    data,
    out: Optional[List[np.ndarray]] = None,
) -> List:
    """Gather one value from every rank at every rank (ring algorithm).

    With ``out`` (a list of ``size`` preallocated per-rank arrays) each
    received array payload is copied straight into its destination slot
    and the same list is returned, so a steady-state caller (negotiation
    rounds, parameter gathers) reuses its buffers instead of retaining a
    freshly allocated list of wire payloads every call.  Without ``out``
    the delivered payloads are returned as before.
    """
    epoch = comm.next_collective_epoch()
    rank, size = comm.rank, comm.size
    if out is not None:
        if len(out) != size:
            raise ValueError(
                f"allgather out has {len(out)} slot(s) but the world has "
                f"{size} rank(s)"
            )
        items: List = out
        if items[rank] is not data:
            np.copyto(items[rank], np.asarray(data))
    else:
        items = [None] * size
        items[rank] = data
    if size == 1:
        return items
    succ = (rank + 1) % size
    pred = (rank - 1) % size
    for step in range(size - 1):
        tag = tags.sync_tag(epoch, _PHASE_GATHER, step)
        send_idx = (rank - step) % size
        comm.send(items[send_idx], succ, tag=tag)
        recv_idx = (rank - step - 1) % size
        incoming = comm.recv(source=pred, tag=tag)
        if out is not None:
            np.copyto(items[recv_idx], np.asarray(incoming))
        else:
            items[recv_idx] = incoming
    return items


# --------------------------------------------------------------------------
# allreduce algorithms
# --------------------------------------------------------------------------
def allreduce_recursive_doubling(
    comm: Communicator,
    data,
    op: ReduceOp | str = "sum",
    n_chunks: int = 1,
    copy: bool = True,
    average: bool = False,
) -> np.ndarray:
    """Recursive-doubling allreduce (hypercube exchange).

    Non-power-of-two sizes are handled with the standard fold: the first
    ``r = P - 2^k`` "extra" ranks fold their contribution into a partner,
    the remaining power-of-two group runs recursive doubling, and the
    result is sent back to the folded ranks.

    ``n_chunks > 1`` pipelines every pairwise exchange in that many
    segments (reduction of segment *k* overlapping transmission of
    segment *k + 1*).
    """
    epoch = comm.next_collective_epoch()
    reduce_op = get_op(op)
    n_chunks = _validate_chunks(n_chunks)
    rank, size = comm.rank, comm.size
    acc = _as_float_array(data, copy=copy)
    if size == 1:
        return acc
    flat = acc.reshape(-1)

    pof2 = largest_power_of_two_leq(size)
    if _fold_in(comm, flat, epoch, n_chunks, reduce_op):
        with _obs.span("rd-exchange", "collective", n_chunks=n_chunks):
            dist = 1
            round_index = 0
            while dist < pof2:
                partner = rank ^ dist
                _send_segments(
                    comm, flat, 0, flat.size, partner, epoch, _PHASE_RD,
                    round_index, n_chunks,
                )
                _recv_segments(
                    comm, flat, 0, flat.size, partner, epoch, _PHASE_RD,
                    round_index, n_chunks, reduce_op=reduce_op,
                )
                dist <<= 1
                round_index += 1

    _fold_out(comm, flat, epoch, n_chunks)
    if average:
        flat /= size
    return flat.reshape(acc.shape)


def allreduce_ring(
    comm: Communicator,
    data,
    op: ReduceOp | str = "sum",
    n_chunks: int = 1,
    copy: bool = True,
    average: bool = False,
    codec=None,
) -> np.ndarray:
    """Ring allreduce = ring reduce-scatter ∘ ring allgather, ``P - 1`` steps each.

    This is the bandwidth-optimal algorithm used by Horovod /
    baidu-allreduce for large gradients.  Any world size is supported (the
    ring needs no power-of-two structure).  Under ``average`` each rank
    divides only the chunk it owns between the two halves; the allgather
    circulates the quotients.

    ``n_chunks > 1`` additionally segments every per-step chunk so the
    combine of segment *k* overlaps the transmission of segment *k + 1*
    (the chunked-pipeline schedule used by the fused gradient exchange).
    ``codec`` (reduce-closed, sum only) is the dtype every hop travels in.
    """
    reduce_op = get_op(op)
    if codec is not None:
        _require_reduce_closed(codec, reduce_op)
    return _split_allreduce(
        comm, _as_float_array(data, copy=copy, codec=codec), "ring", reduce_op,
        average, n_chunks, codec=codec,
    )


def allreduce_rabenseifner(
    comm: Communicator,
    data,
    op: ReduceOp | str = "sum",
    n_chunks: int = 1,
    copy: bool = True,
    average: bool = False,
) -> np.ndarray:
    """Rabenseifner's allreduce (recursive halving + recursive doubling).

    Non-power-of-two worlds are handled natively with the same fold-in /
    fold-out pre- and post-steps as recursive doubling (the extra ranks
    fold into the power-of-two group, which then runs the halving /
    doubling core); there is **no** fallback to another algorithm, so the
    caller always gets Rabenseifner's communication pattern.

    ``n_chunks > 1`` pipelines the recursive-halving reduce-scatter
    exchanges (the phase that carries reduction arithmetic) in that many
    segments; the allgather retrace keeps one message per round.
    """
    return _split_allreduce(
        comm, _as_float_array(data, copy=copy), "halving", get_op(op), average,
        n_chunks,
    )


# --------------------------------------------------------------------------
# hierarchical (two-tier) allreduce
# --------------------------------------------------------------------------
def resolve_host_topology(
    comm: Communicator, topology: Optional[HostTopology] = None
) -> HostTopology:
    """The host topology a hierarchical collective should schedule against.

    An explicit ``topology`` wins; otherwise the transport is consulted
    (``comm.router.host_topology``, exposed by the ``hier`` backend) and
    the flat single-host topology is the fallback.  A topology sized for
    a different world is rejected (explicit) or ignored (discovered) —
    a stale router attribute must not silently corrupt the schedule.
    """
    if topology is not None:
        if topology.world_size != comm.size:
            raise ValueError(
                f"host topology covers {topology.world_size} rank(s) but the "
                f"communicator has {comm.size}"
            )
        return topology
    found = getattr(getattr(comm, "router", None), "host_topology", None)
    if isinstance(found, HostTopology) and found.world_size == comm.size:
        return found
    return HostTopology.single_host(comm.size)


def allreduce_hierarchical(
    comm: Communicator,
    data,
    op: ReduceOp | str = "sum",
    n_chunks: int = 1,
    copy: bool = True,
    topology: Optional[HostTopology] = None,
    average: bool = False,
    codec=None,
) -> np.ndarray:
    """Two-tier allreduce: intra-host reduce, leader ring, intra-host bcast.

    The three stages of the multi-host schedule:

    1. every host reduces onto its leader along the reversed binomial
       broadcast tree (fast links only, ``O(log n)`` leader receives);
    2. the leaders — one rank per host — run a ring allreduce among
       themselves, so each *inter-host* link carries the bandwidth-optimal
       ``2 (H-1)/H`` payload volume exactly once per direction;
    3. every leader broadcasts the result back down its host tree.

    With ``topology`` omitted the transport's ``host_topology`` is used
    (single-host when the transport has none), and a single-host world
    degenerates to the plain ring allreduce — same result, no extra
    tree hops.  ``average`` divides at the leaders, before the broadcast:
    all replicas receive the leader exchange's bit pattern verbatim, so
    they agree bit-for-bit just like the flat algorithms.

    ``codec`` (reduce-closed, sum only) is the wire dtype of the leader
    ring — the inter-host tier, where the wire is the bottleneck; the
    intra-host reduce and broadcast stay dense.
    """
    topology = resolve_host_topology(comm, topology)
    if topology.is_single_host:
        return allreduce_ring(
            comm, data, op=op, n_chunks=n_chunks, copy=copy, average=average,
            codec=codec,
        )
    reduce_op = get_op(op)
    if codec is not None:
        _require_reduce_closed(codec, reduce_op)
    epoch = comm.next_collective_epoch()
    n_chunks = _validate_chunks(n_chunks)
    acc = _as_float_array(data, copy=copy, codec=codec)
    flat = acc.reshape(-1)

    _intra_reduce(comm, flat, topology, epoch, n_chunks, reduce_op)
    if topology.is_leader(comm.rank):
        with _obs.span("hier-leader-ring", "collective",
                       leaders=topology.num_hosts, n_chunks=n_chunks):
            leaders = SubsetCommunicator(comm, topology.leaders)
            host_bounds = _segment_bounds(flat.size, topology.num_hosts)
            _ring_reduce_scatter(
                leaders, flat, host_bounds, epoch, _PHASE_LEADER_RS, n_chunks,
                reduce_op, codec,
            )
            _ring_allgather(
                leaders, flat, host_bounds, epoch, _PHASE_LEADER_AG, n_chunks,
                codec,
            )
        if average:
            flat /= comm.size
    _intra_bcast(comm, flat, topology, epoch, n_chunks)
    return flat.reshape(acc.shape)


#: Registry of allreduce algorithms by name.
ALLREDUCE_ALGORITHMS: Dict[str, Callable] = {
    "recursive_doubling": allreduce_recursive_doubling,
    "ring": allreduce_ring,
    "rabenseifner": allreduce_rabenseifner,
    "hierarchical": allreduce_hierarchical,
}


def allreduce(
    comm: Communicator,
    data,
    op: ReduceOp | str = "sum",
    algorithm: str = "recursive_doubling",
    average: bool = False,
    n_chunks: int = 1,
    copy: bool = True,
    codec=None,
) -> np.ndarray:
    """Synchronous allreduce with a selectable algorithm.

    Parameters
    ----------
    average:
        If true, divide the reduced result by the world size (the form
        needed by data-parallel SGD, line 6 of Algorithm 2).  The
        reduce-scatter ∘ allgather algorithms (``ring``, ``rabenseifner``)
        divide only the window each rank owns between their two phases —
        the same division on the same sums, ``N / P`` of them per rank.
    n_chunks:
        Pipeline each communication round in this many segments so that
        reduction overlaps transmission (see the module docstring);
        ``1`` (default) runs the classic unsegmented rounds.
    codec:
        A reduce-closed :mod:`repro.compression` codec: the ring phases'
        wire dtype (see "Wire dtypes" in the module docstring).  Only
        ``ring`` and ``hierarchical`` (its leader ring) run ring phases,
        and only a sum rides a codec; anything else raises ``ValueError``.
    """
    try:
        impl = ALLREDUCE_ALGORITHMS[algorithm]
    except KeyError:
        raise ValueError(
            f"unknown allreduce algorithm {algorithm!r}; "
            f"available: {sorted(ALLREDUCE_ALGORITHMS)}"
        ) from None
    extra = {}
    if codec is not None:
        if algorithm not in ("ring", "hierarchical"):
            raise ValueError(
                f"allreduce with a codec runs the ring phases of 'ring' or "
                f"'hierarchical', got algorithm {algorithm!r}"
            )
        extra["codec"] = codec
    with _obs.span(
        f"allreduce[{algorithm}]", "collective",
        nbytes=_obs.payload_nbytes(data), n_chunks=n_chunks,
    ):
        return impl(
            comm, data, op=op, n_chunks=n_chunks, copy=copy, average=average,
            **extra,
        )
