"""Sharded-optimizer collectives: ``reduce_scatter`` and ``allgather_flat``.

ZeRO stage-1 training replaces the gradient allreduce with a split
schedule: a *reduce-scatter* leaves each rank holding one fully reduced
1/P shard of the gradient, the optimizer updates only that shard's
parameters (and allocates state only for it), and an *allgather* of the
updated **parameters** restores the replicated model.

An allreduce *is* a reduce-scatter followed by an allgather, so this
module holds no schedule of its own: each primitive composes the phase
functions of :mod:`repro.collectives.sync` (one body per phase, see its
module docstring), minting tags from the dedicated ``sharding`` region
(:func:`repro.comm.tags.sharding_tag`, layout ``(epoch, phase, round,
chunk)``, its own per-communicator epoch counter) so sharded collectives
can never steal messages from the ``sync`` collectives they run next to.
Phase ids in parentheses:

* **ring** — ``reduce_scatter`` = ring reduce-scatter (0),
  ``allgather_flat`` = ring allgather (1): the two halves of
  :func:`~repro.collectives.sync.allreduce_ring`, so composing them is
  bit-identical to the full ring allreduce.  Rank ``r`` owns contiguous
  chunk ``(r + 1) % P`` — the chunk the ring's rotation lands on it.
* **halving / doubling** — the two halves of Rabenseifner's algorithm:
  ``reduce_scatter`` = fold-in (4), halving reduce-scatter (2);
  ``allgather_flat`` = doubling allgather (3), fold-out (5).  Each
  in-group rank owns the window the bisection walk ends on; the
  non-power-of-two extras own *empty* windows in between.
* **hierarchical** — rides :class:`~repro.collectives.topology.HostTopology`:
  ``reduce_scatter`` = intra-host reduce (6), ring reduce-scatter of
  host-sized segments over the leaders (10), sub-window scatter to the
  host's members (7); ``allgather_flat`` is the mirror image —
  sub-window gather (8), leader ring allgather (11), intra-host
  broadcast (9).  Only leaders touch inter-host links.
* **compressed wire** — with a reduce-closed codec
  (:mod:`repro.compression`) the ring algorithm runs the compressed-ring
  phases instead (same ids 0 / 1): encoded payloads on every wire hop,
  dense ``float64`` arithmetic at every combine.

Ownership is a *static* function of ``(length, world, algorithm,
topology)`` — :func:`shard_bounds` — so optimizer state keyed by the
owned window is stable across steps and ranks can size buffers without
communicating.  The static schedule verifier
(:mod:`repro.analysis.schedule_verifier`) sweeps these schedules
alongside the rest.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.comm import tags
from repro.comm.communicator import Communicator
from repro.comm.reduce_ops import ReduceOp, get_op
from repro.collectives.sync import (
    _LeaderRanks,
    _as_dense_array,
    _as_float_array,
    _compressed_ring_allgather,
    _compressed_ring_reduce_scatter,
    _doubling_allgather,
    _fold_in,
    _fold_out,
    _halving_reduce_scatter,
    _halving_window,
    _intra_bcast,
    _intra_reduce,
    _next_epoch,
    _recv_segments,
    _require_wire_codec,
    _ring_allgather,
    _ring_reduce_scatter,
    _segment_bounds,
    _send_segments,
    _validate_chunks,
    resolve_host_topology,
)
from repro.collectives.topology import HostTopology, largest_power_of_two_leq
from repro.obs import recorder as _obs

# Phase identifiers within the ``sharding`` tag region (< SHARDING_MAX_PHASES).
_PHASE_RING_RS = 0
_PHASE_RING_AG = 1
_PHASE_HALVING_RS = 2
_PHASE_DOUBLING_AG = 3
_PHASE_FOLD_IN = 4
_PHASE_FOLD_OUT = 5
_PHASE_HIER_REDUCE = 6
_PHASE_HIER_SCATTER = 7
_PHASE_HIER_GATHER = 8
_PHASE_HIER_BCAST = 9
# The hierarchical leader tier runs the ring phases over the host leaders
# in its own phase namespace of the enclosing collective's epoch.
_PHASE_LEADER_RS = 10
_PHASE_LEADER_AG = 11

_tag = tags.sharding_tag

#: Reduce-scatter algorithms and the allgather each one pairs with (the
#: allgather must be fed windows from the *same* ownership map).
ALLGATHER_FOR_REDUCE_SCATTER: Dict[str, str] = {
    "ring": "ring",
    "halving": "doubling",
    "hierarchical": "hierarchical",
}
REDUCE_SCATTER_ALGORITHMS: Tuple[str, ...] = tuple(ALLGATHER_FOR_REDUCE_SCATTER)
ALLGATHER_FLAT_ALGORITHMS: Tuple[str, ...] = tuple(
    ALLGATHER_FOR_REDUCE_SCATTER.values()
)


def _require_algorithm(collective: str, algorithm: str, available) -> None:
    if algorithm not in available:
        raise ValueError(
            f"unknown {collective} algorithm {algorithm!r}; "
            f"available: {sorted(set(available))}"
        )


# --------------------------------------------------------------------------
# static ownership map
# --------------------------------------------------------------------------
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


def shard_bounds(
    length: int,
    size: int,
    algorithm: str = "ring",
    topology: Optional[HostTopology] = None,
) -> List[Tuple[int, int]]:
    """Per-rank owned ``(lo, hi)`` windows after a reduce-scatter.

    The windows are disjoint and cover ``[0, length)`` for ``ring`` and
    ``hierarchical``; under ``halving`` (and its ``doubling`` allgather
    pairing, which accepts the same name) the non-power-of-two "extra"
    ranks own empty windows — their contribution folds into the group
    and the full vector folds back out in the allgather.

    This is a pure function of the arguments, so every rank — and the
    optimizer state keyed by these windows — computes the same map
    without communicating.
    """
    if length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    _require_algorithm(
        "sharding", algorithm, REDUCE_SCATTER_ALGORITHMS + ALLGATHER_FLAT_ALGORITHMS
    )
    if size == 1:
        return [(0, length)]
    if algorithm == "ring":
        bounds = _segment_bounds(length, size)
        return [bounds[(rank + 1) % size] for rank in range(size)]
    if algorithm in ("halving", "doubling"):
        pof2 = largest_power_of_two_leq(size)
        windows = [_halving_window(rank, pof2, length) for rank in range(pof2)]
        windows.extend((0, 0) for _ in range(size - pof2))
        return windows
    # hierarchical
    if topology is None:
        topology = HostTopology.single_host(size)
    if topology.world_size != size:
        raise ValueError(
            f"host topology covers {topology.world_size} rank(s), "
            f"expected {size}"
        )
    host_bounds = _segment_bounds(length, topology.num_hosts)
    return [
        _hier_sub_bounds(topology, topology.host(rank), host_bounds)[
            topology.local_index(rank)
        ]
        for rank in range(size)
    ]


# --------------------------------------------------------------------------
# hierarchical tier compositions
# --------------------------------------------------------------------------
def _hierarchical_reduce_scatter(
    comm: Communicator,
    flat: np.ndarray,
    topology: HostTopology,
    epoch: int,
    n_chunks: int,
    reduce_op: ReduceOp,
    timeout: Optional[float],
) -> None:
    """Intra-host reduce → leader ring reduce-scatter → sub-window scatter."""
    rank = comm.rank
    host = topology.host(rank)
    host_bounds = _segment_bounds(flat.size, topology.num_hosts)
    with _obs.span("shard-hier-intra-reduce", "collective", n_chunks=n_chunks):
        _intra_reduce(
            comm, flat, topology, _tag, epoch, _PHASE_HIER_REDUCE, n_chunks,
            reduce_op, timeout,
        )
    sub_bounds = _hier_sub_bounds(topology, host, host_bounds)
    if topology.is_leader(rank):
        with _obs.span("shard-hier-leader-rs", "collective",
                       leaders=topology.num_hosts, n_chunks=n_chunks):
            _ring_reduce_scatter(
                _LeaderRanks(comm, topology.leaders), flat, host_bounds, _tag,
                epoch, _PHASE_LEADER_RS, n_chunks, reduce_op, timeout,
            )
        for j, member in enumerate(topology.ranks_on_host(host)):
            if member == rank:
                continue
            _send_segments(
                comm, flat, *sub_bounds[j], member, epoch, _PHASE_HIER_SCATTER,
                j, n_chunks, mint=_tag,
            )
    else:
        j = topology.local_index(rank)
        _recv_segments(
            comm, flat, *sub_bounds[j], topology.leader_of(host), epoch,
            _PHASE_HIER_SCATTER, j, n_chunks, timeout, mint=_tag,
        )


def _hierarchical_allgather(
    comm: Communicator,
    flat: np.ndarray,
    topology: HostTopology,
    epoch: int,
    n_chunks: int,
    timeout: Optional[float],
) -> None:
    """Sub-window gather to leader → leader ring allgather → intra bcast."""
    rank = comm.rank
    host = topology.host(rank)
    host_bounds = _segment_bounds(flat.size, topology.num_hosts)
    sub_bounds = _hier_sub_bounds(topology, host, host_bounds)
    if topology.is_leader(rank):
        for j, member in enumerate(topology.ranks_on_host(host)):
            if member == rank:
                continue
            _recv_segments(
                comm, flat, *sub_bounds[j], member, epoch, _PHASE_HIER_GATHER,
                j, n_chunks, timeout, mint=_tag,
            )
        with _obs.span("shard-hier-leader-ag", "collective",
                       leaders=topology.num_hosts, n_chunks=n_chunks):
            _ring_allgather(
                _LeaderRanks(comm, topology.leaders), flat, host_bounds, _tag,
                epoch, _PHASE_LEADER_AG, n_chunks, timeout,
            )
    else:
        j = topology.local_index(rank)
        _send_segments(
            comm, flat, *sub_bounds[j], topology.leader_of(host), epoch,
            _PHASE_HIER_GATHER, j, n_chunks, mint=_tag,
        )
    with _obs.span("shard-hier-intra-bcast", "collective", n_chunks=n_chunks):
        _intra_bcast(
            comm, flat, topology, _tag, epoch, _PHASE_HIER_BCAST, n_chunks, timeout
        )


# --------------------------------------------------------------------------
# public primitives
# --------------------------------------------------------------------------
def reduce_scatter(
    comm: Communicator,
    data,
    op: ReduceOp | str = "sum",
    algorithm: str = "ring",
    average: bool = False,
    timeout: Optional[float] = None,
    n_chunks: int = 1,
    copy: bool = True,
    codec=None,
    topology: Optional[HostTopology] = None,
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Reduce the vector across ranks, scattering ownership of the result.

    Returns ``(buffer, (lo, hi))``: ``buffer`` is this rank's flat
    working array and ``buffer[lo:hi]`` — the window
    :func:`shard_bounds` assigns this rank — holds the fully reduced
    (and, with ``average``, world-size-averaged) values.  Elements
    outside the owned window are partial sums and must not be read; the
    paired :func:`allgather_flat` (same algorithm family, see
    :data:`ALLGATHER_FOR_REDUCE_SCATTER`) refills them.

    The ring schedule is step-identical to the reduce-scatter phase of
    :func:`~repro.collectives.sync.allreduce_ring`, so a reduce-scatter
    → owned-window update → parameter allgather pipeline is bitwise
    equal to updating after the full ring allreduce.

    ``codec`` (reduce-closed, fixed-width wire dtype) switches the ring
    hops to encoded payloads with dense combines; only the ring
    algorithm supports it.  ``op`` must be ``"sum"`` under a codec or
    with ``average`` (anything else raises :class:`ValueError`).
    """
    _require_algorithm("reduce_scatter", algorithm, REDUCE_SCATTER_ALGORITHMS)
    reduce_op = get_op(op)
    n_chunks = _validate_chunks(n_chunks)
    if (codec is not None or average) and reduce_op.name != "sum":
        # The compressed hop adds densely and the average divides by P:
        # either is only meaningful for a sum.
        raise ValueError(
            f"reduce_scatter with a codec or average=True requires op='sum', "
            f"got op={reduce_op.name!r}"
        )
    if codec is not None:
        if algorithm != "ring":
            raise ValueError(
                f"compressed reduce_scatter supports the ring algorithm only, "
                f"got {algorithm!r}"
            )
        _require_wire_codec(codec)
        arr = _as_dense_array(data, copy)
    else:
        arr = _as_float_array(data, copy=copy)
    flat = arr.reshape(-1)
    rank, size = comm.rank, comm.size
    if size == 1:
        return flat, (0, flat.size)
    epoch = _next_epoch(comm, "sharding")
    if algorithm == "hierarchical":
        topology = resolve_host_topology(comm, topology)
    lo, hi = shard_bounds(flat.size, size, algorithm, topology=topology)[rank]
    with _obs.span(
        f"reduce_scatter[{algorithm}]", "collective",
        nbytes=flat.nbytes, n_chunks=n_chunks,
    ):
        if algorithm == "ring":
            bounds = _segment_bounds(flat.size, size)
            if codec is not None:
                _compressed_ring_reduce_scatter(
                    comm, flat, bounds, _tag, epoch, _PHASE_RING_RS, n_chunks,
                    codec, timeout,
                )
            else:
                _ring_reduce_scatter(
                    comm, flat, bounds, _tag, epoch, _PHASE_RING_RS, n_chunks,
                    reduce_op, timeout,
                )
        elif algorithm == "halving":
            if _fold_in(
                comm, flat, _tag, epoch, _PHASE_FOLD_IN, n_chunks, reduce_op,
                timeout,
            ):
                _halving_reduce_scatter(
                    comm, flat, _tag, epoch, _PHASE_HALVING_RS, n_chunks,
                    reduce_op, timeout,
                )
        else:  # hierarchical
            _hierarchical_reduce_scatter(
                comm, flat, topology, epoch, n_chunks, reduce_op, timeout
            )
    if average and hi > lo:
        flat[lo:hi] /= size
    return flat, (lo, hi)


def allgather_flat(
    comm: Communicator,
    flat,
    algorithm: str = "ring",
    timeout: Optional[float] = None,
    n_chunks: int = 1,
    codec=None,
    topology: Optional[HostTopology] = None,
) -> np.ndarray:
    """Fill every rank's full flat vector from the per-rank owned windows.

    The in-place dual of :func:`reduce_scatter`: each rank enters with
    its :func:`shard_bounds` window holding final values (e.g. freshly
    updated parameters) and returns with the whole vector replicated.
    ``algorithm`` must pair with the reduce-scatter that produced the
    windows (:data:`ALLGATHER_FOR_REDUCE_SCATTER`): ``ring`` ↔ ``ring``,
    ``halving`` ↔ ``doubling`` (``"halving"`` is accepted as an alias),
    ``hierarchical`` ↔ ``hierarchical``.

    ``codec`` (ring only) circulates encoded chunks; all ranks decode the
    same bytes — including the owner, whose window is re-decoded from its
    own encoding — so the replicas stay bit-identical.
    """
    if algorithm == "halving":
        algorithm = "doubling"
    _require_algorithm("allgather_flat", algorithm, ALLGATHER_FLAT_ALGORITHMS)
    n_chunks = _validate_chunks(n_chunks)
    arr = np.asarray(flat)
    if arr.ndim != 1 or not np.issubdtype(arr.dtype, np.floating):
        raise ValueError(
            f"allgather_flat operates in place on a 1-D float vector, got "
            f"shape {arr.shape} dtype {arr.dtype}"
        )
    if not arr.flags.writeable:
        raise ValueError(
            f"allgather_flat fills the vector in place and needs it writable, "
            f"got a read-only array of shape {arr.shape}"
        )
    rank, size = comm.rank, comm.size
    if size == 1:
        return arr
    if codec is not None:
        if algorithm != "ring":
            raise ValueError(
                f"compressed allgather_flat supports the ring algorithm only, "
                f"got {algorithm!r}"
            )
        _require_wire_codec(codec)
    epoch = _next_epoch(comm, "sharding")
    with _obs.span(
        f"allgather_flat[{algorithm}]", "collective",
        nbytes=arr.nbytes, n_chunks=n_chunks,
    ):
        if algorithm == "ring":
            bounds = _segment_bounds(arr.size, size)
            if codec is not None:
                _compressed_ring_allgather(
                    comm, arr, bounds, _tag, epoch, _PHASE_RING_AG, n_chunks,
                    codec, timeout,
                )
            else:
                _ring_allgather(
                    comm, arr, bounds, _tag, epoch, _PHASE_RING_AG, n_chunks,
                    timeout,
                )
        elif algorithm == "doubling":
            if rank < largest_power_of_two_leq(size):
                _doubling_allgather(
                    comm, arr, _tag, epoch, _PHASE_DOUBLING_AG, timeout
                )
            _fold_out(comm, arr, _tag, epoch, _PHASE_FOLD_OUT, n_chunks, timeout)
        else:  # hierarchical
            topology = resolve_host_topology(comm, topology)
            _hierarchical_allgather(comm, arr, topology, epoch, n_chunks, timeout)
    return arr
