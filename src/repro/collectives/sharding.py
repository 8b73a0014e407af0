"""Sharded-optimizer collectives: ``reduce_scatter`` and ``allgather_flat``.

ZeRO stage-1 training replaces the gradient allreduce with a split
schedule: a *reduce-scatter* leaves each rank holding one fully reduced
1/P shard of the gradient, the optimizer updates only that shard's
parameters (and allocates state only for it), and an *allgather* of the
updated **parameters** restores the replicated model.

An allreduce *is* a reduce-scatter followed by an allgather, so this
module holds no schedule of its own: ``reduce_scatter`` runs the
:func:`~repro.collectives.sync.reduce_scatter_plan` half of
:mod:`repro.collectives.sync`'s split allreduces and ``allgather_flat``
the :func:`~repro.collectives.sync.allgather_plan` half — the very two
plans ``allreduce`` runs for ``ring`` and ``rabenseifner``, one epoch
of the communicator's collective counter per call.  The families, with
the phase ids of :mod:`repro.collectives.sync`'s table:

* **ring** — ring reduce-scatter (4) and ring allgather (5); rank ``r``
  owns contiguous chunk ``(r + 1) % P``.  A reduce-closed codec is the
  dtype of their hops (see "Wire dtypes" there).
* **halving / doubling** — Rabenseifner's halves: fold-in (8) and
  halving (6); doubling (7) and fold-out (9).  Each in-group rank owns
  the window its bisection walk ends on; the non-power-of-two extras
  own *empty* windows.
* **hierarchical** — intra-host reduce (10), leader ring (12),
  sub-window scatter to the host's members (14), and the mirror image
  (15, 13, 11) over a :class:`~repro.collectives.topology.HostTopology`.
  Only leaders touch inter-host links.

Ownership is a *static* function of ``(length, world, algorithm,
topology)`` — :func:`shard_bounds` reads it off the plans — so optimizer
state keyed by the owned window is stable across steps and ranks size
buffers without communicating.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.comm.communicator import Communicator
from repro.comm.reduce_ops import ReduceOp, get_op
from repro.collectives.sync import (
    ALLGATHER_FOR_REDUCE_SCATTER,
    _allgather_phases,
    _as_float_array,
    _reduce_scatter_phases,
    _require_reduce_closed,
    _validate_chunks,
    allgather_plan,
    reduce_scatter_plan,
)
from repro.collectives.topology import HostTopology, resolve_host_topology

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


def _require_ring_codec(collective: str, algorithm: str, codec) -> None:
    if algorithm != "ring":
        raise ValueError(
            f"{collective} with a codec supports the ring algorithm only, "
            f"got {algorithm!r}"
        )
    _require_reduce_closed(codec)


def shard_bounds(
    length: int,
    size: int,
    algorithm: str = "ring",
    topology: Optional[HostTopology] = None,
) -> List[Tuple[int, int]]:
    """Per-rank owned ``(lo, hi)`` windows after a reduce-scatter.

    The windows are disjoint and cover ``[0, length)`` for ``ring`` and
    ``hierarchical``; under ``halving`` (or its ``doubling`` pairing) the
    non-power-of-two "extra" ranks own empty windows — their
    contribution folds into the group and the full vector folds back
    out in the allgather.  A pure function of the arguments: each
    rank's plan names its window.
    """
    if length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    _require_algorithm(
        "sharding", algorithm, REDUCE_SCATTER_ALGORITHMS + ALLGATHER_FLAT_ALGORITHMS
    )
    if algorithm == "hierarchical":
        topology = resolve_host_topology(topology or HostTopology.single_host(size), size)
    plan = reduce_scatter_plan if algorithm in REDUCE_SCATTER_ALGORITHMS else allgather_plan
    return [
        plan(algorithm, rank, size, length, 1, topology, False)[1]
        for rank in range(size)
    ]


def reduce_scatter(
    comm: Communicator,
    data,
    op: ReduceOp | str = "sum",
    algorithm: str = "ring",
    average: bool = False,
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

    The schedule is the reduce-scatter half of the matching split
    allreduce (:func:`~repro.collectives.sync.allreduce`'s ``ring`` for
    ``ring``), so a reduce-scatter → owned-window update → parameter
    allgather pipeline is bitwise equal to updating after the full
    allreduce.

    ``codec`` (reduce-closed) is the wire dtype of the ring hops; only
    the ring algorithm supports it.  ``op`` must be ``"sum"`` under a
    codec or with ``average`` (anything else raises :class:`ValueError`).
    """
    _require_algorithm("reduce_scatter", algorithm, REDUCE_SCATTER_ALGORITHMS)
    reduce_op = get_op(op)
    n_chunks = _validate_chunks(n_chunks)
    if (codec is not None or average) and reduce_op.name != "sum":
        # A wire hop adds and the average divides by P: either is only
        # meaningful for a sum.
        raise ValueError(
            f"reduce_scatter with a codec or average=True requires op='sum', "
            f"got op={reduce_op.name!r}"
        )
    if codec is not None:
        _require_ring_codec("reduce_scatter", algorithm, codec)
    flat = _as_float_array(data, copy=copy, codec=codec).reshape(-1)
    if comm.size == 1:
        return flat, (0, flat.size)
    epoch = comm.next_collective_epoch()
    if algorithm == "hierarchical":
        topology = resolve_host_topology(topology or comm, comm.size)
    window = _reduce_scatter_phases(
        comm, flat, algorithm, epoch, n_chunks, reduce_op,
        average=average, codec=codec, topology=topology,
    )
    return flat, window


def allgather_flat(
    comm: Communicator,
    flat,
    algorithm: str = "ring",
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

    Without a codec any dtype travels as it is (the gradient exchanges
    gather ``uint8`` payload tables and a ``float64`` readiness table).
    ``codec`` (ring only, float vectors) is the wire dtype of the hops;
    the owner rounds its window through it first, so the replicas stay
    bit-identical.
    """
    if algorithm == "halving":
        algorithm = "doubling"
    _require_algorithm("allgather_flat", algorithm, ALLGATHER_FLAT_ALGORITHMS)
    n_chunks = _validate_chunks(n_chunks)
    arr = np.asarray(flat)
    if arr.ndim != 1 or (codec is not None and not np.issubdtype(arr.dtype, np.floating)):
        raise ValueError(
            f"allgather_flat operates in place on a 1-D vector (a float one "
            f"under a codec), got shape {arr.shape} dtype {arr.dtype}"
        )
    if not arr.flags.writeable:
        raise ValueError(
            f"allgather_flat fills the vector in place and needs it writable, "
            f"got a read-only array of shape {arr.shape}"
        )
    if codec is not None:
        _require_ring_codec("allgather_flat", algorithm, codec)
    if comm.size == 1:
        return arr
    epoch = comm.next_collective_epoch()
    if algorithm == "hierarchical":
        topology = resolve_host_topology(topology or comm, comm.size)
    _allgather_phases(
        comm, arr, algorithm, epoch, n_chunks, codec=codec, topology=topology
    )
    return arr
