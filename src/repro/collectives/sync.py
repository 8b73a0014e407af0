"""Synchronous collectives, defined as compositions of collective *phases*.

Every collective — here and in :mod:`repro.collectives.sharding` — draws
one epoch from its communicator
(:meth:`~repro.comm.communicator.Communicator.next_collective_epoch`),
and its phases mint ``tags.sync_tag(epoch, phase, round, chunk)`` under
the phase ids of this table, the one place a phase id is assigned::

    id  phase                                    run by
     0  retired (the rooted broadcast)
     1  retired (the rooted reduce)
     2  retired (the object allgather)
     3  pairwise full-vector exchange            recursive doubling
     4  ring reduce-scatter                      ring
     5  ring allgather                           ring
     6  recursive-halving reduce-scatter         Rabenseifner / halving
     7  recursive-doubling allgather             Rabenseifner / doubling
     8  fold-in of the non-power-of-two extras   recursive doubling, halving
     9  fold-out to the extras                   recursive doubling, doubling
    10  intra-host reduce onto the leader        hierarchical
    11  intra-host broadcast from the leader     hierarchical; the partial
                                                 activation's plan
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
  an allgather.  :func:`allreduce`'s ``ring`` and ``rabenseifner`` run
  both halves in one epoch (dividing the owned window in between under
  ``average``), the sharding module's ``reduce_scatter`` /
  ``allgather_flat`` one each — so ring allreduce ≡ reduce-scatter ∘
  allgather bitwise by construction.  The halves by family: **ring** =
  4 ∘ 5 (bandwidth-optimal, Horovod's default); **halving / doubling**
  (Rabenseifner) = 8, 6 ∘ 7, 9; **hierarchical** (sharded only) = 10,
  12, 14 ∘ 15, 13, 11.
* **hierarchical allreduce** = intra-host reduce (10), the ring over the
  host leaders only (12, 13; its peers are the leaders' global ranks),
  intra-host broadcast (11).  It schedules against the transport's
  :class:`~repro.collectives.topology.HostTopology`
  (``comm.router.host_topology``, exposed by the ``hier`` backend), so
  non-leader ranks never touch an inter-host link.

The fold (the ``P - 2^k`` extra ranks fold their contribution into a
partner in the power-of-two group and are handed the result back) makes
non-power-of-two worlds native: the algorithm named by the caller is the
algorithm that runs, at every world size — **no silent fallback** (the
ring needs no fold at all).

Plans
-----
A schedule is data.  :func:`reduce_scatter_plan`, :func:`allgather_plan`
and :func:`allreduce_plan` are pure functions of ``(algorithm, rank,
size, length, n_chunks, topology, wire)``, cached per shape, that return
one rank's *plan*: a tuple of ``(span name | None, steps)`` stages, each
:class:`Step` one message — peer, window, tag offset, combine or assign.
:func:`run_plan` is the one executor and the only place these phases
send or receive, so a steady-state collective builds no step.
``sync_tag`` checks the round and chunk fields when a plan is built and
the epoch when it runs.  The allreduce body and the two halves keep what
is not a message: the average divide and the codec's rounding of the owned
window.  The partial collectives' activation is a plan too
(:func:`activation_plan`, the binomial broadcast rooted at the
initiator): the progress thread sends to its send steps' peers on its
own channel and tags, so only the verifier and the pricer read its
phase-11 tags.  :mod:`repro.analysis.schedule_verifier` checks every
rank's plan without threads.  A gather of other rows (Horovod's
readiness table, the encoded payloads of a codec that is not
reduce-closed) is the ring ``allgather_flat`` of a table with one row
per rank, and the barrier is a zero-length recursive-doubling
allreduce, so no collective keeps a loop of its own.

Chunk pipelining
----------------
Every phase but the doubling allgather splits each per-round payload into
``n_chunks`` segments, one message and tag each, so that the combine of
segment *k* overlaps the transmission of segment *k + 1* (sends are
eager on this substrate).  The doubling allgather sends one array per
round: the window each side holds, which both compute from ``(rank,
2^k, length)``.  ``n_chunks=1`` reproduces the classic monolithic rounds
bit-for-bit.

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

Deadlines and tags
------------------
No collective takes a ``timeout``: every receive waits at most its
communicator's ``default_timeout`` — the world's one deadline (see
:mod:`repro.comm.communicator`) — and then raises
:class:`~repro.comm.mailbox.CommTimeoutError`.  The ``(epoch, phase,
round, chunk)`` strides live in :mod:`repro.comm.tags`, whose
``sync_tag`` *raises* on any field overflow; its ``2^17`` rounds per
phase support ring worlds beyond 100k ranks.
"""

from __future__ import annotations

import contextlib
import functools
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.comm import tags
from repro.comm.communicator import Communicator
from repro.obs import recorder as _obs
from repro.comm.reduce_ops import ReduceOp, get_op
from repro.collectives.topology import (
    HostTopology,
    bcast_order,
    largest_power_of_two_leq,
    resolve_host_topology,
)

# The phase table of the module docstring (ids < tags.SYNC_MAX_PHASES).
# Ids 0, 1 and 2 are retired, not reused: every other tag keeps its value.
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
# plans: the schedule as data
# --------------------------------------------------------------------------
class Step(NamedTuple):
    """One message of a plan, as seen by the rank that runs it.

    A send ships ``flat[lo:hi]`` to ``peer``; a receive lands a message
    from ``peer`` in ``flat[lo:hi]`` — combined in under ``combine``,
    assigned otherwise.  ``tag`` is the ``(phase, round, chunk)`` offset
    from ``tags.sync_tag(epoch, 0, 0, 0)``; a ``wire`` step travels in
    the codec's wire dtype (see "Wire dtypes" in the module docstring).
    """

    send: bool
    peer: int
    lo: int
    hi: int
    tag: int
    combine: bool
    wire: bool


#: A stage is ``(span name | None, steps)``; a plan is a tuple of stages.
Stage = Tuple[Optional[str], Tuple[Step, ...]]
Plan = Tuple[Stage, ...]

#: Distinct plans kept per process (an entry is one rank's plan of one
#: shape: a thread world holds every rank's).
_PLAN_CACHE_SIZE = 256
_TAG_ORIGIN = tags.sync_tag(0, 0, 0, 0)


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _segment_bounds(length: int, n_chunks: int) -> Tuple[Tuple[int, int], ...]:
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
    return tuple(bounds)


def _segments(
    send: bool, peer: int, lo: int, hi: int, phase: int, round_index: int,
    n_chunks: int, combine: bool = False, wire: bool = False,
) -> List[Step]:
    """``flat[lo:hi]`` to or from ``peer`` as ``n_chunks`` segments, one
    tag each (``sync_tag`` checks the round and chunk fields here)."""
    last = tags.sync_tag(0, phase, round_index, n_chunks - 1) - _TAG_ORIGIN
    return [
        Step(send, peer, lo + slo, lo + shi, last - n_chunks + 1 + k, combine, wire)
        for k, (slo, shi) in enumerate(_segment_bounds(hi - lo, n_chunks))
    ]


def _fold(rank: int, size: int, length: int, n_chunks: int, phase: int) -> List[Step]:
    """Fold-in (8): each extra rank ``r >= 2^k`` sends its whole vector
    to ``r - 2^k``, which combines it in; fold-out (9) hands the result
    back along the same pairs."""
    pof2 = largest_power_of_two_leq(size)
    fold_out = phase == _PHASE_FOLD_OUT
    if rank >= pof2:
        return _segments(not fold_out, rank - pof2, 0, length, phase, 0, n_chunks)
    if rank < size - pof2:
        return _segments(
            fold_out, rank + pof2, 0, length, phase, 0, n_chunks, combine=not fold_out
        )
    return []


def _ring(
    position: int, members, bounds, phase: int, n_chunks: int, wire: bool, gather: bool
) -> List[Step]:
    """Ring reduce-scatter, or allgather under ``gather``, of
    ``members[position]`` over ``members`` (global ranks in ring order).

    Reduce-scatter round ``r`` sends chunk ``position - r`` of ``bounds``
    to the successor and combines chunk ``position - r - 1`` from the
    predecessor, leaving chunk ``position + 1`` reduced; the allgather
    circulates the owned chunks one position further.
    """
    n = len(members)
    succ, pred = members[(position + 1) % n], members[(position - 1) % n]
    shift = 1 if gather else 0
    steps: List[Step] = []
    for r in range(n - 1):
        steps += _segments(
            True, succ, *bounds[(position - r + shift) % n], phase, r, n_chunks,
            wire=wire,
        )
        steps += _segments(
            False, pred, *bounds[(position - r - 1 + shift) % n], phase, r,
            n_chunks, combine=not gather, wire=wire,
        )
    return steps


def _halving(rank: int, size: int, length: int, n_chunks: int, gather: bool):
    """Fold-in and recursive-halving reduce-scatter (8, 6), or under
    ``gather`` recursive-doubling allgather and fold-out (7, 9): the
    steps and the window the bisection walk leaves ``rank``.

    A halving round's lower-ranked partner keeps the lower half of the
    current window and combines it; the doubling allgather retraces the
    walk backwards, one array per round, the window each side holds.
    """
    pof2 = largest_power_of_two_leq(size)
    steps = [] if gather else _fold(rank, size, length, n_chunks, _PHASE_FOLD_IN)
    lo, hi = 0, length if rank < pof2 else 0
    rounds = []
    dist = pof2 // 2 if rank < pof2 else 0
    while dist >= 1:
        partner = rank ^ dist
        mid = lo + (hi - lo) // 2
        keep, give = ((lo, mid), (mid, hi)) if rank < partner else ((mid, hi), (lo, mid))
        rounds.append((partner, keep, give))
        lo, hi = keep
        dist //= 2
    if gather:
        for r, (partner, keep, give) in enumerate(reversed(rounds)):
            steps += _segments(True, partner, *keep, _PHASE_DOUBLING_AG, r, 1)
            steps += _segments(False, partner, *give, _PHASE_DOUBLING_AG, r, 1)
        steps += _fold(rank, size, length, n_chunks, _PHASE_FOLD_OUT)
    else:
        for r, (partner, keep, give) in enumerate(rounds):
            steps += _segments(True, partner, *give, _PHASE_HALVING_RS, r, n_chunks)
            steps += _segments(
                False, partner, *keep, _PHASE_HALVING_RS, r, n_chunks, combine=True
            )
    return ((None, tuple(steps)),), (lo, hi)


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _tree_edges(ranks: Tuple[int, ...], root: int, phase: int) -> Dict[int, list]:
    """``rank -> [(round, peer, sends)]`` over the binomial tree of
    ``ranks`` rooted at ``ranks[root]``: the broadcast from the root
    (11), or the reduce onto it (10), which runs the broadcast's edges
    backwards so that every sender has combined its subtree first."""
    edges = [(ranks[src], ranks[dst]) for src, dst in bcast_order(len(ranks), root)]
    if phase == _PHASE_HIER_REDUCE:
        edges = [(dst, src) for src, dst in reversed(edges)]
    touching: Dict[int, list] = {}
    for r, (src, dst) in enumerate(edges):
        touching.setdefault(src, []).append((r, dst, True))
        touching.setdefault(dst, []).append((r, src, False))
    return touching


def _tree(
    rank: int, ranks: Tuple[int, ...], root: int, length: int, n_chunks: int, phase: int
):
    """``rank``'s whole-vector steps in the tree of :func:`_tree_edges`
    (receives combine on the way to the root)."""
    steps: List[Step] = []
    for r, peer, send in _tree_edges(ranks, root, phase).get(rank, ()):
        reduce = phase == _PHASE_HIER_REDUCE and not send
        steps += _segments(send, peer, 0, length, phase, r, n_chunks, combine=reduce)
    return tuple(steps)


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def activation_plan(size: int, initiator: int) -> Tuple[Plan, ...]:
    """Every rank's plan of a partial collective's activation: the
    binomial broadcast of one element rooted at ``initiator``, built like
    the intra-host broadcast (11).  Each rank but the initiator receives
    once from its tree parent, then sends once per child
    (:func:`~repro.collectives.topology.binomial_tree_children`).

    The progress thread of :mod:`repro.collectives.partial` sends to the
    peers of its rank's send steps (on its own channel and round tag),
    :mod:`repro.analysis.schedule_verifier` interprets the plan for every
    initiator and :mod:`repro.simtime` prices it.
    """
    ranks = tuple(range(size))
    return tuple(
        ((None, _tree(rank, ranks, initiator, 1, 1, _PHASE_HIER_BCAST)),) for rank in ranks
    )


def _hier_edges(
    rank: int, topology: HostTopology, length: int, n_chunks: int, phase: int, wire: bool
):
    """``rank``'s leader-ring steps (none off the leaders), its sub-window
    scatter (14) or gather (15) steps, and its window: host ``h`` owns
    segment ``h + 1`` of the leader ring, split across its members in
    local-index order."""
    host = topology.host(rank)
    host_bounds = _segment_bounds(length, topology.num_hosts)
    members = topology.ranks_on_host(host)
    hlo, hhi = host_bounds[(host + 1) % topology.num_hosts]
    within = _segment_bounds(hhi - hlo, len(members))

    def sub(j: int) -> Tuple[int, int]:
        return hlo + within[j][0], hlo + within[j][1]

    gather = phase == _PHASE_HIER_GATHER
    if not topology.is_leader(rank):
        j = topology.local_index(rank)
        return (), tuple(_segments(gather, members[0], *sub(j), phase, j, n_chunks)), sub(j)
    ring = _ring(
        host, topology.leaders, host_bounds,
        _PHASE_LEADER_AG if gather else _PHASE_LEADER_RS, n_chunks, wire, gather,
    )
    edges = [
        step
        for j, member in enumerate(members[1:], 1)
        for step in _segments(not gather, member, *sub(j), phase, j, n_chunks)
    ]
    return tuple(ring), tuple(edges), sub(0)


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def reduce_scatter_plan(
    algorithm: str, rank: int, size: int, length: int, n_chunks: int,
    topology: Optional[HostTopology] = None, wire: bool = False,
) -> Tuple[Plan, Tuple[int, int]]:
    """``rank``'s reduce-scatter half of ``algorithm`` on ``length``
    elements, and the ``(lo, hi)`` window it leaves fully reduced there
    (the non-power-of-two extras of ``halving`` own an empty window).
    ``wire`` marks the ring hops (the leader ring's, under
    ``hierarchical``) as travelling in a codec's wire dtype."""
    if algorithm == "ring":
        bounds = _segment_bounds(length, size)
        steps = _ring(rank, range(size), bounds, _PHASE_RING_RS, n_chunks, wire, False)
        return ((None, tuple(steps)),), bounds[(rank + 1) % size]
    if algorithm == "halving":
        return _halving(rank, size, length, n_chunks, False)
    ring, scatter, window = _hier_edges(
        rank, topology, length, n_chunks, _PHASE_HIER_SCATTER, wire
    )
    return (
        ("hier-intra-reduce",
         _tree(rank, topology.local_ranks(rank), 0, length, n_chunks, _PHASE_HIER_REDUCE)),
        ("hier-leader-ring", ring),
        (None, scatter),
    ), window


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def allgather_plan(
    algorithm: str, rank: int, size: int, length: int, n_chunks: int,
    topology: Optional[HostTopology] = None, wire: bool = False,
) -> Tuple[Plan, Tuple[int, int]]:
    """``rank``'s allgather half of ``algorithm`` (an allgather name), and
    the window it enters with — the paired reduce-scatter's."""
    if algorithm == "ring":
        bounds = _segment_bounds(length, size)
        steps = _ring(rank, range(size), bounds, _PHASE_RING_AG, n_chunks, wire, True)
        return ((None, tuple(steps)),), bounds[(rank + 1) % size]
    if algorithm == "doubling":
        return _halving(rank, size, length, n_chunks, True)
    ring, gather, window = _hier_edges(
        rank, topology, length, n_chunks, _PHASE_HIER_GATHER, wire
    )
    return (
        (None, gather),
        ("hier-leader-ring", ring),
        ("hier-intra-bcast",
         _tree(rank, topology.local_ranks(rank), 0, length, n_chunks, _PHASE_HIER_BCAST)),
    ), window


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def allreduce_plan(
    algorithm: str, rank: int, size: int, length: int, n_chunks: int,
    topology: Optional[HostTopology] = None, wire: bool = False,
) -> Plan:
    """``rank``'s whole plan of allreduce ``algorithm``.

    ``recursive_doubling`` is fold-in, pairwise full-vector exchanges,
    fold-out.  ``ring`` and ``rabenseifner`` are their two halves back to
    back; ``hierarchical`` is intra-host reduce, the leader ring's two
    halves and intra-host broadcast (the ring on a single host, which is
    what :func:`allreduce` runs there).
    """
    if algorithm == "recursive_doubling":
        pof2 = largest_power_of_two_leq(size)
        exchange: List[Step] = []
        for r in range(pof2.bit_length() - 1 if rank < pof2 else 0):
            exchange += _segments(True, rank ^ (1 << r), 0, length, _PHASE_RD, r, n_chunks)
            exchange += _segments(
                False, rank ^ (1 << r), 0, length, _PHASE_RD, r, n_chunks, combine=True
            )
        return (
            (None, tuple(_fold(rank, size, length, n_chunks, _PHASE_FOLD_IN))),
            ("rd-exchange", tuple(exchange)),
            (None, tuple(_fold(rank, size, length, n_chunks, _PHASE_FOLD_OUT))),
        )
    if algorithm == "hierarchical" and (topology is None or topology.is_single_host):
        algorithm = "ring"
    halves = "halving" if algorithm == "rabenseifner" else algorithm
    first, _ = reduce_scatter_plan(halves, rank, size, length, n_chunks, topology, wire)
    second, _ = allgather_plan(
        ALLGATHER_FOR_REDUCE_SCATTER[halves], rank, size, length, n_chunks, topology, wire
    )
    return first[:2] + second[1:] if algorithm == "hierarchical" else first + second


def run_plan(
    comm: Communicator, flat: np.ndarray, plan: Plan, epoch: int,
    reduce_op: Optional[ReduceOp] = None, wire: Optional[np.dtype] = None,
) -> None:
    """Run ``plan`` on ``flat`` under ``epoch``: the one place the
    flat-buffer collectives send and receive.

    A combining receive applies ``reduce_op`` as the segment lands (so
    combining segment *k* overlaps the eager transmission of the later
    ones); any other receive writes the segment — on the process-model
    transports by reading the frame straight into ``flat``.  A ``wire``
    step sends its segment cast to the ``wire`` dtype and receives into a
    scratch of it, widened into ``flat`` by assignment or a mixed-dtype
    ``np.add`` (the one combine a codec's ring runs is a sum).  Each named
    stage with steps is one ``collective`` span.
    """
    base = tags.sync_tag(epoch, 0, 0, 0)
    for name, steps in plan:
        if not steps:
            continue
        with _obs.span(name, "collective") if name else contextlib.nullcontext():
            for send, peer, lo, hi, tag, combine, on_wire in steps:
                segment = flat[lo:hi]
                if send:
                    comm.send(
                        segment.astype(wire) if on_wire else segment, peer,
                        tag=base + tag,
                    )
                elif not on_wire:
                    comm.recv_into(segment, peer, base + tag, reduce_op if combine else None)
                else:
                    narrow = np.empty(hi - lo, dtype=wire)
                    comm.recv_into(narrow, peer, base + tag)
                    if combine:
                        np.add(segment, narrow, out=segment)
                    else:
                        segment[...] = narrow


def walk_plans(
    programs: Sequence[Sequence[Plan]],
    on_send: Callable[[int, int, int, Step], object],
    on_recv: Callable[[int, int, int, Step, object], Optional[bool]],
) -> Tuple[List[int], Dict[Tuple[int, int, int], int]]:
    """Step every rank's plans in causal order, without threads or data:
    the one offline traversal of a schedule.

    Rank ``r`` runs the plans of ``programs[r]`` in order, the k-th under
    collective epoch k (each collective draws the next one).  At a send,
    ``on_send(rank, pc, tag, step)`` returns the message posted under
    ``(rank, peer, tag)``; at a receive the rank waits until one is posted
    under ``(peer, rank, tag)`` and ``on_recv(rank, pc, tag, step,
    message)`` takes the oldest, so a receive always runs after its send.
    ``pc`` counts the rank's steps across its plans and ``tag`` is the
    absolute tag.  ``on_recv`` returning ``False`` stops the rank at that
    receive.  A waiting rank is woken by the send that posts its message.

    Returns each rank's final step index and the receives still waiting
    when no rank can move, as ``{(source, rank, tag): rank}``.
    """
    size = len(programs)
    steps = [
        [
            (base + step.tag, step)
            for epoch, plan in enumerate(plans)
            for base in (tags.sync_tag(epoch, 0, 0, 0),)
            for _name, stage in plan
            for step in stage
        ]
        for plans in programs
    ]
    pcs = [0] * size
    mailbox: Dict[Tuple[int, int, int], List[object]] = {}
    waiting: Dict[Tuple[int, int, int], int] = {}
    ready = list(range(size))
    while ready:
        rank = ready.pop()
        program, pc = steps[rank], pcs[rank]
        while pc < len(program):
            tag, step = program[pc]
            if step.send:
                key = (rank, step.peer, tag)
                mailbox.setdefault(key, []).append(on_send(rank, pc, tag, step))
                if key in waiting:
                    ready.append(waiting.pop(key))
            else:
                key = (step.peer, rank, tag)
                queue = mailbox.get(key)
                if queue is None:
                    waiting[key] = rank
                    break
                message = queue.pop(0)
                if not queue:
                    del mailbox[key]
                if on_recv(rank, pc, tag, step, message) is False:
                    break
            pc += 1
        pcs[rank] = pc
    return pcs, waiting


# --------------------------------------------------------------------------
# the two halves of a split allreduce (and of reduce_scatter / allgather_flat)
# --------------------------------------------------------------------------
def _reduce_scatter_phases(
    comm: Communicator, flat: np.ndarray, algorithm: str, epoch: int,
    n_chunks: int, reduce_op: Optional[ReduceOp], average: bool = False,
    codec=None, topology: Optional[HostTopology] = None,
) -> Tuple[int, int]:
    """The reduce-scatter half of ``algorithm`` in ``epoch``.

    Returns this rank's owned window, which holds the fully reduced sums
    — divided by the world size under ``average``, the only ``N / P``
    sums this rank holds final.  ``codec`` (ring only) is the wire dtype
    of the ring's hops.
    """
    wire = None if codec is None else codec.wire_dtype
    plan, (lo, hi) = reduce_scatter_plan(
        algorithm, comm.rank, comm.size, flat.size, n_chunks, topology,
        wire is not None,
    )
    with _obs.span(
        f"reduce_scatter[{algorithm}]", "collective",
        nbytes=flat.nbytes, n_chunks=n_chunks,
    ):
        run_plan(comm, flat, plan, epoch, reduce_op, wire)
    if average:
        flat[lo:hi] /= comm.size
    return lo, hi


def _allgather_phases(
    comm: Communicator, flat: np.ndarray, algorithm: str, epoch: int,
    n_chunks: int, codec=None, topology: Optional[HostTopology] = None,
) -> None:
    """The allgather half of ``algorithm`` (an allgather name) in ``epoch``:
    every rank's owned window lands on every rank.

    Under ``codec`` the owned window is first rounded through the wire
    dtype in place, so re-casting the widened values the ring forwards is
    exact and every replica holds the values the wire carried.
    """
    wire = None if codec is None else codec.wire_dtype
    plan, (lo, hi) = allgather_plan(
        algorithm, comm.rank, comm.size, flat.size, n_chunks, topology,
        wire is not None,
    )
    if wire is not None:
        flat[lo:hi] = flat[lo:hi].astype(wire)
    with _obs.span(
        f"allgather_flat[{algorithm}]", "collective",
        nbytes=flat.nbytes, n_chunks=n_chunks,
    ):
        run_plan(comm, flat, plan, epoch, wire=wire)


# --------------------------------------------------------------------------
# the allreduce
# --------------------------------------------------------------------------
#: Allreduce algorithms by name: each is a composition of the phases above.
ALLREDUCE_ALGORITHMS = ("recursive_doubling", "ring", "rabenseifner", "hierarchical")


def _allreduce(
    comm: Communicator, data, op: ReduceOp | str = "sum",
    algorithm: str = "recursive_doubling", average: bool = False,
    n_chunks: int = 1, copy: bool = True, codec=None,
    topology: Optional[HostTopology] = None,
) -> np.ndarray:
    """:func:`allreduce` without its span, as the barrier and the partial
    collectives' reduction run it.  Beside the plan: recursive doubling
    divides at the end, the split algorithms between their halves, and
    ``hierarchical`` rounds the leaders' ring window before their
    allgather and divides there, before the intra-host broadcast."""
    reduce_op = get_op(op)
    if codec is not None:
        _require_reduce_closed(codec, reduce_op)
    if algorithm == "hierarchical":
        topology = resolve_host_topology(topology or comm, comm.size)
        if topology.is_single_host:
            algorithm = "ring"
    epoch = comm.next_collective_epoch()
    n_chunks = _validate_chunks(n_chunks)
    acc = _as_float_array(data, copy=copy, codec=codec)
    if comm.size == 1:
        return acc
    flat = acc.reshape(-1)
    wire = None if codec is None else codec.wire_dtype
    if algorithm == "recursive_doubling":
        plan = allreduce_plan(algorithm, comm.rank, comm.size, flat.size, n_chunks)
        run_plan(comm, flat, plan, epoch, reduce_op)
        if average:
            flat /= comm.size
    elif algorithm == "hierarchical":
        intra_reduce, leader_rs, leader_ag, intra_bcast = allreduce_plan(
            algorithm, comm.rank, comm.size, flat.size, n_chunks, topology,
            wire is not None,
        )
        run_plan(comm, flat, (intra_reduce, leader_rs), epoch, reduce_op, wire)
        if topology.is_leader(comm.rank):
            if wire is not None:
                host, hosts = topology.host(comm.rank), topology.num_hosts
                lo, hi = _segment_bounds(flat.size, hosts)[(host + 1) % hosts]
                flat[lo:hi] = flat[lo:hi].astype(wire)
            run_plan(comm, flat, (leader_ag,), epoch, wire=wire)
            if average:
                flat /= comm.size
        run_plan(comm, flat, (intra_bcast,), epoch)
    else:
        halves = "halving" if algorithm == "rabenseifner" else algorithm
        _reduce_scatter_phases(
            comm, flat, halves, epoch, n_chunks, reduce_op, average=average,
            codec=codec,
        )
        _allgather_phases(
            comm, flat, ALLGATHER_FOR_REDUCE_SCATTER[halves], epoch, n_chunks,
            codec=codec,
        )
    return flat.reshape(acc.shape)


def allreduce(
    comm: Communicator,
    data,
    op: ReduceOp | str = "sum",
    algorithm: str = "recursive_doubling",
    average: bool = False,
    n_chunks: int = 1,
    copy: bool = True,
    codec=None,
    topology: Optional[HostTopology] = None,
) -> np.ndarray:
    """Synchronous allreduce with a selectable algorithm.

    Parameters
    ----------
    algorithm:
        One of :data:`ALLREDUCE_ALGORITHMS`, each a composition of the
        phases of the module docstring: the algorithm named is the one
        that runs, at every world size.
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
    topology:
        ``hierarchical`` only: the host layout, by default the
        transport's ``host_topology``; a single-host world runs the ring.
    """
    if algorithm not in ALLREDUCE_ALGORITHMS:
        raise ValueError(
            f"unknown allreduce algorithm {algorithm!r}; "
            f"available: {sorted(ALLREDUCE_ALGORITHMS)}"
        )
    if codec is not None and algorithm not in ("ring", "hierarchical"):
        raise ValueError(
            f"allreduce with a codec runs the ring phases of 'ring' or "
            f"'hierarchical', got algorithm {algorithm!r}"
        )
    with _obs.span(
        f"allreduce[{algorithm}]", "collective",
        nbytes=_obs.payload_nbytes(data), n_chunks=n_chunks,
    ):
        return _allreduce(
            comm, data, op, algorithm, average, n_chunks, copy, codec, topology
        )
