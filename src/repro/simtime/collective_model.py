"""Latency models of synchronous and partial allreduce.

A synchronous collective is priced from the schedule that runs: every
rank's plan (:mod:`repro.collectives.sync`'s ``Step`` lists, the ones
``run_plan`` executes and the verifier interprets) is walked in causal
order under LogGP (:func:`plan_time`, cached per shape by
:func:`collective_time`).  No formula restates where a collective's
messages go, so folds, uneven windows, two-tier placements and codec
wire hops are priced as they run.  The one closed form left is the
decode-reduce-encode exchange of non-reduce-closed codecs, whose object
``allgather`` has no plan.

On top of that price, :func:`synchronous_allreduce_latencies` and
:func:`partial_round` reproduce the microbenchmark of Fig. 8/9 in the
paper: every rank is skewed before calling the collective, and the
average latency *measured at each rank from its own call until it holds
the result* is reported, together with the Number of Active Processes
(NAP).  :func:`partial_round` is the only model of a partial round: the
training-time projection replays it once per step.

The key structural facts the models capture:

* a synchronous allreduce cannot complete before the **slowest** process
  arrives, so every early process pays the full skew;
* a solo allreduce completes as soon as the **fastest** process arrives
  (plus the activation broadcast and the reduction itself), so late
  processes find the result already in their receive buffer and pay
  almost nothing;
* a majority allreduce completes once the **randomly designated**
  initiator arrives — on average the median process — so the average
  latency sits between the two, and on average half of the processes
  contribute fresh data.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.collectives import sync
from repro.collectives.topology import HostTopology
from repro.simtime.network import DEFAULT_NETWORK, LogGPParams, message_time

#: Size, in bytes, of an activation message (a tag plus a round number).
ACTIVATION_MESSAGE_BYTES = 16


@dataclass(frozen=True)
class CompressionModel:
    """Cost-model view of a gradient codec (:mod:`repro.compression`).

    ``wire_scale`` shrinks the bytes every hop carries; the encode /
    decode terms charge the transform itself (linear in the *dense*
    byte count, like the ``gamma`` reduction term).  ``reduce_closed``
    selects the wire path the exchange actually runs: reduce-closed
    codecs keep the configured allreduce at the encoded width, the rest
    take the allgather-based decode-reduce-encode path (see
    :mod:`repro.training.exchange`).  Build one from a codec with
    :meth:`repro.compression.GradientCodec.cost_model`.
    """

    name: str = "none"
    #: Encoded bytes per dense byte (e.g. 0.25 for fp16 over float64).
    wire_scale: float = 1.0
    #: Seconds per dense byte to encode / decode one buffer.
    encode_seconds_per_byte: float = 0.0
    decode_seconds_per_byte: float = 0.0
    #: Whether encoded payloads combine elementwise inside a reduction.
    reduce_closed: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.wire_scale or not math.isfinite(self.wire_scale):
            raise ValueError(f"wire_scale must be positive and finite, got {self.wire_scale}")
        for label in ("encode_seconds_per_byte", "decode_seconds_per_byte"):
            value = getattr(self, label)
            if value < 0 or not math.isfinite(value):
                raise ValueError(f"{label} must be non-negative and finite, got {value}")

    @property
    def is_identity(self) -> bool:
        """Whether the model changes nothing (the uncompressed baseline)."""
        return (
            self.wire_scale == 1.0
            and self.encode_seconds_per_byte == 0.0
            and self.decode_seconds_per_byte == 0.0
            and self.reduce_closed
        )


#: The uncompressed baseline model.
NO_COMPRESSION = CompressionModel()
#: Overhead paid by a late process that finds the collective already
#: completed (seconds): checking the flag, copying the receive buffer and
#: re-arming the persistent schedule.  Calibrated so the solo-allreduce
#: latency reduction lands in the paper's ~50x regime rather than at the
#: unrealistic "free" limit.
RESULT_CHECK_OVERHEAD = 2.0e-4


@dataclass(frozen=True)
class CollectiveLatencyResult:
    """Latency statistics of one collective invocation under skew."""

    #: Per-rank latency (seconds), measured from each rank's arrival.
    latencies: np.ndarray
    #: Completion time of the collective (seconds, absolute).
    completion_time: float
    #: Number of processes contributing fresh data (NAP).
    num_active: int
    #: Rank that initiated (or -1 for synchronous collectives).
    initiator: int

    @property
    def average_latency(self) -> float:
        return float(np.mean(self.latencies))


# ---------------------------------------------------------------------------
# pricing a plan: the LogGP walk
# ---------------------------------------------------------------------------
#: Plan builder and accepted algorithm names of each collective kind.
_KINDS = {
    "allreduce": (sync.allreduce_plan, tuple(sync.ALLREDUCE_ALGORITHMS)),
    "reduce_scatter": (
        lambda *shape: sync.reduce_scatter_plan(*shape)[0],
        tuple(sync.ALLGATHER_FOR_REDUCE_SCATTER),
    ),
    "allgather": (
        lambda *shape: sync.allgather_plan(*shape)[0],
        tuple(sync.ALLGATHER_FOR_REDUCE_SCATTER.values()),
    ),
}


def plan_time(
    programs: Sequence[Sequence["sync.Plan"]],
    params: LogGPParams,
    topology: Optional[HostTopology] = None,
    inter: Optional[LogGPParams] = None,
    bytes_per_element: float = 1,
    wire_bytes_per_element: Optional[float] = None,
) -> float:
    """Latest rank clock after ``programs`` (every rank's plans, run back
    to back) under LogGP: :func:`~repro.collectives.sync.walk_plans` with
    timing callbacks.

    A send departs at the later of its rank's clock and the time its
    directed link is free, lands ``alpha + bytes * beta`` later and holds
    the link until then; the sender's clock does not move (sends are
    eager).  A receive waits for its message and, if it combines, adds
    ``gamma`` per dense byte.  A pair that ``topology`` puts on different
    hosts uses the ``inter`` parameters (default ``params``).  Only
    ``wire`` steps travel at ``wire_bytes_per_element``: the ring
    combines in the dense dtype.
    """
    inter = params if inter is None else inter
    wire = bytes_per_element if wire_bytes_per_element is None else wire_bytes_per_element
    hosts = None if topology is None else topology.host_of
    clock = [0.0] * len(programs)
    link_free: Dict[Tuple[int, int], float] = {}

    def link(rank: int, peer: int) -> LogGPParams:
        return params if hosts is None or hosts[rank] == hosts[peer] else inter

    def on_send(rank, pc, tag, step):
        p = link(rank, step.peer)
        nbytes = (step.hi - step.lo) * (wire if step.wire else bytes_per_element)
        key = (rank, step.peer)
        landed = max(clock[rank], link_free.get(key, 0.0)) + p.alpha + nbytes * p.beta
        link_free[key] = landed
        return landed

    def on_recv(rank, pc, tag, step, landed):
        now = max(clock[rank], landed)
        if step.combine:
            now += (step.hi - step.lo) * bytes_per_element * link(rank, step.peer).gamma
        clock[rank] = now

    sync.walk_plans(programs, on_send, on_recv)
    return max(clock)


@functools.lru_cache(maxsize=1024)
def collective_time(
    kind: str,
    algorithm: str,
    size: int,
    length: int,
    n_chunks: int,
    params: LogGPParams,
    topology: Optional[HostTopology] = None,
    inter: Optional[LogGPParams] = None,
    bytes_per_element: float = 1,
    wire_bytes_per_element: Optional[float] = None,
) -> float:
    """Duration of one synchronous collective once every rank is present.

    ``kind`` is ``"allreduce"``, ``"reduce_scatter"`` or ``"allgather"``;
    every rank's plan of ``algorithm`` on ``length`` elements is built
    with :mod:`repro.collectives.sync`'s builder for that kind and priced
    by :func:`plan_time`, plus ``collective_overhead`` once.
    ``wire_bytes_per_element`` marks the plan's ring hops as a codec's
    wire dtype.  ``topology`` (default: one host) places the ranks for
    the hierarchical plans and the ``inter`` link class.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown collective kind {kind!r}; available: {sorted(_KINDS)}")
    build, algorithms = _KINDS[kind]
    if algorithm not in algorithms:
        raise ValueError(
            f"unknown {kind} algorithm {algorithm!r}; available: {sorted(algorithms)}"
        )
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    if not isinstance(length, numbers.Integral) or length < 0:
        raise ValueError(f"length must be a non-negative integer, got {length!r}")
    if n_chunks < 1:
        raise ValueError(f"n_chunks must be >= 1, got {n_chunks}")
    if topology is None:
        topology = HostTopology.single_host(size)
    if topology.world_size != size:
        raise ValueError(
            f"host topology covers {topology.world_size} rank(s), expected {size}"
        )
    wire = wire_bytes_per_element is not None
    programs = [
        (build(algorithm, rank, size, int(length), n_chunks, topology, wire),)
        for rank in range(size)
    ]
    return params.collective_overhead + plan_time(
        programs, params, topology, inter, bytes_per_element, wire_bytes_per_element
    )


def _transform_time(nbytes: float, size: int, compression: CompressionModel) -> float:
    """Encode/decode cost of one compressed collective on the critical
    path: one encode of the dense buffer, then one decode of the result
    (reduce-closed) or of each of the ``size`` gathered payloads."""
    decodes = 1 if compression.reduce_closed else size
    return nbytes * (
        compression.encode_seconds_per_byte
        + decodes * compression.decode_seconds_per_byte
    )


def _gather_exchange_time(
    nbytes: float, size: int, params: LogGPParams, compression: CompressionModel
) -> float:
    """Decode-reduce-encode exchange of one ``nbytes`` bucket.

    Non-reduce-closed codecs cannot be combined inside an allreduce, so
    the exchange allgathers the encoded payloads (``size - 1`` ring
    rounds, each carrying the compressed bucket) and reduces the decoded
    contributions densely at every rank.  The object ``allgather`` it
    runs has no plan, so this is the one closed form left.
    """
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    if size == 1:
        return params.collective_overhead
    wire = nbytes * compression.wire_scale
    rounds = (size - 1) * (params.alpha + wire * params.beta)
    combine = (size - 1) * nbytes * params.gamma
    return (
        params.collective_overhead + rounds + combine
        + _transform_time(nbytes, size, compression)
    )


def allreduce_time(
    nbytes: int,
    size: int,
    algorithm: str = "recursive_doubling",
    params: LogGPParams = DEFAULT_NETWORK,
    n_chunks: int = 1,
    compression: Optional[CompressionModel] = None,
) -> float:
    """Duration of a synchronous allreduce of ``nbytes`` bytes once all
    participants are present: :func:`collective_time` of the allreduce
    plan on ``nbytes`` one-byte elements.

    ``compression`` adds the codec terms.  A reduce-closed codec is the
    wire dtype of the *ring* (:func:`repro.collectives.sync.allreduce`
    with ``codec=``), whatever ``algorithm`` says, because that is what
    the exchange runs: its hops shrink by ``wire_scale``, its combines
    stay dense, and one encode and one decode are charged.  Other codecs
    take :func:`_gather_exchange_time`.
    """
    length = int(nbytes)
    if length != nbytes or length < 0:
        raise ValueError(f"message size must be a non-negative whole number, got {nbytes}")
    if compression is None or compression.is_identity:
        return collective_time("allreduce", algorithm, size, length, n_chunks, params)
    if not compression.reduce_closed:
        return _gather_exchange_time(nbytes, size, params, compression)
    ring = collective_time(
        "allreduce", "ring", size, length, n_chunks, params,
        wire_bytes_per_element=compression.wire_scale,
    )
    return ring + (_transform_time(nbytes, size, compression) if size > 1 else 0.0)


def broadcast_time(
    nbytes: int, size: int, params: LogGPParams = DEFAULT_NETWORK
) -> float:
    """Duration of a binomial-tree broadcast."""
    if size <= 1:
        return 0.0
    rounds = math.ceil(math.log2(size))
    return rounds * message_time(nbytes, params)


def activation_time(size: int, params: LogGPParams = DEFAULT_NETWORK) -> float:
    """Time for the activation broadcast to reach the farthest rank."""
    return broadcast_time(ACTIVATION_MESSAGE_BYTES, size, params)


# ---------------------------------------------------------------------------
# collective latency under skewed arrivals
# ---------------------------------------------------------------------------
def synchronous_allreduce_latencies(
    arrivals: Sequence[float],
    nbytes: int,
    algorithm: str = "recursive_doubling",
    params: LogGPParams = DEFAULT_NETWORK,
    compression: Optional[CompressionModel] = None,
) -> CollectiveLatencyResult:
    """Latencies of a fully synchronous allreduce (``MPI_Allreduce``)."""
    arr = np.asarray(arrivals, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(
            f"arrivals must be a non-empty 1-D sequence, got shape {arr.shape}"
        )
    if np.any(arr < 0):
        raise ValueError(f"arrival times must be non-negative, got min {arr.min()}")
    completion = float(arr.max()) + allreduce_time(
        nbytes, arr.size, algorithm, params, compression=compression
    )
    return CollectiveLatencyResult(
        latencies=completion - arr,
        completion_time=completion,
        num_active=arr.size,
        initiator=-1,
    )


def partial_round(
    arrivals: np.ndarray,
    initiator: int,
    reduce_cost: float,
    params: LogGPParams = DEFAULT_NETWORK,
) -> CollectiveLatencyResult:
    """One partial allreduce round, the one model of it: the round starts
    when rank ``initiator`` arrives, activates every rank after
    :func:`activation_time`, and completes ``reduce_cost`` seconds later.

    Solo passes the earliest arrival as ``initiator``, majority the
    designated rank, quorum the Q-th arrival.  ``arrivals`` is a
    non-negative 1-D ``float64`` array that the caller has validated once
    (the projection replays one round per training step, so nothing is
    re-checked here).
    """
    window = arrivals[initiator] + activation_time(arrivals.size, params)
    completion = float(window + reduce_cost)
    # A rank arriving before the completion waits for it; a rank arriving
    # later finds the result already in its receive buffer.
    latencies = np.where(
        arrivals <= completion, completion - arrivals, RESULT_CHECK_OVERHEAD
    )
    # Active processes contribute fresh data: they arrived no later than
    # the initiator (their gradient was in the send buffer when their
    # progress thread swapped it out upon activation).  The small
    # activation propagation window also admits ranks arriving just after
    # the initiator.
    return CollectiveLatencyResult(
        latencies=latencies,
        completion_time=completion,
        num_active=int(np.count_nonzero(arrivals <= window)),
        initiator=int(initiator),
    )
