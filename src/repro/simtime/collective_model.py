"""Analytic latency models of synchronous and partial allreduce.

These closed-form models reproduce the microbenchmark of Fig. 8/9 in the
paper: every rank is skewed before calling the collective, and the average
latency *measured at each rank from its own call until it holds the
result* is reported, together with the Number of Active Processes (NAP).

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

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.simtime.network import DEFAULT_NETWORK, LogGPParams, message_time
from repro.utils.rng import SeedLike, seeded_rng

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

    @property
    def max_latency(self) -> float:
        return float(np.max(self.latencies))


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------
def _pipelined_round(
    msg_bytes: float, reduce_bytes: float, n_chunks: int, params: LogGPParams
) -> float:
    """Duration of one communication round pipelined in ``n_chunks`` segments.

    The round moves ``msg_bytes`` and combines ``reduce_bytes`` of data.
    Segment *k*'s reduction overlaps segment *k + 1*'s transmission, so
    the round costs one segment transfer to fill the pipe, ``n_chunks - 1``
    steady-state stages bounded by the slower of transfer and reduction,
    and one segment reduction to drain.  With ``n_chunks == 1`` this is
    exactly the unpipelined ``alpha + msg*beta + red*gamma``.
    """
    seg_net = params.alpha + (msg_bytes / n_chunks) * params.beta
    seg_red = (reduce_bytes / n_chunks) * params.gamma
    return seg_net + (n_chunks - 1) * max(seg_net, seg_red) + seg_red


def _ring_phase_times(
    nbytes: float, size: int, n_chunks: int, params: LogGPParams
) -> tuple:
    """``(reduce_scatter, allgather)`` durations of a chunked ring allreduce."""
    chunk = nbytes / size
    reduce_scatter = (size - 1) * _pipelined_round(chunk, chunk, n_chunks, params)
    allgather = (size - 1) * _pipelined_round(chunk, 0.0, n_chunks, params)
    return reduce_scatter, allgather


def _transform_time(nbytes: float, size: int, compression: CompressionModel) -> float:
    """Encode/decode cost of one compressed collective on the critical path.

    One encode of the dense buffer before the wire; for reduce-closed
    codecs one decode of the reduced result, for the allgather-based
    decode-reduce-encode path one decode per gathered payload (``size``
    of them) plus the dense combination charged via ``gamma`` by the
    caller.
    """
    decodes = 1 if compression.reduce_closed else size
    return nbytes * (
        compression.encode_seconds_per_byte
        + decodes * compression.decode_seconds_per_byte
    )


def _gather_exchange_time(
    nbytes: float, size: int, params: LogGPParams, compression: CompressionModel
) -> float:
    """Decode-reduce-encode exchange of one bucket (without fixed overhead).

    Non-reduce-closed codecs cannot be combined inside an allreduce, so
    the exchange allgathers the encoded payloads (``size - 1`` ring
    rounds, each carrying the compressed bucket) and reduces the decoded
    contributions densely at every rank.
    """
    wire = nbytes * compression.wire_scale
    rounds = (size - 1) * (params.alpha + wire * params.beta)
    combine = (size - 1) * nbytes * params.gamma
    return rounds + combine + _transform_time(nbytes, size, compression)


def allreduce_time(
    nbytes: int,
    size: int,
    algorithm: str = "recursive_doubling",
    params: LogGPParams = DEFAULT_NETWORK,
    n_chunks: int = 1,
    compression: Optional[CompressionModel] = None,
) -> float:
    """Duration of a synchronous allreduce once all participants are present.

    ``n_chunks`` mirrors the chunk-pipelined thread implementation
    (:mod:`repro.collectives.sync`): each round is segmented so reduction
    overlaps transmission; ``1`` reproduces the classic unpipelined cost.

    ``compression`` adds the codec terms: reduce-closed codecs run the
    *ring* with the codec as its wire dtype
    (:func:`repro.collectives.sync.allreduce` with ``codec=``), so
    every hop's bytes shrink by ``wire_scale``, plus the encode/decode
    transform — the ring schedule is modelled regardless of
    ``algorithm``, because that is what the exchange executes; other
    codecs run the allgather-based decode-reduce-encode exchange
    (see :func:`_gather_exchange_time`).
    """
    if nbytes < 0:
        raise ValueError(f"message size must be non-negative, got {nbytes}")
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    if n_chunks < 1:
        raise ValueError(f"n_chunks must be >= 1, got {n_chunks}")
    if compression is not None and not compression.is_identity:
        if size == 1:
            return params.collective_overhead
        if compression.reduce_closed:
            return allreduce_time(
                nbytes * compression.wire_scale, size, "ring", params, n_chunks
            ) + _transform_time(nbytes, size, compression)
        return params.collective_overhead + _gather_exchange_time(
            nbytes, size, params, compression
        )
    if size == 1:
        return params.collective_overhead
    rounds = math.ceil(math.log2(size))
    if algorithm == "recursive_doubling":
        per_round = _pipelined_round(nbytes, nbytes, n_chunks, params)
        return params.collective_overhead + rounds * per_round
    if algorithm == "ring":
        reduce_scatter, allgather = _ring_phase_times(nbytes, size, n_chunks, params)
        return params.collective_overhead + reduce_scatter + allgather
    if algorithm == "rabenseifner":
        if n_chunks == 1:
            halving = rounds * params.alpha + nbytes * (size - 1) / size * (
                params.beta + params.gamma
            )
            doubling = rounds * params.alpha + nbytes * (size - 1) / size * params.beta
            return params.collective_overhead + halving + doubling
        # Chunked: halving rounds move (and reduce) a geometric n/2, n/4,
        # ... sequence in pipelined segments; the doubling retrace keeps
        # whole messages.  The per-round sizes are normalised so the total
        # volume matches the unchunked closed form's n*(P-1)/P at every
        # world size (the raw geometric sum reaches 1 - 2^-rounds, which
        # differs at non-power-of-two P and would otherwise make the
        # chunked prediction jump discontinuously versus n_chunks=1).
        scale = ((size - 1) / size) / (1.0 - 0.5 ** rounds)
        round_bytes = [scale * nbytes / (1 << (r + 1)) for r in range(rounds)]
        halving = sum(
            _pipelined_round(b, b, n_chunks, params) for b in round_bytes
        )
        doubling = sum(
            _pipelined_round(b, 0.0, 1, params) for b in round_bytes
        )
        return params.collective_overhead + halving + doubling
    raise ValueError(f"unknown allreduce algorithm {algorithm!r}")


def fused_exchange_time(
    bucket_bytes: Sequence[float],
    size: int,
    algorithm: str = "ring",
    params: LogGPParams = DEFAULT_NETWORK,
    n_chunks: int = 1,
    compression: Optional[CompressionModel] = None,
) -> float:
    """Duration of a bucketed (fused) gradient exchange with pipelining.

    One collective is issued per fusion bucket, back to back.  For the
    ring algorithm the two phases of consecutive buckets overlap — bucket
    *b*'s allgather streams on the full-duplex links while bucket
    *b + 1*'s reduce-scatter starts — modelled by the classic two-stage
    pipeline recurrence::

        rs_end[b] = rs_end[b - 1] + RS_b
        ag_end[b] = max(rs_end[b], ag_end[b - 1]) + AG_b

    Non-ring algorithms have no phase split to overlap, so their buckets
    simply serialise.  The fixed ``collective_overhead`` is paid once:
    the fusion pipeline keeps one persistent collective armed.

    ``compression`` mirrors the compressed exchange: reduce-closed codecs
    run the *ring* bucket pipeline (the schedule
    :class:`~repro.training.exchange.SynchronousExchange` actually
    executes for them, whatever ``algorithm`` says) on the *encoded*
    bucket sizes and pay the encode/decode transform per bucket; other
    codecs replace each bucket's collective with the allgather-based
    decode-reduce-encode exchange (:func:`_gather_exchange_time`),
    serialised per bucket.
    """
    if not bucket_bytes:
        raise ValueError(f"bucket_bytes must not be empty, got {list(bucket_bytes)}")
    if any(b < 0 for b in bucket_bytes):
        raise ValueError(f"message size must be non-negative, got {list(bucket_bytes)}")
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    if n_chunks < 1:
        raise ValueError(f"n_chunks must be >= 1, got {n_chunks}")
    if size == 1:
        return params.collective_overhead
    if compression is not None and not compression.is_identity:
        if compression.reduce_closed:
            wire = [b * compression.wire_scale for b in bucket_bytes]
            transform = sum(
                _transform_time(b, size, compression) for b in bucket_bytes
            )
            return (
                fused_exchange_time(wire, size, "ring", params, n_chunks)
                + transform
            )
        total = sum(
            _gather_exchange_time(b, size, params, compression) for b in bucket_bytes
        )
        return params.collective_overhead + total
    if algorithm != "ring":
        total = sum(
            allreduce_time(b, size, algorithm, params, n_chunks) - params.collective_overhead
            for b in bucket_bytes
        )
        return params.collective_overhead + total
    rs_end = 0.0
    ag_end = 0.0
    for nbytes in bucket_bytes:
        reduce_scatter, allgather = _ring_phase_times(nbytes, size, n_chunks, params)
        rs_end = rs_end + reduce_scatter
        ag_end = max(rs_end, ag_end) + allgather
    return params.collective_overhead + ag_end


def sharded_exchange_time(
    bucket_bytes: Sequence[float],
    size: int,
    algorithm: str = "ring",
    params: LogGPParams = DEFAULT_NETWORK,
    n_chunks: int = 1,
    compression: Optional[CompressionModel] = None,
    update_seconds_per_byte: float = 0.0,
) -> float:
    """Duration of a ZeRO-1 sharded exchange (reduce-scatter / allgather).

    Mirrors :class:`repro.training.exchange.ShardedExchange`: every bucket
    is reduce-scattered, then the optimizer update runs on the owned
    ``1/P`` window, then every bucket's *parameters* are allgathered.  The
    phases are globally ordered (all scatters complete before the update),
    so buckets serialise within each phase and nothing overlaps across
    phases — unlike :func:`fused_exchange_time`'s ring recurrence.

    ``algorithm`` is a sharded-collective name: ``"ring"`` charges
    ``P - 1`` chunk rounds per phase, ``"halving"`` the recursive
    halving/doubling rounds of the Rabenseifner split.
    ``update_seconds_per_byte`` charges the shard-local optimizer update
    (zero keeps the model purely communication-bound; the dense baseline
    it is compared against pays ``P`` times this term *off* the wire).
    Reduce-closed ``compression`` shrinks every hop by ``wire_scale`` and
    pays the encode/decode transform per bucket, as the implementation's
    compressed ring does for both the gradient and parameter hops.
    """
    if not bucket_bytes:
        raise ValueError(f"bucket_bytes must not be empty, got {list(bucket_bytes)}")
    if any(b < 0 for b in bucket_bytes):
        raise ValueError(f"message size must be non-negative, got {list(bucket_bytes)}")
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    if n_chunks < 1:
        raise ValueError(f"n_chunks must be >= 1, got {n_chunks}")
    if update_seconds_per_byte < 0 or not math.isfinite(update_seconds_per_byte):
        raise ValueError(
            f"update_seconds_per_byte must be non-negative and finite, "
            f"got {update_seconds_per_byte}"
        )
    if algorithm not in ("ring", "halving"):
        raise ValueError(
            f"unknown sharded exchange algorithm {algorithm!r}; "
            f"the flat model covers 'ring' and 'halving'"
        )
    update = sum(bucket_bytes) / size * update_seconds_per_byte
    if size == 1:
        return params.collective_overhead + update
    transform = 0.0
    wire_scale = 1.0
    if compression is not None and not compression.is_identity:
        if not compression.reduce_closed:
            raise ValueError(
                f"sharded exchange supports reduce-closed codecs only, "
                f"got {compression.name!r}"
            )
        wire_scale = compression.wire_scale
        # Both the gradient scatter and the parameter gather are encoded.
        transform = 2.0 * sum(
            _transform_time(b, size, compression) for b in bucket_bytes
        )
    scatter = 0.0
    gather = 0.0
    rounds = math.ceil(math.log2(size))
    for nbytes in bucket_bytes:
        wire = nbytes * wire_scale
        if algorithm == "halving":
            scale = ((size - 1) / size) / (1.0 - 0.5 ** rounds)
            round_bytes = [scale * wire / (1 << (r + 1)) for r in range(rounds)]
            scatter += sum(
                _pipelined_round(b, b / wire_scale, n_chunks, params)
                for b in round_bytes
            )
            gather += sum(_pipelined_round(b, 0.0, 1, params) for b in round_bytes)
        else:
            rs, ag = _ring_phase_times(wire, size, n_chunks, params)
            # _ring_phase_times charges reduction on the wire bytes; the
            # ring under a codec combines in float64, so the
            # gamma share stays dense regardless of wire_scale.
            scatter += rs + (size - 1) * (wire / size) * (1.0 / wire_scale - 1.0) * params.gamma
            gather += ag
    return params.collective_overhead + scatter + update + gather + transform


# ---------------------------------------------------------------------------
# two-tier (hierarchical) cost model
# ---------------------------------------------------------------------------
def _validate_hosts(ranks_per_host: Sequence[int]) -> List[int]:
    hosts = [int(n) for n in ranks_per_host]
    if not hosts or any(n < 1 for n in hosts):
        raise ValueError(
            f"ranks_per_host entries must be >= 1, got {list(ranks_per_host)}"
        )
    return hosts


def _intra_tree_rounds(ranks_per_host: Sequence[int]) -> int:
    """Depth of the deepest intra-host binomial tree (the critical host)."""
    return max(math.ceil(math.log2(n)) if n > 1 else 0 for n in ranks_per_host)


def hierarchical_fused_exchange_time(
    bucket_bytes: Sequence[float],
    ranks_per_host: Sequence[int],
    intra: LogGPParams,
    inter: LogGPParams,
    n_chunks: int = 1,
    inter_scale: float = 1.0,
) -> float:
    """Bucketed two-tier exchange with cross-bucket pipelining.

    The intra-host trees and the inter-host leader ring occupy *different*
    links, so consecutive buckets overlap across all three stages — the
    three-stage generalisation of :func:`fused_exchange_time`'s
    recurrence::

        red_end[b] = red_end[b - 1] + RED_b                 (intra links)
        rs_end[b]  = max(red_end[b], rs_end[b - 1]) + RS_b  (inter links)
        ag_end[b]  = max(rs_end[b], ag_end[b - 1]) + AG_b + BC_b

    The broadcast of a bucket is charged serially after its allgather
    (it reuses the intra links the *next* bucket's reduce tree wants, so
    it does not pipeline for free).  The fixed overhead is paid once.

    ``inter_scale`` shrinks the bytes carried by the leader ring only —
    the compressed hierarchical exchange keeps the intra tiers dense and
    puts the codec's wire dtype on the inter links alone (see
    :func:`repro.collectives.sync.allreduce_hierarchical`);
    the caller charges the encode/decode transform separately.
    """
    if not bucket_bytes:
        raise ValueError(f"bucket_bytes must not be empty, got {list(bucket_bytes)}")
    if not 0.0 < inter_scale or not math.isfinite(inter_scale):
        raise ValueError(f"inter_scale must be positive and finite, got {inter_scale}")
    hosts = _validate_hosts(ranks_per_host)
    if len(hosts) == 1:
        return fused_exchange_time(bucket_bytes, hosts[0], "ring", intra, n_chunks)
    rounds = _intra_tree_rounds(hosts)
    red_end = 0.0
    rs_end = 0.0
    ag_end = 0.0
    for nbytes in bucket_bytes:
        reduce_tree = rounds * _pipelined_round(nbytes, nbytes, n_chunks, intra)
        bcast_tree = rounds * _pipelined_round(nbytes, 0.0, 1, intra)
        rs, ag = _ring_phase_times(
            nbytes * inter_scale, len(hosts), n_chunks, inter
        )
        red_end = red_end + reduce_tree
        rs_end = max(red_end, rs_end) + rs
        ag_end = max(rs_end, ag_end) + ag + bcast_tree
    return intra.collective_overhead + ag_end


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
def _as_arrivals(arrivals: Sequence[float]) -> np.ndarray:
    arr = np.asarray(arrivals, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(
            f"arrivals must be a non-empty 1-D sequence, got shape {arr.shape}"
        )
    if np.any(arr < 0):
        raise ValueError(f"arrival times must be non-negative, got min {arr.min()}")
    return arr


def synchronous_allreduce_latencies(
    arrivals: Sequence[float],
    nbytes: int,
    algorithm: str = "recursive_doubling",
    params: LogGPParams = DEFAULT_NETWORK,
    compression: Optional[CompressionModel] = None,
) -> CollectiveLatencyResult:
    """Latencies of a fully synchronous allreduce (``MPI_Allreduce``)."""
    arr = _as_arrivals(arrivals)
    size = arr.size
    completion = float(arr.max()) + allreduce_time(
        nbytes, size, algorithm, params, compression=compression
    )
    latencies = completion - arr
    return CollectiveLatencyResult(
        latencies=latencies,
        completion_time=completion,
        num_active=size,
        initiator=-1,
    )


def _partial_latencies(
    arr: np.ndarray,
    initiator: int,
    nbytes: int,
    algorithm: str,
    params: LogGPParams,
    compression: Optional[CompressionModel] = None,
) -> CollectiveLatencyResult:
    size = arr.size
    start = float(arr[initiator])
    completion = (
        start
        + activation_time(size, params)
        + allreduce_time(nbytes, size, algorithm, params, compression=compression)
    )
    # A rank arriving before the completion waits for it; a rank arriving
    # later finds the result already in its receive buffer.
    latencies = np.where(
        arr <= completion, completion - arr, RESULT_CHECK_OVERHEAD
    )
    # Active processes contribute fresh data: they arrived no later than
    # the initiator (their gradient was in the send buffer when their
    # progress thread swapped it out upon activation).  The small
    # activation propagation window also admits ranks arriving just after
    # the initiator.
    window = float(arr[initiator]) + activation_time(size, params)
    num_active = int(np.sum(arr <= window))
    return CollectiveLatencyResult(
        latencies=latencies,
        completion_time=completion,
        num_active=num_active,
        initiator=int(initiator),
    )


def solo_allreduce_latencies(
    arrivals: Sequence[float],
    nbytes: int,
    algorithm: str = "recursive_doubling",
    params: LogGPParams = DEFAULT_NETWORK,
    compression: Optional[CompressionModel] = None,
) -> CollectiveLatencyResult:
    """Latencies of a solo allreduce: the earliest arrival initiates."""
    arr = _as_arrivals(arrivals)
    initiator = int(np.argmin(arr))
    return _partial_latencies(arr, initiator, nbytes, algorithm, params, compression)


def majority_allreduce_latencies(
    arrivals: Sequence[float],
    nbytes: int,
    algorithm: str = "recursive_doubling",
    params: LogGPParams = DEFAULT_NETWORK,
    seed: SeedLike = None,
    initiator: Optional[int] = None,
    compression: Optional[CompressionModel] = None,
) -> CollectiveLatencyResult:
    """Latencies of a majority allreduce: a random rank is designated.

    Pass ``initiator`` to fix the designated rank (used when iterating the
    microbenchmark with a shared PRNG), or ``seed`` to draw one.
    """
    arr = _as_arrivals(arrivals)
    if initiator is None:
        rng = seeded_rng(seed)
        initiator = int(rng.integers(0, arr.size))
    if not 0 <= initiator < arr.size:
        raise ValueError(f"initiator {initiator} out of range")
    return _partial_latencies(arr, initiator, nbytes, algorithm, params, compression)


def quorum_allreduce_latencies(
    arrivals: Sequence[float],
    nbytes: int,
    quorum: int,
    algorithm: str = "recursive_doubling",
    params: LogGPParams = DEFAULT_NETWORK,
    compression: Optional[CompressionModel] = None,
) -> CollectiveLatencyResult:
    """Latencies of a quorum allreduce: the Q-th arrival initiates."""
    arr = _as_arrivals(arrivals)
    if not 1 <= quorum <= arr.size:
        raise ValueError(f"quorum must be in [1, {arr.size}], got {quorum}")
    order = np.argsort(arr, kind="stable")
    initiator = int(order[quorum - 1])
    return _partial_latencies(arr, initiator, nbytes, algorithm, params, compression)
