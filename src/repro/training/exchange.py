"""Gradient exchanges: synchronous baselines and partial collectives.

A *gradient exchange* turns each rank's local gradient vector into the
globally combined gradient used by the optimizer.  Three implementations
cover the systems compared in the paper's evaluation:

* :class:`SingleProcessExchange` — no communication (P = 1 baseline runs);
* :class:`SynchronousExchange` — synch-SGD.  Two styles are modelled:
  ``"deep500"`` executes the per-bucket allreduces in a fixed order
  (control dependencies in the DAG, Fig. 5), while ``"horovod"`` first
  runs a small negotiation round (achieving consensus on which tensors are
  ready, as Horovod's coordinator does: a ring
  :func:`~repro.collectives.sharding.allgather_flat` of every rank's
  readiness positions) and then reduces the buckets in the negotiated
  order;
* :class:`PartialExchange` — eager-SGD's exchange over solo / majority /
  quorum allreduce, including the stale-gradient accumulation semantics
  (handled inside :class:`repro.collectives.partial.PartialAllreduce`).

A fourth, :class:`ShardedExchange` (``sharding="zero1"``), changes the
contract: instead of returning a combined gradient it *applies the
optimizer update itself* over a reduce-scatter → shard-local update →
parameter-allgather pipeline, keeping each rank's optimizer state at
1/P of the dense footprint (ZeRO stage 1).  Callers detect this via
:attr:`GradientExchange.updates_parameters` and use
:meth:`ShardedExchange.exchange_update`.

Fusion buffers and pipelining
-----------------------------
Every multi-rank exchange is *bucketed*: a
:class:`~repro.training.bucketing.GradientBucketer` cuts the flat
gradient into fusion buffers and one collective is issued per bucket, so
the exchange is a pipeline of bounded-size reductions instead of one
monolithic blocking call.  A bucket is a slice of the caller's vector,
reduced in place: ``exchange`` consumes and returns its argument.
:class:`_BucketedExchange` owns the knobs, the slicing and the timed
per-bucket loop; each exchange adds only what it does *to* a bucket.  The
knobs (threaded through
:class:`~repro.training.config.TrainingConfig` and the CLI):

``fusion_threshold_bytes``
    Capacity of one fusion buffer (:meth:`GradientBucketer.from_flat
    <repro.training.bucketing.GradientBucketer.from_flat>`); ``None``,
    the default, is one bucket — the gradient fully fused.
``pipeline_chunks``
    Number of segments each synchronous collective round is split into so
    reduction of chunk *k* overlaps transmission of chunk *k + 1* (see
    :mod:`repro.collectives.sync`).
``compression``
    The codec spec, options inline (``"topk:ratio=0.05"``), or a built
    codec; see *Gradient compression* below.

The calibrated auto-tuner's ``"auto"`` values are resolved to concrete
knobs by the runner (:func:`~repro.tuning.autotune.resolve_auto_fusion`)
before an exchange is built.

Per-bucket wait times are reported in
:attr:`ExchangeResult.bucket_waits`; with a recorder bound each bucket's
collective is also an ``exchange``-category span (``bucket-wait``,
``shard-scatter``, ``shard-gather``), which ``python -m repro train``
reports as the collective share of a rank's step.

The exchange schedule
---------------------
What each bucket runs is one rule, :func:`exchange_schedule`.  The
exchanges compute it once at construction and execute it;
``TrainingConfig.validate()`` refuses what it refuses before any rank
starts; the tuner, the runner's timing projection and Fig. 9 price an
exchange by walking it (:func:`~repro.tuning.autotune.predict_exchange_time`).

Multi-host topologies
---------------------
When the transport exposes a multi-host
:class:`~repro.collectives.topology.HostTopology` (the ``hier`` backend's
``comm.router.host_topology``), the schedule routes every bucket through
the two-tier plans of :mod:`repro.collectives.sync`
(``allreduce(..., algorithm="hierarchical")``, whose leader
ring also carries a reduce-closed codec, or ZeRO-1's hierarchical
reduce-scatter / allgather pair, which carries none), so only one rank
per host (its leader) ever touches an inter-host link.  On a single-host
topology the configured flat ``algorithm`` runs unchanged.

Gradient compression
--------------------
Both multi-rank exchanges accept a ``compression`` codec
(:mod:`repro.compression`): each fusion bucket is encoded before it
enters the collective and decoded after the reduction, with per-bucket
error-feedback residuals handled by
:class:`~repro.compression.BucketCompressor`.  Two wire paths exist:

*a wire dtype of the ring*
    Reduce-closed codecs (``fp16``: encode is a cast to the wire dtype):
    the synchronous exchange passes the codec to
    :func:`repro.collectives.sync.allreduce`, whose ring phases send
    every hop in the wire dtype and combine in ``float64`` (NumPy's
    narrow-dtype kernels are scalar loops, so reducing *in* fp16 would
    burn the byte savings on arithmetic).  The configured ``algorithm``
    applies to the *uncompressed* path only; reduce-closed buckets always
    ride the ring, and the tuner prices exactly that plan.  (The
    partial exchange instead runs its background collective natively at
    the encoded width — see :class:`PartialExchange`.)
*decode-reduce-encode*
    Codecs whose payloads cannot be summed elementwise (``bf16``,
    ``int8``, ``topk``): a combining collective would have to decode,
    reduce densely and re-encode at every hop.  The synchronous exchange
    collapses that to a single allgather of encoded payloads (a ring
    :func:`~repro.collectives.sharding.allgather_flat` of a ``P × nbytes``
    ``uint8`` table, one fixed-size payload per rank) followed by one
    dense local reduction in rank order — the wire still carries the
    compact encoding.  The partial collectives' background reduction
    operates on a persistent dense buffer, so the partial exchange
    applies such codecs as a local quantize-and-compensate transform (the
    perturbation and error feedback are faithful, the background wire
    stays dense — reported as such in :attr:`ExchangeResult.wire_bytes`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.comm.communicator import Communicator
from repro.collectives.partial import PartialAllreduce, PartialMode
from repro.collectives.sharding import (
    ALLGATHER_FOR_REDUCE_SCATTER,
    allgather_flat,
    reduce_scatter,
)
from repro.collectives.sync import allreduce
from repro.collectives.topology import HostTopology, resolve_host_topology
from repro.compression import BucketCompressor, GradientCodec, resolve_codec
from repro.nn.parameters import flatten_parameters, same_memory
from repro.obs import recorder as _obs
from repro.training.bucketing import GradientBucketer, validate_fusion_threshold

#: Type accepted by the ``compression`` parameter of the exchanges.
CompressionSpec = Union[str, GradientCodec, None]


@dataclass(frozen=True)
class ExchangeResult:
    """Outcome of one gradient exchange on one rank."""

    #: The combined (averaged) gradient to apply locally: **the vector
    #: passed to** ``exchange``, reduced in place (an owned copy when it
    #: was not a writeable contiguous ``float64`` vector).  ``None`` for
    #: parameter-updating exchanges (:class:`ShardedExchange`): a ZeRO-1
    #: rank only ever holds its owned gradient shard fully reduced, and
    #: the update has already been applied to the model when the result
    #: is returned.
    gradient: Optional[np.ndarray]
    #: Whether this rank's freshly computed gradient was part of the
    #: combination (always true for synchronous exchanges; for bucketed
    #: partial exchanges: whether it was part of *every* bucket's round).
    included: bool
    #: Number of ranks that contributed fresh gradients (minimum across
    #: buckets for bucketed partial exchanges).
    num_active: int
    #: Seconds spent inside the exchange call (synchronisation wait).
    wait_time: float
    #: Seconds spent waiting on each fusion bucket's collective, in
    #: bucket-index order (empty for single-process exchanges).
    bucket_waits: Tuple[float, ...] = ()
    #: Payload bytes this rank put on the wire per collective round
    #: (sum over buckets of the encoded size; the dense size when the
    #: exchange is uncompressed, 0 for single-process exchanges).  The
    #: sharded exchange instead reports the bytes it measured this rank
    #: send, every hop of both its phases (see :class:`_WireCountingComm`).
    wire_bytes: int = 0
    #: Rank that initiated this step's partial round: the last bucket's
    #: (in majority mode every bucket of a step shares the designated
    #: rank); -1 for synchronous exchanges, 0 for a single process.
    initiator: int = -1


#: Sharded (reduce-scatter) algorithm run for each configured allreduce
#: algorithm.  Recursive doubling has no reduce-scatter half (every rank
#: accumulates the full vector), so it maps to the bandwidth-optimal ring.
_SHARDED_ALGORITHM_FOR_ALLREDUCE = {
    "recursive_doubling": "ring",
    "ring": "ring",
    "rabenseifner": "halving",
    "hierarchical": "hierarchical",
}


@dataclass(frozen=True)
class ScheduledCollective:
    """One collective an exchange runs on every fusion bucket.

    ``kind`` is a plan kind of :mod:`repro.collectives.sync`
    (``"allreduce"``, ``"reduce_scatter"``, ``"allgather"``),
    ``"payload_allgather"`` (decode-reduce-encode: a ring allgather of one
    encoded payload per rank) or ``"partial_allreduce"`` (``algorithm`` is
    then the mode); ``wire`` is the codec's bytes per element on the wire
    (``None``: dense ``float64``); ``topology`` is the host tier, the
    layout a two-tier plan places the ranks on (``None``: flat).
    """

    kind: str
    algorithm: str
    wire: Optional[float]
    topology: Optional[HostTopology]


@dataclass(frozen=True)
class ExchangeSchedule:
    """What an exchange runs (:func:`exchange_schedule`).

    ``collectives`` are in phase order: a dense exchange issues its one
    collective bucket by bucket; ZeRO-1 runs the first on every bucket,
    updates the owned windows, then the second on every bucket.
    """

    collectives: Tuple[ScheduledCollective, ...]
    fusion_threshold_bytes: Optional[int]
    #: The codec's wire width, which the threshold budgets (``None``: dense).
    wire_bytes_per_element: Optional[float]
    pipeline_chunks: int

    def cut(self, num_elements: int) -> GradientBucketer:
        """The buckets of a ``num_elements`` gradient: the fewest near-equal
        ranges whose *encoded* size fits the threshold."""
        return GradientBucketer.from_flat(
            num_elements, self.fusion_threshold_bytes,
            wire_bytes_per_element=self.wire_bytes_per_element,
        )


def exchange_schedule(
    topology: HostTopology,
    mode: str = "sync",
    algorithm: str = "recursive_doubling",
    sharding: str = "none",
    codec=None,
    fusion_threshold_bytes: Optional[int] = None,
    pipeline_chunks: int = 1,
) -> ExchangeSchedule:
    """The one rule for what each fusion bucket of an exchange runs.

    The exchanges execute it, ``TrainingConfig.validate()`` checks a
    configuration with it, and every price of an exchange (the tuner's,
    the runner's projection, Fig. 9's) walks it
    (:func:`~repro.tuning.autotune.predict_exchange_time`).  ``codec`` is
    a :class:`~repro.compression.GradientCodec` or its
    :class:`~repro.simtime.collective_model.CompressionModel` (``None``:
    dense).  Per bucket:

    * eager modes: one partial allreduce, at the codec's width when it is
      reduce-closed (other codecs quantize locally; the wire stays dense);
    * a codec that is not reduce-closed: the payload allgather (a flat
      ring, whatever the layout);
    * ``sharding="zero1"``: a reduce-scatter, then an allgather, of the
      pair ``algorithm`` maps to (a sharded name is taken as it is);
    * otherwise one allreduce of ``algorithm`` — of the ring under a
      reduce-closed codec, which is its ring phases' wire dtype;

    and on a ``topology`` that spans hosts, every synchronous collective
    but the payload allgather takes the hierarchical plans.  A
    combination no exchange can run raises ``ValueError`` naming the
    offending values.
    """
    if sharding not in ("none", "zero1"):
        raise ValueError(f"unknown sharding mode {sharding!r}; use 'none' or 'zero1'")
    if pipeline_chunks < 1:
        raise ValueError(f"pipeline_chunks must be >= 1, got {pipeline_chunks}")
    threshold = validate_fusion_threshold(fusion_threshold_bytes)
    wire = None if codec is None else codec.wire_bytes_per_element
    hosts = None if topology.is_single_host else topology
    if mode != "sync":
        if sharding == "zero1":
            raise ValueError(
                f"sharding='zero1' requires mode='sync' (the partial "
                f"collectives replicate optimizer state), got mode={mode!r}"
            )
        partial_wire = wire if codec is not None and codec.reduce_closed else None
        collectives = (ScheduledCollective("partial_allreduce", mode, partial_wire, None),)
    elif codec is not None and not codec.reduce_closed:
        if sharding == "zero1":
            raise ValueError(
                f"sharding='zero1' supports reduce-closed codecs only (e.g. "
                f"fp16), got compression={codec.name!r}"
            )
        collectives = (ScheduledCollective("payload_allgather", "ring", wire, None),)
    elif sharding == "zero1":
        scatter = "hierarchical" if hosts else _SHARDED_ALGORITHM_FOR_ALLREDUCE.get(
            algorithm, algorithm
        )
        if scatter not in ALLGATHER_FOR_REDUCE_SCATTER:
            raise ValueError(f"unknown sharded exchange algorithm {algorithm!r}")
        if codec is not None and scatter != "ring":
            raise ValueError(
                f"sharding='zero1' with compression={codec.name!r} rides the flat "
                f"ring only ('ring' or 'recursive_doubling' on one host), got "
                f"{algorithm!r} on host layout {topology.to_string()!r}"
            )
        gather = ALLGATHER_FOR_REDUCE_SCATTER[scatter]
        collectives = (
            ScheduledCollective("reduce_scatter", scatter, wire, hosts),
            ScheduledCollective("allgather", gather, wire, hosts),
        )
    else:
        if hosts:
            algorithm = "hierarchical"
        elif codec is not None:
            algorithm = "ring"
        collectives = (ScheduledCollective("allreduce", algorithm, wire, hosts),)
    return ExchangeSchedule(collectives, threshold, wire, pipeline_chunks)


class GradientExchange:
    """Base class for gradient exchanges."""

    name = "base"
    #: Whether :meth:`exchange_update` replaces the exchange → assign →
    #: ``optimizer.step()`` pipeline (ZeRO-style exchanges update the
    #: model parameters in place; the trainer must then skip its own
    #: optimizer step).
    updates_parameters = False

    def exchange(self, flat_gradient: np.ndarray) -> ExchangeResult:
        raise NotImplementedError

    def close(self) -> None:
        """Release any background resources (progress threads)."""

    def __enter__(self) -> "GradientExchange":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SingleProcessExchange(GradientExchange):
    """Identity exchange for single-process runs."""

    name = "single"

    def exchange(self, flat_gradient: np.ndarray) -> ExchangeResult:
        return ExchangeResult(
            gradient=np.asarray(flat_gradient, dtype=np.float64),
            included=True,
            num_active=1,
            wait_time=0.0,
            initiator=0,
        )


class _BucketedExchange(GradientExchange):
    """What the multi-rank exchanges share; subclasses say what happens *to* a bucket.

    One place validates the knobs, resolves the codec and the bucketing
    plan, slices the flat gradient into its buckets, times the per-bucket
    loop that fills :attr:`ExchangeResult.bucket_waits`, and keeps each
    bucket's result in its slice — so a steady-state call neither copies
    nor allocates anything the size of the gradient.

    The shared constructor parameters are the knobs of the module
    docstring (``fusion_threshold_bytes``, ``pipeline_chunks``,
    ``compression``), which fix :attr:`schedule` at construction.
    """

    def __init__(
        self,
        comm: Communicator,
        mode: str,
        algorithm: str,
        sharding: str,
        fusion_threshold_bytes: Optional[int],
        pipeline_chunks: int,
        compression: CompressionSpec,
    ) -> None:
        self.comm = comm
        self.codec = resolve_codec(compression)
        #: What every bucket runs (:func:`exchange_schedule`) on the
        #: transport's host layout (one host unless the ``hier`` backend
        #: exposes a multi-host ``host_topology``).
        self.schedule = exchange_schedule(
            resolve_host_topology(comm, comm.size), mode, algorithm, sharding,
            self.codec, fusion_threshold_bytes, pipeline_chunks,
        )
        self._bucketer: Optional[GradientBucketer] = None
        self._step = 0

    def _ensure_bucketer(self, num_parameters: int) -> GradientBucketer:
        """The schedule's buckets, cut on first use (:meth:`ExchangeSchedule.cut`)."""
        if self._bucketer is None:
            self._bucketer = self.schedule.cut(num_parameters)
        elif self._bucketer.num_elements != num_parameters:
            raise ValueError(
                f"flat gradient has {num_parameters} elements but the "
                f"exchange's bucketer covers {self._bucketer.num_elements}"
            )
        return self._bucketer

    def _bucket_views(self, flat: np.ndarray) -> Tuple[np.ndarray, List[np.ndarray]]:
        """The caller's vector, and its buckets as slices of it (anything but a
        writeable contiguous ``float64`` vector is normalised to an owned one)."""
        flat = np.require(flat, dtype=np.float64, requirements=("C", "W"))
        if flat.ndim != 1:
            flat = flat.reshape(-1)
        return flat, self._ensure_bucketer(flat.size).views(flat)

    @staticmethod
    def _store(view: np.ndarray, result: np.ndarray) -> None:
        """Leave a bucket's result in its slice (a ``copy=False`` collective
        did already; codecs and partial collectives return fresh arrays)."""
        if not same_memory(result, view):
            view[...] = result

    @staticmethod
    def _timed_buckets(
        span_name: str,
        buffers: List[np.ndarray],
        order: Iterable[int],
        bucket_waits: List[float],
    ) -> Iterator[int]:
        """Yield each non-empty bucket of ``order`` inside its span and timer.

        The caller's loop body — the bucket's collective — runs between
        the clock reads, and its seconds are added to ``bucket_waits[b]``.
        """
        for b in order:
            bucket_start = time.perf_counter()
            if buffers[b].size:
                with _obs.span(span_name, "exchange", bucket=b,
                               nbytes=buffers[b].nbytes):
                    yield b
            bucket_waits[b] += time.perf_counter() - bucket_start


def readiness_positions(step: int, rank: int, num_buckets: int) -> np.ndarray:
    """The position at which each bucket is ready on ``rank`` at ``step``:
    a per-rank, per-step permutation standing in for the order in which
    a backward pass finishes its buckets."""
    order = np.random.default_rng((step, rank)).permutation(num_buckets)
    positions = np.empty(num_buckets)
    positions[order] = np.arange(num_buckets)
    return positions


def negotiated_order(table: np.ndarray) -> List[int]:
    """The bucket issue order of a ``P × num_buckets`` table of every
    rank's :func:`readiness_positions`: a bucket is admitted once it is
    ready everywhere, at the maximum of its positions (ties by index)."""
    positions = table.max(axis=0)
    return sorted(range(table.shape[1]), key=lambda b: (positions[b], b))


def _allgather_rows(comm: Communicator, row: np.ndarray) -> np.ndarray:
    """Every rank's ``row`` (one dtype and length on every rank) as a
    ``P × len(row)`` table in rank order: one ring
    :func:`~repro.collectives.sharding.allgather_flat`, which each rank
    enters holding its row in the window the ring assigns it (row
    ``rank + 1 mod P``)."""
    table = np.empty((comm.size, row.size), dtype=row.dtype)
    table[(comm.rank + 1) % comm.size] = row
    allgather_flat(comm, table.reshape(-1))
    return np.roll(table, -1, axis=0)


class SynchronousExchange(_BucketedExchange):
    """Synchronous bucketed allreduce of the gradient (synch-SGD).

    Parameters
    ----------
    style:
        ``"deep500"`` or ``"horovod"`` (see module docstring).
    algorithm:
        Allreduce algorithm (recursive doubling / ring / Rabenseifner);
        :func:`exchange_schedule` says what each bucket runs with it.

    The remaining parameters are the shared bucketing / codec knobs of
    :class:`_BucketedExchange`.
    """

    def __init__(
        self,
        comm: Communicator,
        style: str = "deep500",
        algorithm: str = "recursive_doubling",
        fusion_threshold_bytes: Optional[int] = None,
        pipeline_chunks: int = 1,
        compression: CompressionSpec = None,
    ) -> None:
        if style not in ("deep500", "horovod"):
            raise ValueError(f"unknown synchronous style {style!r}")
        super().__init__(
            comm, "sync", algorithm, "none", fusion_threshold_bytes, pipeline_chunks,
            compression,
        )
        self.style = style
        (self._collective,) = self.schedule.collectives
        self._compressor = None if self.codec is None else BucketCompressor(self.codec)
        self.name = f"sync-{style}"

    def _negotiated_order(self, num_buckets: int) -> List[int]:
        """Horovod-style negotiation: consensus on the bucket issue order.

        Each rank's backward pass finishes its buckets in a slightly
        different order (:func:`readiness_positions`); the coordinator
        admits a tensor for reduction only once *all* ranks report it
        ready, so every rank derives the same order from the same
        gathered table (:func:`negotiated_order`).
        """
        positions = readiness_positions(self._step, self.comm.rank, num_buckets)
        return negotiated_order(_allgather_rows(self.comm, positions))

    def exchange(self, flat_gradient: np.ndarray) -> ExchangeResult:
        start = time.perf_counter()
        flat, views = self._bucket_views(flat_gradient)
        if self.style == "horovod":
            order = self._negotiated_order(len(views))
        else:
            # deep500: control dependencies fix the issue order (Fig. 5).
            order = range(len(views))
        bucket_waits = [0.0] * len(views)
        wire_bytes = 0
        for b in self._timed_buckets("bucket-wait", views, order, bucket_waits):
            result, sent = self._reduce_bucket(b, views[b])
            self._store(views[b], result)
            wire_bytes += sent
        self._step += 1
        return ExchangeResult(
            gradient=flat,
            included=True,
            num_active=self.comm.size,
            wait_time=time.perf_counter() - start,
            bucket_waits=tuple(bucket_waits),
            wire_bytes=wire_bytes,
        )

    def _reduce_bucket(self, b: int, buffer: np.ndarray) -> Tuple[np.ndarray, int]:
        """Combine one fusion buffer across ranks; returns (result, wire bytes).

        The schedule's allreduce makes one call — a reduce-closed codec
        is the wire dtype of its ring phases.  Its payload allgather is
        the decode-reduce-encode path: one allgather of encoded payloads,
        then a dense local average in rank order (see the module
        docstring).
        """
        if self._collective.kind == "allreduce":
            wire_nbytes = buffer.nbytes
            if self.codec is not None:
                buffer = self._compressor.compensate_bucket(b, buffer)
                wire_nbytes = self.codec.wire_bytes(buffer.size)
                self._compressor.bytes_encoded += wire_nbytes
            result = allreduce(
                self.comm,
                buffer,
                algorithm=self._collective.algorithm,
                average=True,
                n_chunks=self.schedule.pipeline_chunks,
                copy=False,  # the slice (or its compensated copy) is ours
                codec=self.codec,
            )
            return result, wire_nbytes
        encoded = self._compressor.encode_bucket(b, buffer)
        payload = encoded.payload
        acc = np.zeros(buffer.size, dtype=np.float64)
        for row in _allgather_rows(self.comm, payload.view(np.uint8)):
            acc += self.codec.decode(encoded.with_payload(row.view(payload.dtype)))
        acc /= self.comm.size
        return acc, encoded.nbytes


class _WireCountingComm:
    """Pass-through communicator proxy counting the bytes this rank sends.

    The sharded exchange reports *measured* update-path wire bytes — the
    reduce-scatter and parameter-allgather hops this rank actually put
    on the wire — instead of an analytic payload size, so the accounting
    stays honest across algorithms, codecs and topologies without
    teaching every collective to count.
    """

    def __init__(self, comm: Communicator) -> None:
        self._comm = comm
        self.bytes_sent = 0

    def __getattr__(self, name):
        return getattr(self._comm, name)

    def send(self, data, dest: int, tag: int = 0) -> None:
        self.bytes_sent += _obs.payload_nbytes(data)
        self._comm.send(data, dest, tag=tag)


class ShardedExchange(_BucketedExchange):
    """ZeRO stage-1 exchange: scatter gradients, update a shard, gather params.

    Instead of allreducing the gradient and redundantly running the full
    optimizer update on every rank, each fusion bucket is reduce-scattered
    (:func:`repro.collectives.sharding.reduce_scatter`) so each rank holds
    one contiguous 1/P window fully reduced; the optimizer applies the
    update — and lazily allocates momentum / moment state — for the owned
    windows only (:meth:`repro.nn.optim.Optimizer.step_windows`); and an
    allgather of the updated **parameters**
    (:func:`~repro.collectives.sharding.allgather_flat`) restores the
    replicated model.  Optimizer memory drops P-fold; the ring wire cost
    stays at the ring allreduce's bandwidth-optimal volume (and well below
    the default recursive-doubling exchange's), with the redundant P-1
    optimizer applications gone from the critical path.

    With the ring algorithm the pipeline is *bit-identical* to dense
    ``allreduce(algorithm="ring", average=True)`` + a full optimizer
    step: the reduce-scatter is the allreduce's own first phase, and the
    update rules are elementwise.  The bitwise-equivalence test in
    ``tests/test_sharded_training.py`` holds this to word-for-word
    equality.

    Parameters are the shared knobs of :class:`_BucketedExchange`, plus
    ``algorithm``, an allreduce name or a sharded-collective name
    (``"ring"``, ``"halving"``, ``"hierarchical"``); what each bucket
    runs is :func:`exchange_schedule`'s: on a multi-host topology the
    hierarchical pair, as in the dense exchange.  ``compression`` accepts
    reduce-closed codecs only (the wire hop must carry one encoded
    element per dense element) and rides the flat ring schedule; note
    the *parameter* gather is then lossy-encoded too.
    """

    updates_parameters = True

    def __init__(
        self,
        comm: Communicator,
        algorithm: str = "ring",
        fusion_threshold_bytes: Optional[int] = None,
        pipeline_chunks: int = 1,
        compression: CompressionSpec = None,
    ) -> None:
        super().__init__(
            _WireCountingComm(comm), "sync", algorithm, "zero1", fusion_threshold_bytes,
            pipeline_chunks, compression,
        )
        self._scatter, self._gather = self.schedule.collectives
        self.name = "sync-zero1"
        #: This rank's owned windows, as slices of the flat vectors.
        self._owned: Optional[List[slice]] = None

    def exchange(self, flat_gradient: np.ndarray) -> ExchangeResult:
        raise RuntimeError(
            "ShardedExchange applies the optimizer update itself; call "
            "exchange_update(flat_gradient, model, optimizer) instead"
        )

    def exchange_update(self, flat_gradient: np.ndarray, model, optimizer) -> ExchangeResult:
        """Reduce-scatter, update the owned shard, allgather the parameters.

        One data-parallel step's whole update path: on return the model's
        parameters hold the post-step values on every rank (the trainer
        must not run ``optimizer.step()`` again).  ``optimizer`` state is
        allocated for the owned windows only.  ``flat_gradient`` is
        consumed: only this rank's windows of it end up fully reduced.
        """
        start = time.perf_counter()
        sent_before = self.comm.bytes_sent
        scatter, gather = self._scatter, self._gather
        flat, grads = self._bucket_views(flat_gradient)
        bucketer = self._bucketer
        if self._owned is None:
            windows = bucketer.shard_windows(
                self.comm.size, scatter.algorithm, topology=scatter.topology
            )
            # Global flat coordinates: stable across steps and restarts, so
            # per-window state (keyed "start:stop") survives checkpoints.
            self._owned = [
                slice(bucket.start + lo, bucket.start + hi)
                for bucket, (lo, hi) in zip(bucketer.buckets, (w[self.comm.rank] for w in windows))
                if hi > lo
            ]
        # The model's own storage, written directly by update and gather.
        flat_params = flatten_parameters(model)
        params = bucketer.views(flat_params)  # raises on a size mismatch

        order = range(bucketer.num_buckets)
        bucket_waits = [0.0] * bucketer.num_buckets
        for b in self._timed_buckets("shard-scatter", grads, order, bucket_waits):
            reduced, _window = reduce_scatter(
                self.comm,
                grads[b],
                average=True,
                algorithm=scatter.algorithm,
                n_chunks=self.schedule.pipeline_chunks,
                copy=False,  # the slice is this exchange's to consume
                codec=self.codec,
                topology=scatter.topology,
            )
            self._store(grads[b], reduced)

        with _obs.span("shard-update", "exchange", windows=len(self._owned)):
            # Every rank calls step_windows — also with zero owned windows
            # (e.g. the fold's extra ranks under "halving") — so the step
            # counter, and with it the LR schedule, stays rank-aligned.
            optimizer.step_windows(
                [flat_params[w] for w in self._owned],
                [flat[w] for w in self._owned],
                [f"{w.start}:{w.stop}" for w in self._owned],
            )

        for b in self._timed_buckets("shard-gather", params, order, bucket_waits):
            allgather_flat(
                self.comm,
                params[b],
                algorithm=gather.algorithm,
                n_chunks=self.schedule.pipeline_chunks,
                codec=self.codec,
                topology=gather.topology,
            )

        self._step += 1
        return ExchangeResult(
            gradient=None,
            included=True,
            num_active=self.comm.size,
            wait_time=time.perf_counter() - start,
            bucket_waits=tuple(bucket_waits),
            wire_bytes=self.comm.bytes_sent - sent_before,
        )


class PartialExchange(_BucketedExchange):
    """Eager-SGD exchange over per-bucket partial allreduces.

    Parameters
    ----------
    comm:
        Any communicator of this rank (each bucket's partial allreduce
        derives its own library/activation channels from it).
    num_parameters:
        Length of the flat gradient vector.
    mode:
        ``"solo"``, ``"majority"`` or ``"quorum"``.
    quorum:
        Arrivals required in quorum mode.
    seed:
        Shared seed for the initiator designation (must match on all
        ranks; all buckets share the seed, so each round's designated
        initiator is the same across buckets).
    fusion_threshold_bytes:
        Capacity of one fusion buffer (``None``: one bucket, the default);
        the buckets are fixed at construction.  Each bucket runs its own
        partial allreduce (with its own progress thread and channel
        pair), so a slow rank's gradient can be included in bucket *i*
        but become stale for bucket *j* — the per-bucket generalisation
        of the paper's staleness semantics.
        Stale gradients accumulate per bucket and are never lost.
    pipeline_chunks:
        Segments the background reduction of every bucket is pipelined in
        (see :class:`~repro.collectives.partial.PartialAllreduce`).
    compression:
        Reduce-closed codecs (``fp16``) run the whole partial collective
        — send buffer, stale accumulation and background reduction — at
        the encoded width, so the wire genuinely shrinks.
        Non-reduce-closed codecs (``bf16``/``int8``/``topk``) are applied
        as a local quantize-and-compensate transform before the dense
        background reduction (the documented decode-reduce-encode caveat:
        the persistent-schedule wire stays dense).
    """

    def __init__(
        self,
        comm: Communicator,
        num_parameters: int,
        mode: str = "solo",
        quorum: Optional[int] = None,
        seed: int = 12345,
        overwrite_recvbuff: bool = True,
        fusion_threshold_bytes: Optional[int] = None,
        pipeline_chunks: int = 1,
        compression: CompressionSpec = None,
    ) -> None:
        if num_parameters < 1:
            raise ValueError(f"num_parameters must be >= 1, got {num_parameters}")
        super().__init__(
            comm, mode, "ring", "none", fusion_threshold_bytes, pipeline_chunks,
            compression,
        )
        self._compressor = None if self.codec is None else BucketCompressor(self.codec)
        #: The bucketing plan — fixed at construction, one partial
        #: allreduce (progress thread, channel pair) per bucket.
        self.bucketer = self._ensure_bucketer(num_parameters)
        (partial,) = self.schedule.collectives
        # A codec on the wire: the collective itself runs at the encoded width.
        dtype = np.float64 if partial.wire is None else self.codec.wire_dtype
        self.partials: List[PartialAllreduce] = []
        multi = self.bucketer.num_buckets > 1
        for bucket in self.bucketer.buckets:
            self.partials.append(
                PartialAllreduce(
                    comm,
                    (bucket.num_elements,),
                    mode,
                    average=True,
                    quorum=quorum,
                    seed=seed,
                    overwrite_recvbuff=overwrite_recvbuff,
                    channel_suffix=f".bucket{bucket.index}" if multi else "",
                    n_chunks=self.schedule.pipeline_chunks,
                    dtype=dtype,
                )
            )
        self.name = f"eager-{PartialMode(mode).value}"

    def exchange(self, flat_gradient: np.ndarray) -> ExchangeResult:
        start = time.perf_counter()
        flat, views = self._bucket_views(flat_gradient)
        order = range(len(views))
        bucket_waits = [0.0] * len(views)
        included = True
        num_active = None
        initiator = -1
        wire_bytes = 0
        for b in self._timed_buckets("bucket-wait", views, order, bucket_waits):
            contribution, decode_template, sent = self._encode_contribution(b, views[b])
            result = self.partials[b].reduce(contribution)
            initiator = result.initiator
            reduced = result.data
            if decode_template is not None:
                reduced = self.codec.decode(decode_template.with_payload(reduced))
            self._store(views[b], reduced)
            wire_bytes += sent
            included = included and result.included
            num_active = (
                result.num_active
                if num_active is None
                else min(num_active, result.num_active)
            )
        return ExchangeResult(
            gradient=flat,
            included=included,
            num_active=int(num_active or 0),
            wait_time=time.perf_counter() - start,
            bucket_waits=tuple(bucket_waits),
            wire_bytes=wire_bytes,
            initiator=initiator,
        )

    def _encode_contribution(self, b: int, buffer: np.ndarray):
        """Apply the codec to one bucket's fresh contribution.

        Returns ``(contribution, decode_template, wire_bytes)`` where
        ``decode_template`` is the :class:`~repro.compression.EncodedGradient`
        to decode the reduced result with (``None`` when the result is
        already dense ``float64``).
        """
        if self._compressor is None:
            return buffer, None, buffer.nbytes
        encoded = self._compressor.encode_bucket(b, buffer)
        if self.codec.reduce_closed:
            return encoded.payload, encoded, encoded.nbytes
        # Decode-reduce-encode caveat (see class docstring): contribute
        # the locally quantized dense gradient; the background wire is
        # dense, and wire_bytes reports it honestly.
        return self._compressor.decode_bucket(encoded), None, buffer.nbytes

    def close(self) -> None:
        for partial in self.partials:
            partial.close()


def build_exchange(
    comm: Optional[Communicator],
    num_parameters: int,
    mode: str,
    sync_style: str = "deep500",
    algorithm: str = "recursive_doubling",
    quorum: Optional[int] = None,
    seed: int = 12345,
    fusion_threshold_bytes: Optional[int] = None,
    pipeline_chunks: int = 1,
    compression: CompressionSpec = None,
    sharding: str = "none",
) -> GradientExchange:
    """Build the exchange matching a :class:`repro.training.TrainingConfig`.

    ``sharding="zero1"`` selects the :class:`ShardedExchange` (synchronous
    mode only), which runs the reduce-scatter/allgather pair
    :func:`exchange_schedule` maps the allreduce ``algorithm`` to.
    """
    # What no exchange runs (an unknown sharding, ZeRO-1 off sync mode) is
    # refused by the one rule, whatever the world size.
    exchange_schedule(HostTopology.single_host(1), mode, algorithm, sharding)
    if comm is None or comm.size == 1:
        return SingleProcessExchange()
    shared = dict(
        fusion_threshold_bytes=fusion_threshold_bytes,
        pipeline_chunks=pipeline_chunks,
        compression=compression,
    )
    if sharding == "zero1":
        return ShardedExchange(comm, algorithm=algorithm, **shared)
    if mode == "sync":
        return SynchronousExchange(
            comm,
            style=sync_style,
            algorithm=algorithm,
            **shared,
        )
    return PartialExchange(
        comm,
        num_parameters,
        mode=mode,
        quorum=quorum,
        seed=seed,
        **shared,
    )
