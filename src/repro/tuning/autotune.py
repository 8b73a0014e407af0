"""Auto-tune ``fusion_threshold_bytes`` and ``pipeline_chunks``.

Horovod ships a fixed ``HOROVOD_FUSION_THRESHOLD`` (64 MiB) and leaves
the operator to tune it; PR 1 of this repo hardcoded a 64 KiB default in
its benchmarks.  The right setting depends on the world size, the
gradient size, the algorithm and the (calibrated) cost of a message.
This module prices each ``threshold x chunks`` candidate as the exchange
runs it (:func:`predict_exchange_time`: the exchange's own schedule,
:func:`~repro.training.exchange.exchange_schedule`, its buckets and each
bucket's collectives walked under the calibrated LogGP parameters),
optionally cross-checks the best candidates against a handful of live
trials, and returns a :class:`TunedPlan`.

``TrainingConfig`` accepts ``fusion_threshold_bytes="auto"`` /
``pipeline_chunks="auto"``; :func:`resolve_auto_fusion` (called by
:func:`repro.training.runner.train_distributed`) turns those into
concrete values through the profile cache.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import asdict, dataclass, replace
from typing import Dict, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from repro.collectives.topology import HostTopology, resolve_host_topology
from repro.simtime.collective_model import CompressionModel, collective_time
from repro.simtime.network import LogGPParams
from repro.tuning.calibration import CalibratedProfile, calibrate

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.training.config import TrainingConfig

#: The fixed 64 KiB default the auto-tuner's speedup is measured against.
DEFAULT_FIXED_THRESHOLD_BYTES = 64 * 1024
#: Fusion-buffer capacities searched by default: 16 KiB - 4 MiB.
DEFAULT_THRESHOLD_GRID: Tuple[int, ...] = tuple(16 * 1024 * 2 ** i for i in range(9))
#: Pipeline chunk counts searched by default.
DEFAULT_CHUNK_GRID: Tuple[int, ...] = (1, 2, 4, 8, 16)

#: Gradients travel as float64 on the thread substrate.
_BYTES_PER_ELEMENT = 8


@dataclass(frozen=True)
class TunedPlan:
    """Recommended fusion configuration for one exchange shape."""

    world_size: int
    gradient_bytes: int
    algorithm: str
    fusion_threshold_bytes: int
    pipeline_chunks: int
    #: Modelled exchange duration under the recommendation (seconds).
    predicted_time: float
    #: Modelled duration of the fixed 64 KiB / 1-chunk default (seconds).
    baseline_time: float
    #: Name of the gradient codec the plan was tuned for (the baseline
    #: above is modelled under the *same* codec).
    compression: str = "none"
    #: Live thread-backend duration of the recommendation, when the grid
    #: search was cross-checked with real trials (``NaN`` otherwise).
    measured_time: float = float("nan")
    #: Live duration of the fixed default under the same trials (``NaN``
    #: when no live cross-check ran).
    measured_baseline_time: float = float("nan")
    #: Buckets the recommended threshold cuts (the exchange schedule's,
    #: at the codec's wire width).
    num_buckets: int = 1

    @property
    def speedup(self) -> float:
        """Modelled speedup over the fixed 64 KiB / 1-chunk default."""
        return self.baseline_time / self.predicted_time

    @property
    def measured_speedup(self) -> float:
        """Live-trial speedup over the fixed default (``NaN`` without trials)."""
        return self.measured_baseline_time / self.measured_time

    def to_dict(self) -> Dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "TunedPlan":
        return cls(**data)


def _schedule(
    world_size: int,
    mode: str,
    algorithm: str,
    fusion_threshold_bytes: Optional[int],
    pipeline_chunks: int,
    compression: Optional[CompressionModel],
    topology: Optional[HostTopology],
    sharding: str,
):
    """The schedule the exchange would execute: the exchanges' own rule, on
    ``topology`` (default: one host)."""
    from repro.training.exchange import exchange_schedule

    codec = None if compression is None or compression.is_identity else compression
    layout = resolve_host_topology(topology or HostTopology.single_host(world_size), world_size)
    return exchange_schedule(
        layout, mode, algorithm, sharding, codec, fusion_threshold_bytes, pipeline_chunks
    )


def _transform_time(nbytes: float, decodes: int, compression: CompressionModel) -> float:
    """A codec's encode of ``nbytes`` dense bytes and ``decodes`` decodes."""
    return nbytes * (
        compression.encode_seconds_per_byte
        + decodes * compression.decode_seconds_per_byte
    )


def _gather_exchange_time(
    length: int,
    bytes_per_element: float,
    wire: float,
    size: int,
    params: LogGPParams,
    compression: CompressionModel,
    topology: Optional[HostTopology],
    inter: Optional[LogGPParams],
) -> float:
    """Decode-reduce-encode exchange of one ``length``-element bucket: the
    ring allgather plan of a table with one encoded payload per rank (one
    element of ``length * wire`` bytes each), flat over the global ranks
    (a hop between hosts of ``topology`` rides ``inter``), then the
    ``size - 1`` decoded contributions it received reduced densely."""
    gather = collective_time(
        "allgather", "ring", size, size, 1, params, topology, inter,
        bytes_per_element=length * wire,
    )
    if size == 1:
        return gather
    nbytes = length * bytes_per_element
    combine = (size - 1) * nbytes * params.gamma
    return gather + combine + _transform_time(nbytes, size, compression)


def predict_exchange_time(
    params: LogGPParams,
    world_size: int,
    gradient_bytes: int,
    algorithm: str = "ring",
    fusion_threshold_bytes: Optional[int] = DEFAULT_FIXED_THRESHOLD_BYTES,
    pipeline_chunks: int = 1,
    compression: Optional[CompressionModel] = None,
    topology: Optional[HostTopology] = None,
    inter_params: Optional[LogGPParams] = None,
    sharding: str = "none",
    mode: str = "sync",
    bytes_per_element: int = _BYTES_PER_ELEMENT,
) -> float:
    """Modelled duration of one bucketed gradient exchange.

    Walks the schedule the exchange runs
    (:func:`~repro.training.exchange.exchange_schedule`, which refuses
    what no exchange can run) for ``mode``: the gradient is
    ``gradient_bytes / bytes_per_element`` elements, cut into the
    exchange's buckets (``fusion_threshold_bytes=None``: one), and every
    bucket's collectives run back to back, each priced by
    :func:`~repro.simtime.collective_model.collective_time` (its
    ``collective_overhead`` included) once per distinct bucket length at
    ``bytes_per_element`` dense bytes, a codec's hops at its absolute
    wire width, plus the codec's encode/decode per collective.  An eager
    mode's partial allreduce is the recursive doubling
    :class:`~repro.collectives.partial.PartialAllreduce` runs, natively at
    its wire width; the payload allgather prices its own transform and
    dense combine.  On a ``topology`` that spans hosts, ``params`` is the
    intra-host tier and ``inter_params`` (default ``params``) the
    inter-host tier.  Summing per bucket is exact for the ring and the
    hierarchical allreduce and an upper bound where sends that need no
    receive first would overlap the next bucket.
    """
    if gradient_bytes < 1 or (fusion_threshold_bytes is not None and fusion_threshold_bytes < 1):
        raise ValueError(
            f"gradient_bytes and the fusion threshold must be >= 1, "
            f"got {gradient_bytes} and {fusion_threshold_bytes}"
        )
    schedule = _schedule(
        world_size, mode, algorithm, fusion_threshold_bytes, pipeline_chunks, compression,
        topology, sharding,
    )
    codec = None if schedule.wire_bytes_per_element is None else compression
    buckets = schedule.cut(max(1, int(gradient_bytes) // bytes_per_element)).buckets
    total = 0.0
    for length, count in Counter(bucket.num_elements for bucket in buckets).items():
        for collective in schedule.collectives:
            if collective.kind == "payload_allgather":
                total += count * _gather_exchange_time(
                    length, bytes_per_element, collective.wire, world_size, params, codec,
                    topology, inter_params,
                )
                continue
            if collective.kind == "partial_allreduce":
                total += count * collective_time(
                    "allreduce", "recursive_doubling", world_size, length,
                    pipeline_chunks, params, topology, inter_params,
                    collective.wire or bytes_per_element,
                )
            else:
                total += count * collective_time(
                    collective.kind, collective.algorithm, world_size, length,
                    pipeline_chunks, params, collective.topology, inter_params,
                    bytes_per_element, collective.wire,
                )
            if codec is not None:
                total += count * _transform_time(length * bytes_per_element, 1, codec)
    return total


def _measure_exchange(
    world_size: int,
    num_elements: int,
    algorithm: str,
    fusion_threshold_bytes: int,
    pipeline_chunks: int,
    backend: Optional[str] = None,
    compression: Optional[str] = None,
    mode: str = "sync",
) -> float:
    """Live wall-clock of one ``mode`` exchange (seconds), built by
    :func:`~repro.training.exchange.build_exchange` as a run builds it.

    Runs on ``backend`` (``None`` = the process-wide default), on the host
    layout it launches.  Per rank the minimum over three timed exchanges
    is taken, then the maximum across ranks (the exchange ends when the
    slowest rank holds the averaged gradient).
    """
    from repro.comm.backend import launch
    from repro.training.exchange import build_exchange

    def worker(comm):
        exchange = build_exchange(
            comm,
            num_elements,
            mode,
            algorithm=algorithm,
            fusion_threshold_bytes=fusion_threshold_bytes,
            pipeline_chunks=pipeline_chunks,
            compression=compression,
        )
        gradient = np.full(num_elements, float(comm.rank), dtype=np.float64)
        with exchange:
            exchange.exchange(gradient)  # warmup
            best = float("inf")
            for _ in range(3):
                comm.barrier()
                start = time.perf_counter()
                exchange.exchange(gradient)
                best = min(best, time.perf_counter() - start)
        return best

    return float(max(launch(worker, world_size, backend=backend)))


def autotune(
    params: LogGPParams,
    world_size: int,
    gradient_bytes: int,
    algorithm: str = "ring",
    thresholds: Optional[Sequence[int]] = None,
    chunks: Optional[Sequence[int]] = None,
    live_trials: int = 0,
    backend: Optional[str] = None,
    compression: Optional[str] = None,
    compression_model: Optional[CompressionModel] = None,
    topology: Optional[HostTopology] = None,
    inter_params: Optional[LogGPParams] = None,
    sharding: str = "none",
    mode: str = "sync",
) -> TunedPlan:
    """Pick ``(fusion_threshold_bytes, pipeline_chunks)`` for one exchange shape.

    The full ``thresholds x chunks`` grid is scored with
    :func:`predict_exchange_time` under the calibrated ``params``;
    thresholds that cut the same buckets are scored once.  With
    ``live_trials > 0`` the ``live_trials`` best-scoring candidates are
    additionally measured live on ``backend`` (``None`` = the default)
    and the measured winner is returned — the model proposes, the
    backend disposes.

    The default grids contain the fixed 64 KiB / 1-chunk configuration,
    so (unless the caller restricts the search away from it) the
    recommendation is never predicted to be slower than the default.

    ``compression`` names a gradient codec (spec strings allowed): the
    grid is scored with the codec's wire/transform terms, the fusion
    threshold budgets *encoded* bucket bytes (mirroring the exchange),
    the fixed-default baseline is modelled under the *same* codec, and
    live trials run the compressed exchange.  ``compression_model``
    overrides the cost-model view derived from the codec (tests).

    A ``topology`` that spans hosts scores the grid on the hierarchical
    plans — ``params`` as the intra tier, ``inter_params`` as the inter
    tier — so the recommendation is a *per-tier* fusion threshold: the
    knee moves because only the leader ring pays the slow links.  Live
    trials run on the layout ``backend`` launches
    (:func:`~repro.collectives.topology.resolve_host_topology`), the one
    :func:`tune_with_profile` scores on ``hier``.

    ``mode`` is the run's: an eager mode's grid is scored on its partial
    allreduce per bucket, and its live trials time that exchange.
    ``sharding="zero1"`` scores the grid with the ZeRO-1 exchange's
    reduce-scatters and allgathers; live trials are skipped — the
    measurement harness runs the dense exchange and would dispose with
    the wrong schedule.  Every candidate is checked by the exchange
    schedule, which names a bad size, threshold or chunk count.
    """
    if live_trials < 0:
        raise ValueError(f"live_trials must be non-negative, got {live_trials}")
    if sharding == "zero1":
        live_trials = 0
    thresholds = tuple(thresholds) if thresholds is not None else DEFAULT_THRESHOLD_GRID
    chunks = tuple(chunks) if chunks is not None else DEFAULT_CHUNK_GRID
    if not thresholds or not chunks:
        raise ValueError(
            f"thresholds and chunks must not be empty, "
            f"got {thresholds!r} / {chunks!r}"
        )
    if compression_model is None and compression is not None:
        from repro.compression import get_codec

        compression_model = get_codec(compression).cost_model()
    codec_name = "none" if compression_model is None else compression_model.name
    num_elements = max(1, gradient_bytes // _BYTES_PER_ELEMENT)

    def num_buckets(threshold: int) -> int:
        return _schedule(
            world_size, mode, algorithm, threshold, 1, compression_model, topology,
            sharding,
        ).cut(num_elements).num_buckets

    def price(threshold: int, n_chunks: int) -> float:
        return predict_exchange_time(
            params, world_size, gradient_bytes, algorithm, threshold, n_chunks,
            compression_model, topology, inter_params, sharding, mode,
        )

    baseline_time = price(DEFAULT_FIXED_THRESHOLD_BYTES, 1)
    # Score the grid; thresholds that cut the same buckets are priced once.
    seen: Dict[Tuple[int, int], Tuple[float, int, int]] = {}
    for threshold in dict.fromkeys(thresholds):
        buckets = num_buckets(threshold)
        for n_chunks in dict.fromkeys(chunks):
            if (buckets, n_chunks) not in seen:
                seen[buckets, n_chunks] = (price(threshold, n_chunks), threshold, n_chunks)
    ranked = sorted(seen.values())

    measured_time = float("nan")
    measured_baseline = float("nan")
    predicted, threshold, n_chunks = ranked[0]
    if live_trials > 0 and world_size > 1:
        trials = []
        for cand_predicted, cand_threshold, cand_chunks in ranked[:live_trials]:
            elapsed = _measure_exchange(
                world_size, num_elements, algorithm, cand_threshold, cand_chunks,
                backend=backend, compression=compression, mode=mode,
            )
            trials.append((elapsed, cand_predicted, cand_threshold, cand_chunks))
        measured_baseline = _measure_exchange(
            world_size, num_elements, algorithm, DEFAULT_FIXED_THRESHOLD_BYTES, 1,
            backend=backend, compression=compression, mode=mode,
        )
        measured_time, predicted, threshold, n_chunks = min(trials)
        # The fixed default was measured too: if every candidate loses to
        # it on the real backend, recommend the default itself.
        if measured_baseline < measured_time:
            measured_time = measured_baseline
            predicted, threshold, n_chunks = (
                baseline_time, DEFAULT_FIXED_THRESHOLD_BYTES, 1,
            )

    return TunedPlan(
        world_size=world_size,
        gradient_bytes=int(gradient_bytes),
        algorithm=algorithm,
        fusion_threshold_bytes=int(threshold),
        pipeline_chunks=int(n_chunks),
        compression=codec_name,
        predicted_time=float(predicted),
        baseline_time=float(baseline_time),
        measured_time=measured_time,
        measured_baseline_time=measured_baseline,
        num_buckets=num_buckets(threshold),
    )


def tune_with_profile(
    profile: CalibratedProfile,
    gradient_bytes: int,
    algorithm: str = "ring",
    **kwargs,
) -> TunedPlan:
    """Autotune at the profile's world size with its fitted parameters.

    Live trials (``live_trials > 0``) run on the backend the profile was
    calibrated against, so measured and modelled times describe the same
    transport, and on ``hier`` the grid is scored on the host layout that
    backend launches (:func:`~repro.collectives.topology.resolve_host_topology`)
    with the profile's inter-host link.  When a codec is given, its
    encode/decode costs come from the profile's live measurements
    (:meth:`~repro.tuning.calibration.CalibratedProfile.compression_model`)
    rather than the class-attribute constants.
    """
    kwargs.setdefault("backend", profile.backend)
    kwargs.setdefault("inter_params", profile.link("inter"))
    if profile.backend == "hier":
        kwargs.setdefault("topology", resolve_host_topology(None, profile.world_size))
    compression = kwargs.get("compression")
    if compression is not None and kwargs.get("compression_model") is None:
        from repro.compression import get_codec

        kwargs["compression_model"] = profile.compression_model(
            get_codec(compression)
        )
    return autotune(
        profile.params, profile.world_size, gradient_bytes, algorithm, **kwargs
    )


def resolve_auto_fusion(config: "TrainingConfig", num_parameters: int) -> "TrainingConfig":
    """Resolve ``"auto"`` fusion knobs of a training configuration.

    Returns ``config`` unchanged when neither knob is ``"auto"``.
    Otherwise the profile for ``(config.comm_backend, world_size)`` is
    loaded from the cache (``$REPRO_TUNING_CACHE_DIR``; the quick sweep is
    measured once on that backend and cached when absent), the grid is
    searched at the job's gradient size (float64 elements), and a copy of
    the configuration with the concrete values is returned.  A knob the
    user pinned to a number is honoured: the search is restricted to that
    value.  The grid is
    priced on the schedule the run's exchange executes — its mode and
    sharding — on the host layout its backend launches
    (:func:`tune_with_profile`).
    """
    auto_threshold = config.fusion_threshold_bytes == "auto"
    auto_chunks = config.pipeline_chunks == "auto"
    if not auto_threshold and not auto_chunks:
        return config
    if num_parameters < 1:
        raise ValueError(f"num_parameters must be >= 1, got {num_parameters}")

    if config.world_size == 1:
        # Single-process runs never exchange; fall back to inert values.
        return replace(
            config,
            fusion_threshold_bytes=None if auto_threshold else config.fusion_threshold_bytes,
            pipeline_chunks=1 if auto_chunks else config.pipeline_chunks,
        )

    profile = calibrate(config.world_size, backend=config.comm_backend, quick=True)
    gradient_bytes = max(1, int(num_parameters) * _BYTES_PER_ELEMENT)
    if auto_threshold:
        thresholds = None
    elif config.fusion_threshold_bytes is None:
        thresholds = [gradient_bytes]  # one bucket, as the exchange runs it
    else:
        thresholds = [int(config.fusion_threshold_bytes)]
    chunks = None if auto_chunks else [int(config.pipeline_chunks)]
    plan = tune_with_profile(
        profile,
        gradient_bytes,
        config.allreduce_algorithm,
        thresholds=thresholds,
        chunks=chunks,
        compression=config.compression,
        sharding=config.sharding,
        mode=config.mode,
    )
    return replace(
        config,
        fusion_threshold_bytes=(
            plan.fusion_threshold_bytes if auto_threshold else config.fusion_threshold_bytes
        ),
        pipeline_chunks=(
            plan.pipeline_chunks if auto_chunks else config.pipeline_chunks
        ),
    )
