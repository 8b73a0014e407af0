"""Auto-tune ``fusion_threshold_bytes`` and ``pipeline_chunks``.

Horovod ships a fixed ``HOROVOD_FUSION_THRESHOLD`` (64 MiB) and leaves
the operator to tune it; PR 1 of this repo hardcoded a 64 KiB default in
its benchmarks.  The right setting depends on the world size, the
gradient size, the algorithm and the (calibrated) cost of a message.
This module prices each ``threshold x chunks`` candidate as the exchange
runs it (:func:`predict_exchange_time`: the buckets
``GradientBucketer.from_flat`` cuts, each collective's plans walked under
the calibrated LogGP parameters), optionally cross-checks the best
candidates against a handful of live trials, and returns a
:class:`TunedPlan`.

``TrainingConfig`` accepts ``fusion_threshold_bytes="auto"`` /
``pipeline_chunks="auto"``; :func:`resolve_auto_fusion` (called by
:func:`repro.training.runner.train_distributed`) turns those into
concrete values through the profile cache.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from repro.collectives.sync import ALLGATHER_FOR_REDUCE_SCATTER
from repro.collectives.topology import HostTopology
from repro.simtime.collective_model import (
    CompressionModel,
    _gather_exchange_time,
    _transform_time,
    collective_time,
)
from repro.simtime.network import LogGPParams
from repro.tuning.calibration import CalibratedProfile, calibrate

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.training.bucketing import GradientBucketer
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
    #: Host topology the plan was scored against (``None`` = flat):
    #: ranks per host, e.g. ``(4, 4)`` for two hosts of four.  Multi-host
    #: plans were scored on the hierarchical plans with per-link-class
    #: parameters.
    ranks_per_host: Optional[Tuple[int, ...]] = None
    #: Buckets the recommended threshold cuts (:func:`bucketer_for`, the
    #: exchange's own bucketer, at the codec's wire width).
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
        data = dict(data)
        if data.get("ranks_per_host") is not None:
            data["ranks_per_host"] = tuple(int(n) for n in data["ranks_per_host"])
        return cls(**data)


def bucketer_for(
    gradient_bytes: int,
    threshold: int,
    compression: Optional[CompressionModel] = None,
) -> "GradientBucketer":
    """The buckets the exchange cuts: ``GradientBucketer.from_flat`` at the
    codec's wire width, which the threshold budgets."""
    from repro.training.bucketing import GradientBucketer

    if gradient_bytes < 1 or threshold < 1:
        raise ValueError(
            f"gradient_bytes and the fusion threshold must be >= 1, "
            f"got {gradient_bytes} and {threshold}"
        )
    wire = None
    if compression is not None and not compression.is_identity:
        wire = _BYTES_PER_ELEMENT * compression.wire_scale
    return GradientBucketer.from_flat(
        max(1, int(gradient_bytes) // _BYTES_PER_ELEMENT), threshold,
        _BYTES_PER_ELEMENT, wire,
    )


def predict_exchange_time(
    params: LogGPParams,
    world_size: int,
    gradient_bytes: int,
    algorithm: str = "ring",
    fusion_threshold_bytes: int = DEFAULT_FIXED_THRESHOLD_BYTES,
    pipeline_chunks: int = 1,
    compression: Optional[CompressionModel] = None,
    ranks_per_host: Optional[Sequence[int]] = None,
    inter_params: Optional[LogGPParams] = None,
    sharding: str = "none",
) -> float:
    """Modelled duration of one bucketed gradient exchange.

    The sum of the collectives the exchange issues, back to back, over
    the buckets :func:`bucketer_for` cuts — each priced by
    :func:`~repro.simtime.collective_model.collective_time`, its
    ``collective_overhead`` included, once per distinct bucket length:

    * dense: one allreduce of ``algorithm`` per bucket — ``ring`` under a
      reduce-closed codec, the codec as its wire dtype;
    * ``sharding="zero1"``: every bucket's reduce-scatter plus every
      bucket's allgather, of the pair the exchange maps ``algorithm`` to;
    * ``ranks_per_host`` spanning hosts: the hierarchical plans, with
      ``params`` the intra-host tier and ``inter_params`` (default
      ``params``) the inter-host tier.

    A codec adds its encode/decode per bucket (per collective under
    ``zero1``); a codec that is not reduce-closed takes the
    decode-reduce-encode allgather instead.  Summing per bucket is exact
    for the ring and the hierarchical allreduce and an upper bound where
    sends that need no receive first would overlap the next bucket.
    """
    from repro.training.exchange import _SHARDED_ALGORITHM_FOR_ALLREDUCE

    buckets = bucketer_for(gradient_bytes, fusion_threshold_bytes, compression).buckets
    lengths = Counter(bucket.num_elements for bucket in buckets)
    codec = None if compression is None or compression.is_identity else compression
    if codec is not None and not codec.reduce_closed:
        if sharding == "zero1":
            raise ValueError(
                f"sharded exchange supports reduce-closed codecs only, got {codec.name!r}"
            )
        return sum(
            count * _gather_exchange_time(
                length * _BYTES_PER_ELEMENT, world_size, params, codec
            )
            for length, count in lengths.items()
        )
    topology = None
    if ranks_per_host is not None and len(ranks_per_host) > 1:
        topology = HostTopology.from_hosts(ranks_per_host)
    if sharding == "zero1":
        scatter = "hierarchical" if topology else _SHARDED_ALGORITHM_FOR_ALLREDUCE.get(
            algorithm, algorithm
        )
        collectives = [
            ("reduce_scatter", scatter),
            ("allgather", ALLGATHER_FOR_REDUCE_SCATTER.get(scatter, scatter)),
        ]
    else:
        dense = "ring" if codec is not None else algorithm
        collectives = [("allreduce", "hierarchical" if topology else dense)]
    wire = None if codec is None else _BYTES_PER_ELEMENT * codec.wire_scale
    total = 0.0
    for length, count in lengths.items():
        for kind, name in collectives:
            total += count * collective_time(
                kind, name, world_size, length, pipeline_chunks, params, topology,
                inter_params, _BYTES_PER_ELEMENT, wire,
            )
            if codec is not None:
                total += count * _transform_time(
                    length * _BYTES_PER_ELEMENT, world_size, codec
                )
    return total


def _measure_exchange(
    world_size: int,
    num_elements: int,
    algorithm: str,
    fusion_threshold_bytes: int,
    pipeline_chunks: int,
    iterations: int = 3,
    backend: Optional[str] = None,
    compression: Optional[str] = None,
    backend_opts: Optional[Dict] = None,
) -> float:
    """Live wall-clock of one synchronous exchange (seconds).

    Runs on ``backend`` (``None`` = the process-wide default).  Per rank
    the minimum over ``iterations`` is taken, then the maximum across
    ranks (the exchange ends when the slowest rank holds the averaged
    gradient).
    """
    from repro.comm.backend import launch
    from repro.training.exchange import SynchronousExchange

    def worker(comm):
        exchange = SynchronousExchange(
            comm,
            algorithm=algorithm,
            fusion_threshold_bytes=fusion_threshold_bytes,
            pipeline_chunks=pipeline_chunks,
            compression=compression,
        )
        gradient = np.full(num_elements, float(comm.rank), dtype=np.float64)
        exchange.exchange(gradient)  # warmup
        best = float("inf")
        for _ in range(iterations):
            comm.barrier()
            start = time.perf_counter()
            exchange.exchange(gradient)
            best = min(best, time.perf_counter() - start)
        return best

    return float(
        max(launch(worker, world_size, backend=backend, backend_opts=backend_opts))
    )


def autotune(
    params: LogGPParams,
    world_size: int,
    gradient_bytes: int,
    algorithm: str = "ring",
    thresholds: Optional[Sequence[int]] = None,
    chunks: Optional[Sequence[int]] = None,
    live_trials: int = 0,
    live_iterations: int = 3,
    backend: Optional[str] = None,
    compression: Optional[str] = None,
    compression_model: Optional[CompressionModel] = None,
    ranks_per_host: Optional[Sequence[int]] = None,
    inter_params: Optional[LogGPParams] = None,
    sharding: str = "none",
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

    ``ranks_per_host`` (more than one host) scores the grid on the
    hierarchical plans — ``params`` as the intra tier, ``inter_params``
    as the inter tier — so the recommendation is a *per-tier* fusion
    threshold: the knee moves because only the leader ring pays the slow
    links.  Live trials then run on the matching simulated topology.

    ``sharding="zero1"`` scores the grid with the ZeRO-1 exchange's
    reduce-scatters and allgathers; live trials are skipped — the
    measurement harness runs the dense exchange and would dispose with
    the wrong schedule.
    """
    if world_size < 1:
        raise ValueError(f"size must be >= 1, got {world_size}")
    if ranks_per_host is not None:
        ranks_per_host = tuple(int(n) for n in ranks_per_host)
        if sum(ranks_per_host) != world_size:
            raise ValueError(
                f"ranks_per_host {list(ranks_per_host)} covers "
                f"{sum(ranks_per_host)} rank(s), world has {world_size}"
            )
    if gradient_bytes < 1:
        raise ValueError(f"gradient_bytes must be >= 1, got {gradient_bytes}")
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
    if any(t < 1 for t in thresholds):
        raise ValueError(f"fusion thresholds must be >= 1, got {list(thresholds)}")
    if any(c < 1 for c in chunks):
        raise ValueError(f"pipeline chunk counts must be >= 1, got {list(chunks)}")
    codec_name = "none"
    if compression_model is None and compression is not None:
        from repro.compression import get_codec

        codec = get_codec(compression)
        codec_name = codec.name
        compression_model = codec.cost_model()
    elif compression_model is not None:
        codec_name = compression_model.name

    def price(threshold: int, n_chunks: int) -> float:
        return predict_exchange_time(
            params, world_size, gradient_bytes, algorithm, threshold, n_chunks,
            compression_model, ranks_per_host, inter_params, sharding,
        )

    baseline_time = price(DEFAULT_FIXED_THRESHOLD_BYTES, 1)
    # Score the grid; thresholds that cut the same buckets are priced once.
    seen: Dict[Tuple[int, int], Tuple[float, int, int]] = {}
    for threshold in dict.fromkeys(thresholds):
        buckets = bucketer_for(gradient_bytes, threshold, compression_model).num_buckets
        for n_chunks in dict.fromkeys(chunks):
            if (buckets, n_chunks) not in seen:
                seen[buckets, n_chunks] = (price(threshold, n_chunks), threshold, n_chunks)
    ranked = sorted(seen.values())

    measured_time = float("nan")
    measured_baseline = float("nan")
    predicted, threshold, n_chunks = ranked[0]
    if live_trials > 0 and world_size > 1:
        backend_opts = None
        if backend == "hier" and ranks_per_host is not None and len(ranks_per_host) > 1:
            # Trials must run on the topology the grid was scored for.
            spec = ",".join(
                str(host) for host, n in enumerate(ranks_per_host) for _ in range(n)
            )
            backend_opts = {"host_topology": spec}
        num_elements = max(1, gradient_bytes // _BYTES_PER_ELEMENT)
        trials = []
        for cand_predicted, cand_threshold, cand_chunks in ranked[:live_trials]:
            elapsed = _measure_exchange(
                world_size, num_elements, algorithm, cand_threshold, cand_chunks,
                iterations=live_iterations, backend=backend, compression=compression,
                backend_opts=backend_opts,
            )
            trials.append((elapsed, cand_predicted, cand_threshold, cand_chunks))
        measured_baseline = _measure_exchange(
            world_size, num_elements, algorithm, DEFAULT_FIXED_THRESHOLD_BYTES, 1,
            iterations=live_iterations, backend=backend, compression=compression,
            backend_opts=backend_opts,
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
        ranks_per_host=ranks_per_host,
        num_buckets=bucketer_for(gradient_bytes, threshold, compression_model).num_buckets,
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
    transport.  When a codec is given, its encode/decode costs come from
    the profile's live measurements
    (:meth:`~repro.tuning.calibration.CalibratedProfile.compression_model`)
    rather than the class-attribute constants.
    """
    kwargs.setdefault("backend", profile.backend)
    # Two-tier profiles supply the inter-host link class for multi-host
    # (ranks_per_host) scoring; a no-op for flat topologies.
    kwargs.setdefault("inter_params", profile.link("inter"))
    compression = kwargs.get("compression")
    if compression is not None and kwargs.get("compression_model") is None:
        from repro.compression import get_codec

        kwargs["compression_model"] = profile.compression_model(
            get_codec(compression)
        )
    return autotune(
        profile.params, profile.world_size, gradient_bytes, algorithm, **kwargs
    )


def resolve_ranks_per_host(backend: Optional[str], world_size: int):
    """Ranks per host of the layout the ``hier`` backend resolves for
    ``world_size`` (``REPRO_HOST_TOPOLOGY`` or its single-host default),
    or ``None`` for a flat world.  A spec sized for another world size is
    ignored, not raised: each world size gets the layout that applies."""
    if backend != "hier":
        return None
    from repro.comm.hier_backend import resolve_topology

    try:
        topology = resolve_topology(None, world_size)
    except ValueError:
        return None
    hosts = tuple(len(topology.ranks_on_host(h)) for h in range(topology.num_hosts))
    return hosts if len(hosts) > 1 else None


def resolve_auto_fusion(
    config: "TrainingConfig",
    num_parameters: int,
    bytes_per_element: int = _BYTES_PER_ELEMENT,
    cache_dir: Optional[Path] = None,
    quick: bool = True,
) -> "TrainingConfig":
    """Resolve ``"auto"`` fusion knobs of a training configuration.

    Returns ``config`` unchanged when neither knob is ``"auto"``.
    Otherwise the profile for ``(config.comm_backend, world_size)`` is
    loaded from the cache (measured once on that backend and cached when
    absent), the grid is searched at the job's gradient size, and a copy
    of the configuration with the concrete values is returned.  A knob
    the user pinned to a number is honoured: the search is restricted to
    that value.  On a ``hier`` world that spans hosts the grid is scored
    on that layout (:func:`resolve_ranks_per_host`) with the profile's
    inter-host link, as the exchange will run it.
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

    if cache_dir is None and config.tuning_cache_dir is not None:
        cache_dir = Path(config.tuning_cache_dir)
    profile = calibrate(
        config.world_size,
        backend=config.comm_backend,
        quick=quick,
        cache_dir=cache_dir,
    )
    gradient_bytes = max(1, int(num_parameters) * int(bytes_per_element))
    if auto_threshold:
        thresholds = None
    elif config.fusion_threshold_bytes is None:
        thresholds = [gradient_bytes]  # one bucket, as the exchange runs it
    else:
        thresholds = [int(config.fusion_threshold_bytes)]
    chunks = None if auto_chunks else [int(config.pipeline_chunks)]
    compression_model = None
    if getattr(config, "compression", None) is not None:
        from repro.compression import get_codec

        # Measured transform costs from the cached profile, not the
        # codec's hardcoded numpy-throughput constants.
        compression_model = profile.compression_model(
            get_codec(config.compression)
        )
    plan = tune_with_profile(
        profile,
        gradient_bytes,
        config.allreduce_algorithm,
        thresholds=thresholds,
        chunks=chunks,
        compression_model=compression_model,
        ranks_per_host=resolve_ranks_per_host(profile.backend, config.world_size),
        sharding=getattr(config, "sharding", "none"),
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
