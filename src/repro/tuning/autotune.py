"""Auto-tune ``fusion_threshold_bytes`` and ``pipeline_chunks``.

Horovod ships a fixed ``HOROVOD_FUSION_THRESHOLD`` (64 MiB) and leaves
the operator to tune it; PR 1 of this repo hardcoded a 64 KiB default in
its benchmarks.  The right setting depends on the world size, the
gradient size, the algorithm and the (calibrated) cost of a message —
exactly what :func:`~repro.simtime.collective_model.fused_exchange_time`
models.  This module searches the ``threshold x chunks`` grid with the
calibrated model, optionally cross-checks the best candidates against a
handful of live thread-backend trials, and returns a :class:`TunedPlan`.

``TrainingConfig`` accepts ``fusion_threshold_bytes="auto"`` /
``pipeline_chunks="auto"``; :func:`resolve_auto_fusion` (called by
:func:`repro.training.runner.train_distributed`) turns those into
concrete values through the profile cache.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from repro.simtime.collective_model import (
    CompressionModel,
    fused_exchange_time,
    hierarchical_fused_exchange_time,
    sharded_exchange_time,
)
from repro.simtime.network import LogGPParams
from repro.tuning.calibration import CalibratedProfile, calibrate

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.training.config import TrainingConfig

#: The PR-1 fixed default the auto-tuner is benchmarked against
#: (``benchmarks/bench_fusion_pipeline.py`` used 64 KiB buffers).
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
    #: plans were scored with the two-tier cost model and per-link-class
    #: parameters.
    ranks_per_host: Optional[Tuple[int, ...]] = None

    @property
    def num_buckets(self) -> int:
        return _bucket_count(self.gradient_bytes, self.fusion_threshold_bytes,
                             self._compression_model)

    @property
    def speedup(self) -> float:
        """Modelled speedup over the fixed 64 KiB / 1-chunk default."""
        return self.baseline_time / self.predicted_time

    @property
    def measured_speedup(self) -> float:
        """Live-trial speedup over the fixed default (``NaN`` without trials)."""
        return self.measured_baseline_time / self.measured_time

    #: Cost-model view of the codec, set by :func:`autotune`.  Only its
    #: ``wire_scale`` matters here (it recovers the encoded bucket
    #: count), so serialisation keeps that one number.
    _compression_model: Optional[CompressionModel] = None

    def to_dict(self) -> Dict:
        return {
            "world_size": self.world_size,
            "compression": self.compression,
            "compression_wire_scale": (
                1.0
                if self._compression_model is None
                else self._compression_model.wire_scale
            ),
            "gradient_bytes": self.gradient_bytes,
            "algorithm": self.algorithm,
            "fusion_threshold_bytes": self.fusion_threshold_bytes,
            "pipeline_chunks": self.pipeline_chunks,
            "predicted_time": self.predicted_time,
            "baseline_time": self.baseline_time,
            "measured_time": self.measured_time,
            "measured_baseline_time": self.measured_baseline_time,
            "ranks_per_host": (
                None if self.ranks_per_host is None else list(self.ranks_per_host)
            ),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "TunedPlan":
        compression = str(data.get("compression", "none"))
        wire_scale = float(data.get("compression_wire_scale", 1.0))
        model = None
        if compression != "none" or wire_scale != 1.0:
            model = CompressionModel(name=compression, wire_scale=wire_scale)
        return cls(
            world_size=int(data["world_size"]),
            gradient_bytes=int(data["gradient_bytes"]),
            algorithm=data["algorithm"],
            fusion_threshold_bytes=int(data["fusion_threshold_bytes"]),
            pipeline_chunks=int(data["pipeline_chunks"]),
            compression=compression,
            predicted_time=float(data["predicted_time"]),
            baseline_time=float(data["baseline_time"]),
            measured_time=float(data.get("measured_time", float("nan"))),
            measured_baseline_time=float(
                data.get("measured_baseline_time", float("nan"))
            ),
            ranks_per_host=(
                None
                if data.get("ranks_per_host") is None
                else tuple(int(n) for n in data["ranks_per_host"])
            ),
            _compression_model=model,
        )


def _bucket_count(
    gradient_bytes: int,
    threshold: int,
    compression: Optional[CompressionModel] = None,
) -> int:
    """Bucket count when ``threshold`` budgets the encoded bucket size."""
    wire_bytes = int(gradient_bytes)
    if compression is not None:
        wire_bytes = max(1, int(gradient_bytes * compression.wire_scale))
    return max(1, -(-wire_bytes // int(threshold)))


def plan_bucket_bytes(
    gradient_bytes: int,
    threshold: int,
    compression: Optional[CompressionModel] = None,
) -> List[float]:
    """Near-equal per-bucket *dense* byte sizes, mirroring ``GradientBucketer.from_flat``."""
    if gradient_bytes < 1:
        raise ValueError(f"gradient_bytes must be >= 1, got {gradient_bytes}")
    if threshold < 1:
        raise ValueError(f"fusion_threshold_bytes must be >= 1, got {threshold}")
    count = _bucket_count(gradient_bytes, threshold, compression)
    return [gradient_bytes / count] * count


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

    With ``compression``, the fusion threshold budgets the *encoded*
    bucket size (mirroring the exchange's wire-width bucketing), and the
    codec's wire/transform terms enter the cost model.

    ``sharding="zero1"`` scores the ZeRO-1 reduce-scatter/allgather
    exchange (:func:`~repro.simtime.collective_model.sharded_exchange_time`)
    instead: the configured allreduce ``algorithm`` is mapped onto the
    matching sharded schedule, and multi-host fabrics are approximated by
    the flat ring at the full world size.

    ``ranks_per_host`` with more than one host scores the *two-tier*
    schedules the exchange runs on a multi-host fabric
    (:func:`~repro.simtime.collective_model.hierarchical_fused_exchange_time`):
    ``params`` then describes the intra-host tier and ``inter_params``
    the inter-host tier (a calibrated profile's ``link("inter")``;
    defaults to ``params``).  Dense and reduce-closed compressed buckets
    route hierarchically, mirroring
    :class:`~repro.training.exchange.SynchronousExchange`; codecs on the
    allgather path stay flat, exactly like the implementation.
    """
    bucket_bytes = plan_bucket_bytes(
        gradient_bytes, fusion_threshold_bytes, compression
    )
    if sharding == "zero1":
        return sharded_exchange_time(
            bucket_bytes,
            world_size,
            algorithm="halving" if algorithm == "rabenseifner" else "ring",
            params=params,
            n_chunks=pipeline_chunks,
            compression=compression,
        )
    multi_host = ranks_per_host is not None and len(ranks_per_host) > 1
    if multi_host and (
        compression is None or compression.is_identity or compression.reduce_closed
    ):
        inter = inter_params if inter_params is not None else params
        if compression is not None and not compression.is_identity:
            # Dense intra tiers, encoded leader ring; the leaders pay one
            # encode + one decode of the dense bucket (reduce-closed).
            transform = sum(
                b
                * (
                    compression.encode_seconds_per_byte
                    + compression.decode_seconds_per_byte
                )
                for b in bucket_bytes
            )
            return transform + hierarchical_fused_exchange_time(
                bucket_bytes,
                ranks_per_host,
                params,
                inter,
                n_chunks=pipeline_chunks,
                inter_scale=compression.wire_scale,
            )
        return hierarchical_fused_exchange_time(
            bucket_bytes, ranks_per_host, params, inter, n_chunks=pipeline_chunks
        )
    return fused_exchange_time(
        bucket_bytes,
        world_size,
        algorithm,
        params,
        n_chunks=pipeline_chunks,
        compression=compression,
    )


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

    The full ``thresholds x chunks`` grid is scored with the calibrated
    :func:`fused_exchange_time` model; candidates that produce the same
    (bucket count, chunk count) pair are deduplicated.  With
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

    ``ranks_per_host`` (more than one host) scores the grid with the
    two-tier cost model — ``params`` as the intra tier, ``inter_params``
    as the inter tier — so the recommendation is a *per-tier* fusion
    threshold: the knee moves because only the leader ring pays the slow
    links.  Live trials then run on the matching simulated topology.

    ``sharding="zero1"`` scores the grid with the sharded-exchange model
    (:func:`predict_exchange_time` routes to
    :func:`~repro.simtime.collective_model.sharded_exchange_time`); live
    trials are skipped — the measurement harness runs the dense exchange
    and would dispose with the wrong schedule.
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

    baseline_time = predict_exchange_time(
        params, world_size, gradient_bytes, algorithm,
        DEFAULT_FIXED_THRESHOLD_BYTES, 1, compression_model,
        ranks_per_host=ranks_per_host, inter_params=inter_params,
        sharding=sharding,
    )

    # Score the grid; dedupe candidates that bucket identically.
    seen: Dict[Tuple[int, int], Tuple[float, int, int]] = {}
    grid = list(dict.fromkeys(thresholds))
    chunk_grid = list(dict.fromkeys(chunks))
    for threshold in grid:
        for n_chunks in chunk_grid:
            key = (_bucket_count(gradient_bytes, threshold, compression_model), n_chunks)
            predicted = predict_exchange_time(
                params, world_size, gradient_bytes, algorithm, threshold, n_chunks,
                compression_model,
                ranks_per_host=ranks_per_host, inter_params=inter_params,
                sharding=sharding,
            )
            if key not in seen or predicted < seen[key][0]:
                seen[key] = (predicted, threshold, n_chunks)
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
        _compression_model=compression_model,
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
    that value.
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
        # Legacy fixed-count bucketing: restrict the search to a threshold
        # reproducing the ``fusion_buckets`` the exchange will run.
        thresholds = [max(1, -(-gradient_bytes // max(1, config.fusion_buckets)))]
    else:
        thresholds = [int(config.fusion_threshold_bytes)]
    chunks = None if auto_chunks else [int(config.pipeline_chunks)]
    compression_model = None
    if getattr(config, "compression", None) is not None:
        from repro.compression import get_codec

        # Measured transform costs from the cached profile, not the
        # codec's hardcoded numpy-throughput constants.
        compression_model = profile.compression_model(
            get_codec(config.compression, **(config.compression_options or {}))
        )
    plan = autotune(
        profile.params,
        config.world_size,
        gradient_bytes,
        algorithm=config.allreduce_algorithm,
        thresholds=thresholds,
        chunks=chunks,
        compression_model=compression_model,
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
