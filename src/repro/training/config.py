"""Training configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.imbalance.cost_model import CostModel
from repro.imbalance.injection import DelayInjector, NoDelay
from repro.training.bucketing import validate_fusion_threshold

#: Gradient-exchange modes accepted by the runner.
VALID_MODES = ("sync", "solo", "majority", "quorum")
#: Synchronous baselines (Section 3 of the paper).
VALID_SYNC_STYLES = ("deep500", "horovod")
#: Local optimizers.
VALID_OPTIMIZERS = ("sgd", "momentum", "adam")


@dataclass
class TrainingConfig:
    """Configuration of one distributed training job.

    Attributes
    ----------
    world_size:
        Number of ranks (the paper uses 8, 32 or 64).
    comm_backend:
        Registered communication backend carrying the run: ``"thread"``
        (one thread per rank, shared GIL) or ``"process"`` (one OS
        process per rank over local sockets, true parallelism).  ``None``
        uses the process-wide default (``"thread"`` unless overridden by
        ``REPRO_COMM_BACKEND``).  The tuning profile cache is keyed by
        this name, so each transport gets its own calibrated cost model.
    epochs:
        Number of passes over the training set.
    global_batch_size:
        Total batch size across ranks (Table 1's batch size column).
    mode:
        ``"sync"`` for the synch-SGD baselines, ``"solo"`` / ``"majority"``
        / ``"quorum"`` for eager-SGD with the corresponding partial
        collective.
    sync_style:
        For ``mode="sync"``: ``"deep500"`` (ordered per-bucket allreduce)
        or ``"horovod"`` (negotiation + fused allreduce).
    allreduce_algorithm:
        Algorithm used by the synchronous allreduce and the periodic model
        synchronisation.
    fusion_threshold_bytes, pipeline_chunks:
        Gradient-fusion configuration: byte-capacity fusion buffers
        (``None`` is one bucket, the gradient fully fused) and per-round
        chunk pipelining of the synchronous collectives (see
        :mod:`repro.training.exchange`).  Both also accept the string
        ``"auto"``: the runner then calibrates the LogGP cost
        model against the thread backend (cached under
        ``tuning_cache_dir``) and picks the values that minimise the
        modelled exchange time (see :mod:`repro.tuning`).
    compression:
        Gradient-compression codec applied per fusion bucket by the
        exchange (:mod:`repro.compression`): ``None`` or ``"none"``
        exchanges dense ``float64``; ``"fp16"`` / ``"bf16"`` / ``"int8"``
        / ``"topk"`` quantize or sparsify the wire payload.  Codec options
        ride inline in the spec (``"topk:ratio=0.05,error_feedback=off"``).
        The ``"auto"`` fusion knobs are tuned under the selected codec's
        cost model.
    sharding:
        ``"zero1"`` shards the optimizer states across ranks and runs the
        update over a reduce-scatter/allgather exchange (ZeRO stage 1);
        ``"none"`` keeps the replicated dense update.  Synchronous mode
        only.
    quorum:
        Required number of fresh contributions for ``mode="quorum"``.
    learning_rate, optimizer, momentum, weight_decay:
        Local update rule (the ``U`` of Algorithm 2).
    model_sync_period_epochs:
        Eager-SGD periodically synchronises the replicas to remove the
        divergence introduced by overwritten receive buffers (Section 5);
        the paper synchronises "every tens of epochs".  ``None`` disables
        the periodic synchronisation.
    time_scale:
        Fraction of the *simulated* per-step duration (compute cost +
        injected delay) that is actually slept by each rank thread.
        Non-zero values create genuine asynchrony between threads so that
        the partial collectives see realistic arrival orders; the
        projected time axes always use the unscaled simulated durations.
    delay_injector, cost_model:
        The load-imbalance model (system-induced and inherent).
    seed:
        Base seed: model initialisation (identical on every rank), data
        shuffling, initiator designation.
    eval_batch_size:
        Batch size used during evaluation passes.
    """

    world_size: int = 4
    comm_backend: Optional[str] = None
    epochs: int = 2
    global_batch_size: int = 64
    mode: str = "sync"
    sync_style: str = "deep500"
    allreduce_algorithm: str = "recursive_doubling"
    quorum: Optional[int] = None
    learning_rate: float = 0.05
    optimizer: str = "sgd"
    momentum: float = 0.9
    weight_decay: float = 0.0
    model_sync_period_epochs: Optional[int] = 10
    time_scale: float = 0.0
    delay_injector: DelayInjector = field(default_factory=NoDelay)
    cost_model: Optional[CostModel] = None
    seed: int = 0
    eval_batch_size: int = 256
    #: Cut the gradient into fusion buffers of at most this many bytes
    #: (Horovod-style tensor fusion); one collective is issued per bucket.
    #: ``None`` is one bucket; ``"auto"`` lets the runner pick via the
    #: calibrated cost model.
    fusion_threshold_bytes: Union[int, str, None] = None
    #: Segments each gradient-exchange collective round is pipelined in,
    #: so the reduction of chunk k overlaps the transmission of chunk k+1
    #: (applies to the synchronous allreduces and to the partial
    #: collectives' background reduction).  ``"auto"``
    #: lets the runner pick via the calibrated cost model.
    pipeline_chunks: Union[int, str] = 1
    #: Gradient-compression codec spec, options inline (see class
    #: docstring); ``None`` exchanges dense ``float64``.
    compression: Optional[str] = None
    #: Directory of the calibrated-profile cache consulted when resolving
    #: ``"auto"`` fusion values; ``None`` uses ``$REPRO_TUNING_CACHE_DIR``
    #: or ``~/.cache/repro/tuning``.
    tuning_cache_dir: Optional[str] = None
    #: Optimizer-state sharding: ``"none"`` replicates optimizer state on
    #: every rank; ``"zero1"`` (synchronous mode only) reduce-scatters each
    #: fusion bucket, applies the optimizer update on the owned 1/P shard
    #: and allgathers the refreshed parameters (ZeRO stage 1 — see
    #: :class:`repro.training.exchange.ShardedExchange`).
    sharding: str = "none"
    #: Paper-faithful single receive buffer for partial collectives: a
    #: lagging rank only sees the latest completed round (Section 5).
    #: Disable for exact per-round results (ablation).
    overwrite_recvbuff: bool = True
    #: Use independent per-rank length-bucketed input pipelines ("videos
    #: with similar lengths are grouped into buckets", Section 2.1); this
    #: is what makes the inherent imbalance of variable-length workloads
    #: visible across ranks.  Requires a dataset with example sizes.
    bucket_by_length: bool = False

    def validate(self) -> None:
        if self.world_size < 1:
            raise ValueError(f"world_size must be >= 1, got {self.world_size}")
        if self.comm_backend is not None:
            from repro.comm.backend import get_backend

            get_backend(self.comm_backend)  # raises ValueError on unknown names
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.global_batch_size < self.world_size:
            raise ValueError(
                f"global_batch_size must be >= world_size "
                f"({self.world_size}), got {self.global_batch_size}"
            )
        if self.global_batch_size % self.world_size:
            raise ValueError(
                f"global_batch_size must be divisible by world_size "
                f"({self.world_size}), got {self.global_batch_size}"
            )
        if self.mode not in VALID_MODES:
            raise ValueError(f"mode must be one of {VALID_MODES}, got {self.mode!r}")
        if self.sync_style not in VALID_SYNC_STYLES:
            raise ValueError(
                f"sync_style must be one of {VALID_SYNC_STYLES}, got {self.sync_style!r}"
            )
        if self.optimizer not in VALID_OPTIMIZERS:
            raise ValueError(
                f"optimizer must be one of {VALID_OPTIMIZERS}, got {self.optimizer!r}"
            )
        if self.mode == "quorum":
            if self.quorum is None or not 1 <= self.quorum <= self.world_size:
                raise ValueError(
                    f"quorum mode requires 1 <= quorum <= {self.world_size}, got {self.quorum}"
                )
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.time_scale < 0:
            raise ValueError(f"time_scale must be non-negative, got {self.time_scale}")
        if self.model_sync_period_epochs is not None and self.model_sync_period_epochs < 1:
            raise ValueError(
                f"model_sync_period_epochs must be >= 1 or None, "
                f"got {self.model_sync_period_epochs}"
            )
        if self.fusion_threshold_bytes != "auto":
            validate_fusion_threshold(self.fusion_threshold_bytes)
        if isinstance(self.pipeline_chunks, str):
            if self.pipeline_chunks != "auto":
                raise ValueError(
                    f"pipeline_chunks must be an integer or 'auto', "
                    f"got {self.pipeline_chunks!r}"
                )
        elif self.pipeline_chunks < 1:
            raise ValueError(
                f"pipeline_chunks must be >= 1 or 'auto', got {self.pipeline_chunks!r}"
            )
        if self.compression is not None:
            from repro.compression import get_codec

            # Raises ValueError on unknown codec names or invalid options.
            get_codec(self.compression)
        if self.sharding not in ("none", "zero1"):
            raise ValueError(
                f"sharding must be 'none' or 'zero1', got {self.sharding!r}"
            )
        if self.sharding == "zero1":
            if self.mode != "sync":
                raise ValueError(
                    f"sharding='zero1' requires mode='sync', got mode={self.mode!r}"
                )

    @property
    def local_batch_size(self) -> int:
        return self.global_batch_size // self.world_size

    @property
    def is_eager(self) -> bool:
        """Whether the configuration runs eager-SGD (any partial collective)."""
        return self.mode in ("solo", "majority", "quorum")

    def describe(self) -> str:
        """One-line description used in experiment reports."""
        if self.mode == "sync":
            variant = f"synch-SGD ({self.sync_style})"
            if self.sharding == "zero1":
                variant += ", zero1"
        else:
            variant = f"eager-SGD ({self.mode})"
            if self.mode == "quorum":
                variant = f"eager-SGD (quorum={self.quorum})"
        backend = f", backend={self.comm_backend}" if self.comm_backend else ""
        codec = ""
        if self.compression is not None:
            from repro.compression import get_codec

            codec = f", compression={get_codec(self.compression).describe()}"
        return (
            f"{variant}, P={self.world_size}{backend}, "
            f"batch={self.global_batch_size}, "
            f"epochs={self.epochs}, imbalance={self.delay_injector.describe()}{codec}"
        )
