"""Configuration of the online serving tier."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.training.config import TrainingConfig
from repro.training.preset import PRESET

#: The fields of the trainers' :class:`TrainingConfig` that the serving
#: layout owns: the trainer count and the world's backend.
LAYOUT_OWNED = ("world_size", "comm_backend")


@dataclass
class ServingConfig:
    """Configuration of one serving world.

    The world has ``train_ranks + replicas + 1`` ranks on the configured
    comm backend: ranks ``[0, train_ranks)`` run ``training`` (synch- or
    eager-SGD, through the runner's rank loop) and publish weight
    versions, ranks ``[train_ranks, train_ranks + replicas)`` are model
    replicas, and the last rank is the frontend (dynamic batcher +
    router + response collector).

    Attributes
    ----------
    replicas:
        Number of model replicas serving inference batches.
    train_ranks:
        Ranks of the co-scheduled training world (0 = serve-only: the
        replicas keep version 0 forever).
    comm_backend:
        Registered comm backend carrying the world (``"thread"`` for
        tests and the in-process :class:`~repro.serving.InferenceServer`
        handle, ``"process"`` / ``"shm"`` for real concurrency).  ``None``
        uses the process-wide default.
    max_batch_size:
        Most requests the frontend fuses into one inference batch.
    max_queue_delay_s:
        Longest a queued request may wait for batch-mates before the
        batch is dispatched anyway — the batching half of the latency
        SLO.  With ``max_batch_size`` it defines the batching policy:
        dispatch at ``max_batch_size`` requests or ``max_queue_delay_s``
        seconds, whichever comes first.
    max_queue_depth:
        Admission-control bound: once this many requests are queued
        (not yet dispatched), further submissions fail fast with
        :class:`~repro.serving.BackpressureError` instead of growing the
        queue without bound.
    max_staleness_versions:
        Bounded-staleness knob ``K``: a replica refuses to serve once the
        latest *announced* model version is more than ``K`` versions
        ahead of the version it has applied.  ``None`` disables the
        refusal (serve whatever is loaded).
    request_timeout_s:
        How long a client waits for its response future.
    publish_every_steps:
        The training world publishes full weights to every replica each
        time its monotonic step counter advances by this many steps.
    announce_every_steps:
        The training world announces the *existence* of new versions at
        this (usually finer) period; announcements are what the
        bounded-staleness check compares against.
    train_steps:
        Global batches per epoch of the trainers' data
        (:func:`~repro.training.preset.preset_workload`); every step is
        one model version.
    training:
        The trainers' run through the runner's rank loop (mode, sharding,
        codec, fusion, optimizer, global batch; its seed also seeds the
        replicas' model and the requests).  Its :data:`LAYOUT_OWNED`
        fields are :meth:`at_layout`'s — ``max(1, train_ranks)`` and
        ``comm_backend`` — and :meth:`validate` refuses others.  ``None``:
        ``PRESET`` at the layout.
    """

    replicas: int = 2
    train_ranks: int = 0
    comm_backend: Optional[str] = None
    max_batch_size: int = 8
    max_queue_delay_s: float = 0.005
    max_queue_depth: int = 256
    max_staleness_versions: Optional[int] = None
    request_timeout_s: float = 30.0
    publish_every_steps: int = 5
    announce_every_steps: int = 1
    train_steps: int = 50
    training: Optional[TrainingConfig] = None

    def __post_init__(self) -> None:
        if self.training is None:
            self.training = self.at_layout(PRESET)

    def at_layout(self, training: TrainingConfig) -> TrainingConfig:
        """``training`` with the fields this layout owns set to its own: the
        world's backend, but on ``hier`` the default, as the trainers' view
        exposes no host layout and runs as one host."""
        backend = None if self.comm_backend == "hier" else self.comm_backend
        return replace(training, world_size=max(1, self.train_ranks), comm_backend=backend)

    # ------------------------------------------------------------ layout
    @property
    def world_size(self) -> int:
        return self.train_ranks + self.replicas + 1

    @property
    def trainer_ranks(self) -> range:
        """Global ranks of the co-scheduled training world."""
        return range(0, self.train_ranks)

    @property
    def replica_ranks(self) -> range:
        """Global ranks of the replica pool."""
        return range(self.train_ranks, self.train_ranks + self.replicas)

    @property
    def frontend_rank(self) -> int:
        """Global rank of the frontend."""
        return self.train_ranks + self.replicas

    @property
    def publisher_rank(self) -> Optional[int]:
        """Global rank publishing weight versions (``None`` = serve-only)."""
        return 0 if self.train_ranks else None

    # -------------------------------------------------------- validation
    def validate(self) -> None:
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {self.replicas}")
        if self.train_ranks < 0:
            raise ValueError(f"train_ranks must be >= 0, got {self.train_ranks}")
        if self.max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {self.max_batch_size}")
        if self.max_queue_delay_s < 0:
            raise ValueError(
                f"max_queue_delay_s must be >= 0, got {self.max_queue_delay_s}"
            )
        if self.max_queue_depth < 1:
            raise ValueError(f"max_queue_depth must be >= 1, got {self.max_queue_depth}")
        if self.max_staleness_versions is not None and self.max_staleness_versions < 0:
            raise ValueError(
                f"max_staleness_versions must be >= 0 or None, "
                f"got {self.max_staleness_versions}"
            )
        if self.request_timeout_s <= 0:
            raise ValueError(
                f"request_timeout_s must be > 0, got {self.request_timeout_s}"
            )
        if self.publish_every_steps < 1:
            raise ValueError(
                f"publish_every_steps must be >= 1, got {self.publish_every_steps}"
            )
        if self.announce_every_steps < 1:
            raise ValueError(
                f"announce_every_steps must be >= 1, got {self.announce_every_steps}"
            )
        if self.train_steps < 1:
            raise ValueError(f"train_steps must be >= 1, got {self.train_steps}")
        owned = self.at_layout(self.training)
        if owned != self.training:
            raise ValueError(
                f"training.world_size / training.comm_backend are the layout's "
                f"({owned.world_size} / {owned.comm_backend!r}), got "
                f"{self.training.world_size} / {self.training.comm_backend!r}"
            )
        self.training.validate()

    def describe(self) -> str:
        """One-line description used in reports."""
        backend = f", backend={self.comm_backend}" if self.comm_backend else ""
        train = (
            f", train_ranks={self.train_ranks} ({self.training.mode}, publish every "
            f"{self.publish_every_steps} steps)"
            if self.train_ranks
            else ", serve-only"
        )
        staleness = (
            f", K={self.max_staleness_versions}"
            if self.max_staleness_versions is not None
            else ""
        )
        return (
            f"serving: {self.replicas} replica(s){train}{backend}, "
            f"batch<= {self.max_batch_size}, delay<= {self.max_queue_delay_s * 1e3:.1f} ms, "
            f"queue<= {self.max_queue_depth}{staleness}"
        )
