"""Dataset protocol and the per-rank sharded loader.

Data-parallel SGD partitions every global batch across the ranks: with a
global batch size ``B`` and ``P`` processes, each rank processes ``B/P``
samples per step (Algorithm 2 uses the local batch size ``b``).  The
:class:`ShardedLoader` implements that partitioning deterministically so
all ranks agree on the global sample order while touching disjoint shards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.utils.rng import SeedLike, rank_seed, seeded_rng


@dataclass
class Batch:
    """One batch of examples.

    Attributes
    ----------
    inputs:
        Model inputs: an array, or a dict of arrays for sequence models
        (``{"x": ..., "lengths": ...}`` / ``{"tokens": ..., "lengths": ...}``).
    targets:
        Regression targets or integer class labels.
    indices:
        Dataset indices of the examples in the batch.
    size_hint:
        Workload proxy for cost models (e.g. total number of frames or
        tokens in the batch); ``None`` for fixed-cost datasets.
    """

    inputs: Any
    targets: np.ndarray
    indices: np.ndarray
    size_hint: Optional[float] = None

    def __len__(self) -> int:
        return int(len(self.indices))


class Dataset:
    """Base class for synthetic datasets.

    Subclasses implement :meth:`__len__` and :meth:`get_batch`; datasets
    whose examples have a meaningful "length" (frames, tokens) also
    override :meth:`example_sizes` so that bucketing samplers and cost
    models can use it.
    """

    def __len__(self) -> int:
        raise NotImplementedError

    def get_batch(self, indices: Sequence[int]) -> Batch:
        raise NotImplementedError

    def example_sizes(self) -> Optional[np.ndarray]:
        """Per-example workload proxy (``None`` when cost is uniform)."""
        return None

    def split(
        self, validation_fraction: float = 0.2, seed: SeedLike = 0
    ) -> Tuple["DatasetView", "DatasetView"]:
        """Train/validation views over one seeded permutation (no copies)."""
        if not 0.0 < validation_fraction < 1.0:
            raise ValueError(
                f"validation_fraction must be in (0, 1), got {validation_fraction!r}"
            )
        perm = seeded_rng(seed).permutation(len(self))
        n_val = int(len(self) * validation_fraction)
        return DatasetView(self, perm[n_val:]), DatasetView(self, perm[:n_val])


class DatasetView(Dataset):
    """The examples of ``base`` at ``indices``, re-indexed from zero."""

    def __init__(self, base: Dataset, indices: np.ndarray) -> None:
        self.base = base
        self.indices = np.asarray(indices, dtype=np.int64)

    def __len__(self) -> int:
        return int(self.indices.size)

    def get_batch(self, indices: Sequence[int]) -> Batch:
        return self.base.get_batch(self.indices[np.asarray(indices, dtype=np.int64)])

    def example_sizes(self) -> Optional[np.ndarray]:
        sizes = self.base.example_sizes()
        return None if sizes is None else sizes[self.indices]


class ShardedLoader:
    """Deterministic per-rank loader over a shared dataset.

    Every epoch draws one global permutation (identical on all ranks, from
    the shared seed + epoch number) and splits it into global batches of
    ``global_batch_size``; each rank takes its contiguous slice of every
    global batch.  This mirrors how Horovod/Deep500 shard a global batch
    and keeps the number of steps identical across ranks — a requirement
    of the partial collectives (every rank joins every round).

    Parameters
    ----------
    dataset:
        The shared dataset.
    global_batch_size:
        Total batch size across all ranks (Table 1's "Batch size").
    rank, world_size:
        This rank's position.
    seed:
        Shared shuffling seed.
    drop_last:
        Drop the trailing incomplete global batch (default true so every
        rank always has the same number of steps per epoch).
    """

    def __init__(
        self,
        dataset: Dataset,
        global_batch_size: int,
        rank: int = 0,
        world_size: int = 1,
        seed: SeedLike = 0,
        shuffle: bool = True,
        drop_last: bool = True,
        bucket_by_length: bool = False,
        num_buckets: int = 8,
    ) -> None:
        if global_batch_size < world_size:
            raise ValueError(
                f"global batch size {global_batch_size} smaller than world size {world_size}"
            )
        if global_batch_size % world_size:
            raise ValueError(
                f"global batch size {global_batch_size} must be divisible by "
                f"world size {world_size}"
            )
        if not 0 <= rank < world_size:
            raise ValueError(f"rank {rank} out of range for world size {world_size}")
        self.dataset = dataset
        self.global_batch_size = int(global_batch_size)
        self.local_batch_size = self.global_batch_size // int(world_size)
        self.rank = int(rank)
        self.world_size = int(world_size)
        self.seed = 0 if seed is None else seed
        self.shuffle = shuffle
        self.drop_last = drop_last
        self.bucket_by_length = bucket_by_length
        self.num_buckets = int(num_buckets)
        if bucket_by_length and dataset.example_sizes() is None:
            raise ValueError(
                "bucket_by_length=True requires a dataset with example_sizes()"
            )

    # ------------------------------------------------------------------
    def steps_per_epoch(self) -> int:
        n = len(self.dataset)
        if self.bucket_by_length:
            # Independent per-rank pipelines over static shards: every rank
            # owns n // world_size examples and draws local batches from
            # its own length buckets (the Horovod-style input pipeline the
            # paper describes).  All ranks run the same number of steps.
            shard = n // self.world_size
            return shard // self.local_batch_size
        if self.drop_last:
            return n // self.global_batch_size
        return int(np.ceil(n / self.global_batch_size))

    def _epoch_permutation(self, epoch: int) -> np.ndarray:
        n = len(self.dataset)
        if not self.shuffle:
            return np.arange(n)
        rng = seeded_rng(rank_seed(int(self.seed), 0, stream=epoch))
        return rng.permutation(n)

    def _rank_shard(self) -> np.ndarray:
        """Static per-rank shard (identical across epochs)."""
        n = len(self.dataset)
        rng = seeded_rng(rank_seed(int(self.seed), 0, stream=10_000))
        perm = rng.permutation(n) if self.shuffle else np.arange(n)
        shard_size = n // self.world_size
        start = self.rank * shard_size
        return perm[start : start + shard_size]

    def _bucketed_batches(self, epoch: int) -> Iterator[Batch]:
        from repro.data.bucketing import BucketBatchSampler  # local import: avoid cycle

        shard = self._rank_shard()
        sizes = self.dataset.example_sizes()
        sampler = BucketBatchSampler(
            sizes[shard],
            batch_size=self.local_batch_size,
            num_buckets=self.num_buckets,
            shuffle=self.shuffle,
            drop_last=True,
            seed=rank_seed(int(self.seed), self.rank, stream=20_000),
        )
        steps = self.steps_per_epoch()
        produced = 0
        for local_positions in sampler.epoch_batches(epoch):
            if produced >= steps:
                break
            yield self.dataset.get_batch(shard[local_positions])
            produced += 1
        # If bucketing produced fewer full batches than the agreed step
        # count (possible when drop_last trims several buckets), pad with
        # re-drawn batches so every rank still runs the same number of
        # steps — a hard requirement of the partial collectives.
        rng = seeded_rng(rank_seed(int(self.seed), self.rank, stream=30_000 + epoch))
        while produced < steps:
            extra = rng.choice(shard, size=self.local_batch_size, replace=False)
            yield self.dataset.get_batch(extra)
            produced += 1

    def epoch_batches(self, epoch: int) -> Iterator[Batch]:
        """Yield this rank's batches for the given epoch."""
        if self.bucket_by_length:
            yield from self._bucketed_batches(epoch)
            return
        perm = self._epoch_permutation(epoch)
        steps = self.steps_per_epoch()
        for step in range(steps):
            start = step * self.global_batch_size
            global_indices = perm[start : start + self.global_batch_size]
            if len(global_indices) < self.global_batch_size and self.drop_last:
                break
            lo = self.rank * self.local_batch_size
            hi = lo + self.local_batch_size
            local = global_indices[lo:hi]
            if len(local) == 0:
                break
            yield self.dataset.get_batch(local)

    def __iter__(self) -> Iterator[Batch]:
        return self.epoch_batches(0)
