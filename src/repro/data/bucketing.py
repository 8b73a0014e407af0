"""Length bucketing for variable-length batches.

"As is standard in variable-length training, videos with similar lengths
are grouped into buckets for performance" (Section 2.1 of the paper).
Bucketing reduces padding waste *within* a batch but leaves the *across*
batch imbalance — long-video batches still take much longer than
short-video ones — which is precisely the imbalance eager-SGD targets.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.utils.rng import SeedLike, seeded_rng


def bucket_by_length(
    lengths: Sequence[float],
    num_buckets: int = 8,
    boundaries: Optional[Sequence[float]] = None,
) -> List[np.ndarray]:
    """Group example indices into buckets of similar length.

    Parameters
    ----------
    lengths:
        Per-example lengths (frames, tokens).
    num_buckets:
        Number of quantile buckets when ``boundaries`` is not given.
    boundaries:
        Explicit right-open bucket boundaries; overrides ``num_buckets``.

    Returns
    -------
    list of arrays
        One index array per non-empty bucket, ordered by increasing length.
    """
    arr = np.asarray(lengths, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(
            f"lengths must be a non-empty 1-D sequence, got shape {arr.shape}"
        )
    if boundaries is None:
        if num_buckets < 1:
            raise ValueError(f"num_buckets must be >= 1, got {num_buckets}")
        quantiles = np.quantile(arr, np.linspace(0, 1, num_buckets + 1)[1:-1])
        boundaries = np.unique(quantiles)
    boundaries = np.asarray(sorted(boundaries), dtype=np.float64)
    assignments = np.searchsorted(boundaries, arr, side="right")
    buckets = []
    for b in range(len(boundaries) + 1):
        idx = np.nonzero(assignments == b)[0]
        if idx.size:
            buckets.append(idx)
    return buckets


class BucketBatchSampler:
    """Yields batches whose examples come from the same length bucket.

    Parameters
    ----------
    lengths:
        Per-example lengths.
    batch_size:
        Number of examples per batch.
    num_buckets:
        Number of quantile buckets.
    shuffle:
        Shuffle within buckets and shuffle the order of batches each epoch.
    drop_last:
        Drop incomplete trailing batches of each bucket.
    """

    def __init__(
        self,
        lengths: Sequence[float],
        batch_size: int,
        num_buckets: int = 8,
        shuffle: bool = True,
        drop_last: bool = False,
        seed: SeedLike = 0,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.lengths = np.asarray(lengths, dtype=np.float64)
        self.batch_size = int(batch_size)
        self.buckets = bucket_by_length(self.lengths, num_buckets=num_buckets)
        self.shuffle = shuffle
        self.drop_last = drop_last
        self.seed = 0 if seed is None else int(seed)

    def epoch_batches(self, epoch: int = 0) -> Iterator[np.ndarray]:
        """Yield index arrays for one epoch."""
        rng = seeded_rng(self.seed + epoch)
        batches: List[np.ndarray] = []
        for bucket in self.buckets:
            order = rng.permutation(bucket) if self.shuffle else bucket
            for start in range(0, len(order), self.batch_size):
                chunk = order[start : start + self.batch_size]
                if len(chunk) < self.batch_size and self.drop_last:
                    continue
                batches.append(chunk)
        if self.shuffle:
            rng.shuffle(batches)
        yield from batches

    def __iter__(self) -> Iterator[np.ndarray]:
        return self.epoch_batches(0)

    def batch_lengths(self, epoch: int = 0) -> np.ndarray:
        """Total length of each batch (proxy for its compute cost)."""
        return np.array(
            [float(self.lengths[batch].sum()) for batch in self.epoch_batches(epoch)]
        )
