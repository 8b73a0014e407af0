"""UCF101-like synthetic video-feature dataset (Sections 2.1 and 6.3).

The paper's video classifier consumes per-frame features extracted by
Inception v3 (a fixed, non-trained preprocessing step) and its training
cost per batch is proportional to the number of frames.  The training set
of UCF101 contains 9,537 videos whose lengths range from 29 to 1,776
frames with a median of 167 and a standard deviation of 97 (Fig. 2a).

:func:`sample_video_lengths` draws synthetic video lengths from a clipped
lognormal distribution calibrated to those statistics, and
:class:`VideoFeatureDataset` attaches class-dependent feature sequences so
that the LSTM classifier has an actual signal to learn while the length
distribution — and hence the inherent load imbalance — matches the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.data.loader import Batch, Dataset
from repro.utils.rng import SeedLike, seeded_rng


@dataclass(frozen=True)
class VideoLengthStats:
    """Reference statistics of the UCF101 training set (Fig. 2a)."""

    num_videos: int = 9_537
    min_frames: int = 29
    max_frames: int = 1_776
    median_frames: int = 167
    std_frames: int = 97
    num_classes: int = 101


#: The statistics quoted in the paper, used to calibrate the sampler.
UCF101_LENGTH_STATS = VideoLengthStats()

#: Lognormal sigma calibrated so that the clipped distribution's standard
#: deviation is close to the paper's 97 frames (see tests).
_LOGNORMAL_SIGMA = 0.50


def sample_video_lengths(
    num_videos: int,
    stats: VideoLengthStats = UCF101_LENGTH_STATS,
    seed: SeedLike = None,
    scale: float = 1.0,
) -> np.ndarray:
    """Sample video lengths (frame counts) matching the paper's distribution.

    Parameters
    ----------
    scale:
        Multiplies all lengths (and the clip bounds); scaled-down datasets
        for CPU experiments use e.g. ``scale=0.1`` to keep the *relative*
        spread while shortening sequences.
    """
    if num_videos < 1:
        raise ValueError(f"num_videos must be positive, got {num_videos}")
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    rng = seeded_rng(seed)
    mu = math.log(stats.median_frames)
    raw = rng.lognormal(mean=mu, sigma=_LOGNORMAL_SIGMA, size=num_videos)
    clipped = np.clip(raw, stats.min_frames, stats.max_frames)
    lengths = np.maximum(1, np.round(clipped * scale)).astype(np.int64)
    return lengths


class VideoFeatureDataset(Dataset):
    """Synthetic per-frame feature sequences with UCF101's length profile.

    Each class has a fixed feature direction; every frame of a video of
    that class is the class direction plus temporal noise, so a classifier
    that aggregates frames (the LSTM) can learn the label.  Feature
    sequences are generated lazily per batch from the per-video seeds,
    keeping memory proportional to the batch rather than to the dataset.

    Parameters
    ----------
    num_videos:
        Number of videos.
    feature_dim:
        Per-frame feature dimensionality (2,048 in the paper; scaled down
        by default).
    num_classes:
        Number of action classes (101 in UCF101).
    length_scale:
        Scale applied to the sampled frame counts (see
        :func:`sample_video_lengths`).
    signal:
        Strength of the class direction relative to unit frame noise.
    """

    def __init__(
        self,
        num_videos: int = 1_000,
        feature_dim: int = 32,
        num_classes: int = 101,
        length_scale: float = 1.0,
        signal: float = 1.5,
        stats: VideoLengthStats = UCF101_LENGTH_STATS,
        seed: SeedLike = None,
    ) -> None:
        if num_videos < 1 or feature_dim < 1 or num_classes < 2:
            raise ValueError(
                f"need num_videos >= 1, feature_dim >= 1 and num_classes >= 2, "
                f"got {num_videos}, {feature_dim} and {num_classes}"
            )
        rng = seeded_rng(seed)
        self.feature_dim = int(feature_dim)
        self.num_classes = int(num_classes)
        self.signal = float(signal)
        self.stats = stats
        self.lengths = sample_video_lengths(num_videos, stats=stats, seed=rng, scale=length_scale)
        self.labels = rng.integers(0, num_classes, size=num_videos)
        self.class_directions = rng.normal(0.0, 1.0, size=(num_classes, feature_dim))
        self.class_directions /= np.linalg.norm(self.class_directions, axis=1, keepdims=True)
        # One independent noise seed per video so batches are reproducible
        # regardless of the order in which they are requested.
        self._video_seeds = rng.integers(0, 2**63 - 1, size=num_videos)

    def __len__(self) -> int:
        return int(self.lengths.size)

    def example_sizes(self) -> np.ndarray:
        """Frame count per video (drives the LSTM cost model)."""
        return self.lengths.copy()

    def frame_counts(self) -> np.ndarray:
        """Alias of :meth:`example_sizes`, named as in Fig. 2a."""
        return self.lengths.copy()

    def _video_features(self, index: int) -> np.ndarray:
        rng = seeded_rng(int(self._video_seeds[index]))
        length = int(self.lengths[index])
        base = self.class_directions[self.labels[index]] * self.signal
        noise = rng.normal(0.0, 1.0, size=(length, self.feature_dim))
        return base[None, :] + noise

    def get_batch(self, indices: Sequence[int]) -> Batch:
        idx = np.asarray(indices, dtype=np.int64)
        lengths = self.lengths[idx]
        max_len = int(lengths.max())
        x = np.zeros((idx.size, max_len, self.feature_dim))
        for row, video_index in enumerate(idx):
            feats = self._video_features(int(video_index))
            x[row, : feats.shape[0], :] = feats
        return Batch(
            inputs={"x": x, "lengths": lengths},
            targets=self.labels[idx],
            indices=idx,
            size_hint=float(lengths.sum()),
        )
