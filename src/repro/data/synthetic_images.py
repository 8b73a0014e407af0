"""Synthetic image-classification datasets (CIFAR-like, ImageNet-like).

Each class is a Gaussian cluster in pixel space: a fixed per-class
template image plus per-sample noise.  The signal-to-noise ratio controls
how quickly the small ResNets reach high accuracy, which lets the
time-to-accuracy experiments (Figs. 11 and 12) run in CPU-scale time while
preserving the comparison the paper makes (synch-SGD vs eager-SGD reaching
equivalent accuracy, solo losing accuracy under severe imbalance).

Because every sample has the same shape, the per-batch workload is
balanced — exactly like ResNet training in the paper, where the imbalance
comes from the *system* (Section 2.3) rather than from the data.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.data.loader import Batch, Dataset
from repro.utils.rng import SeedLike, seeded_rng


class ImageClassificationDataset(Dataset):
    """Gaussian-cluster image classification.

    Parameters
    ----------
    num_examples:
        Total number of images.
    num_classes:
        Number of classes (10 for CIFAR-like, configurable for
        ImageNet-like).
    image_shape:
        ``(channels, height, width)``.
    signal:
        Scale of the class template relative to unit noise; larger means
        an easier problem.
    """

    def __init__(
        self,
        num_examples: int = 2_000,
        num_classes: int = 10,
        image_shape: Tuple[int, int, int] = (3, 8, 8),
        signal: float = 2.0,
        seed: SeedLike = None,
    ) -> None:
        if num_examples < num_classes:
            raise ValueError("need at least one example per class")
        rng = seeded_rng(seed)
        self.num_classes = int(num_classes)
        self.image_shape = tuple(image_shape)
        self.signal = float(signal)
        #: Per-class template images (the cluster means).
        self.templates = rng.normal(0.0, 1.0, size=(num_classes, *image_shape)) * signal
        self.labels = rng.integers(0, num_classes, size=num_examples)
        noise = rng.normal(0.0, 1.0, size=(num_examples, *image_shape))
        self.images = self.templates[self.labels] + noise

    def __len__(self) -> int:
        return self.images.shape[0]

    def get_batch(self, indices: Sequence[int]) -> Batch:
        idx = np.asarray(indices, dtype=np.int64)
        return Batch(inputs=self.images[idx], targets=self.labels[idx], indices=idx)


def cifar10_like(
    num_examples: int = 2_000,
    image_size: int = 8,
    signal: float = 2.0,
    seed: SeedLike = None,
) -> ImageClassificationDataset:
    """A CIFAR-10-like dataset: 10 classes, 3-channel square images."""
    return ImageClassificationDataset(
        num_examples=num_examples,
        num_classes=10,
        image_shape=(3, image_size, image_size),
        signal=signal,
        seed=seed,
    )


def imagenet_like(
    num_examples: int = 4_000,
    num_classes: int = 100,
    image_size: int = 16,
    signal: float = 3.0,
    seed: SeedLike = None,
) -> ImageClassificationDataset:
    """An ImageNet-like dataset: many classes, larger images."""
    return ImageClassificationDataset(
        num_examples=num_examples,
        num_classes=num_classes,
        image_shape=(3, image_size, image_size),
        signal=signal,
        seed=seed,
    )
