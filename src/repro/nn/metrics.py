"""Classification metric: top-k accuracy."""

from __future__ import annotations

import numpy as np


def topk_accuracy(logits: np.ndarray, labels: np.ndarray, k: int = 1) -> float:
    """Fraction of samples whose true label is among the top-k predictions.

    The paper reports top-1 and top-5 train/test accuracy for ResNet-50 on
    ImageNet and for the LSTM on UCF101.
    """
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise ValueError(f"logits must be 2-D (batch, classes), got {logits.shape}")
    batch, num_classes = logits.shape
    if labels.shape != (batch,):
        raise ValueError(f"labels must have shape ({batch},), got {labels.shape}")
    if not 1 <= k <= num_classes:
        raise ValueError(f"k must be in [1, {num_classes}], got {k}")
    if batch == 0:
        return 0.0
    # argpartition gives the top-k columns in O(n) per row.
    topk = np.argpartition(-logits, kth=k - 1, axis=1)[:, :k]
    hits = (topk == labels[:, None]).any(axis=1)
    return float(hits.mean())
