"""Loss functions.

Losses compute both the scalar loss value and the gradient with respect to
the model output; the gradient is what the training loop feeds into the
model's backward pass.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


class MSELoss:
    """Mean squared error, as used by the hyperplane-regression experiment.

    The loss is averaged over the batch and summed over output features,
    matching the "validation loss around 4.7" scale reported for the
    paper's 8,192-dimensional hyperplane regression.
    """

    def __call__(self, predictions: np.ndarray, targets: np.ndarray) -> Tuple[float, np.ndarray]:
        predictions = np.asarray(predictions, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        if predictions.shape != targets.shape:
            raise ValueError(
                f"prediction shape {predictions.shape} != target shape {targets.shape}"
            )
        batch = predictions.shape[0]
        diff = predictions - targets
        loss = float(np.sum(diff**2) / batch)
        grad = 2.0 * diff / batch
        return loss, grad

    def value(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        """Loss value only (used for validation)."""
        return self(predictions, targets)[0]


class SoftmaxCrossEntropyLoss:
    """Softmax + cross-entropy over integer class labels.

    Optionally applies label smoothing, which the paper's ImageNet recipes
    use; the default of 0 keeps the classic formulation.
    """

    def __init__(self, label_smoothing: float = 0.0) -> None:
        if not 0.0 <= label_smoothing < 1.0:
            raise ValueError(f"label_smoothing must be in [0, 1), got {label_smoothing}")
        self.label_smoothing = label_smoothing

    def __call__(self, logits: np.ndarray, labels: np.ndarray) -> Tuple[float, np.ndarray]:
        logits = np.asarray(logits, dtype=np.float64)
        labels = np.asarray(labels)
        if logits.ndim != 2:
            raise ValueError(f"logits must be 2-D (batch, classes), got {logits.shape}")
        batch, num_classes = logits.shape
        if labels.shape != (batch,):
            raise ValueError(f"labels must have shape ({batch},), got {labels.shape}")
        if not np.issubdtype(labels.dtype, np.integer):
            raise TypeError("labels must be integer class indices")
        if labels.min(initial=0) < 0 or labels.max(initial=0) >= num_classes:
            raise ValueError(
                f"labels must be in [0, {num_classes}), got "
                f"[{labels.min()}, {labels.max()}]"
            )

        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        probs = exp / exp.sum(axis=1, keepdims=True)

        target = np.full_like(probs, self.label_smoothing / num_classes)
        target[np.arange(batch), labels] += 1.0 - self.label_smoothing

        log_probs = shifted - np.log(exp.sum(axis=1, keepdims=True))
        loss = float(-(target * log_probs).sum() / batch)
        grad = (probs - target) / batch
        return loss, grad

    def value(self, logits: np.ndarray, labels: np.ndarray) -> float:
        return self(logits, labels)[0]
