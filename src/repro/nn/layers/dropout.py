"""Inverted dropout."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module
from repro.utils.rng import SeedLike, seeded_rng


class Dropout(Module):
    """Randomly zeroes activations during training (inverted scaling).

    The paper cites dropout as one of the random perturbations deep
    learning already tolerates — the same robustness eager-SGD exploits —
    so the substrate includes it both for fidelity of the models and as a
    knob in robustness tests.
    """

    def __init__(self, rate: float = 0.5, seed: SeedLike = None) -> None:
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng = seeded_rng(seed)
        #: The last training-mode forward's scaling (``1.0`` at rate 0).
        self._mask: np.ndarray | float | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if not self.training:
            self._mask = None
            return x
        if self.rate == 0.0:
            self._mask = 1.0
            return x
        keep = 1.0 - self.rate
        self._mask = (self._rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("Dropout.backward called before a training-mode forward")
        return grad_output * self._mask
