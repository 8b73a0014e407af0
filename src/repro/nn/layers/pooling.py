"""Spatial pooling layers for ``(batch, channels, height, width)`` inputs."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module


class GlobalAvgPool2D(Module):
    """Average over the spatial dimensions, returning ``(batch, channels)``."""

    def __init__(self) -> None:
        super().__init__()
        self._input_shape = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 4:
            raise ValueError(f"GlobalAvgPool2D expects 4-D input, got {x.shape}")
        self._input_shape = x.shape if self.training else None
        return x.mean(axis=(2, 3))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise RuntimeError("GlobalAvgPool2D.backward called before forward")
        b, c, h, w = self._input_shape
        g = np.asarray(grad_output, dtype=np.float64) / (h * w)
        return np.broadcast_to(g[:, :, None, None], (b, c, h, w)).copy()
