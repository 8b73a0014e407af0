"""Fully connected layer."""

from __future__ import annotations

import numpy as np

from repro.nn import initializers
from repro.nn.module import Module
from repro.utils.rng import SeedLike


class Dense(Module):
    """Affine layer ``y = x W + b``.

    Parameters
    ----------
    in_features, out_features:
        Input/output dimensionality.
    bias:
        Whether to include the additive bias.
    init:
        ``"xavier"`` (default), ``"he"`` or ``"normal"``.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        init: str = "xavier",
        seed: SeedLike = None,
    ) -> None:
        super().__init__()
        if in_features < 1 or out_features < 1:
            raise ValueError("in_features and out_features must be positive")
        self.in_features = in_features
        self.out_features = out_features
        self.use_bias = bias
        if init == "xavier":
            weight = initializers.xavier_uniform(
                (in_features, out_features), in_features, out_features, seed=seed
            )
        elif init == "he":
            weight = initializers.he_normal((in_features, out_features), in_features, seed=seed)
        elif init == "normal":
            weight = initializers.normal((in_features, out_features), std=0.01, seed=seed)
        else:
            raise ValueError(f"unknown init {init!r}")
        self.W = self.add_parameter("W", weight)
        if bias:
            self.b = self.add_parameter("b", initializers.zeros((out_features,)))
        self._input: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x[None, :]
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"Dense expected last dimension {self.in_features}, got {x.shape}"
            )
        self._input = x if self.training else None
        out = x @ self.W.data
        if self.use_bias:
            out = out + self.b.data
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray | None:
        if self._input is None:
            raise RuntimeError("Dense.backward called before forward")
        x = self._input
        grad_output = np.asarray(grad_output, dtype=np.float64)
        # Collapse any leading batch/time dimensions for the weight update.
        x2d = x.reshape(-1, self.in_features)
        g2d = grad_output.reshape(-1, self.out_features)
        self.W.accumulate(np.matmul, x2d.T, g2d)
        if self.use_bias:
            self.b.accumulate(np.sum, g2d, axis=0)
        if not self.needs_input_grad:
            return None
        grad_input = grad_output @ self.W.data.T
        return grad_input.reshape(x.shape)
