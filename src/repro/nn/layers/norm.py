"""Batch normalisation."""

from __future__ import annotations

import numpy as np

from repro.nn import initializers
from repro.nn.module import Module


class BatchNorm(Module):
    """Batch normalisation over the channel dimension.

    Works for both dense activations ``(batch, features)`` and
    convolutional activations ``(batch, channels, height, width)``; the
    statistics are computed per feature/channel over all remaining axes.
    Running statistics are tracked for evaluation mode.
    """

    def __init__(self, num_features: int, momentum: float = 0.9, eps: float = 1e-5) -> None:
        super().__init__()
        if num_features < 1:
            raise ValueError(f"num_features must be positive, got {num_features}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = self.add_parameter("gamma", initializers.ones((num_features,)))
        self.beta = self.add_parameter("beta", initializers.zeros((num_features,)))
        # Running statistics are state, not parameters: they are averaged
        # by the periodic model synchronisation but never receive gradients.
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)
        self._cache = None

    # ------------------------------------------------------------ helpers
    @staticmethod
    def _reduce_axes(x: np.ndarray) -> tuple:
        if x.ndim == 2:
            return (0,)
        if x.ndim == 4:
            return (0, 2, 3)
        raise ValueError(f"BatchNorm expects 2-D or 4-D inputs, got shape {x.shape}")

    def _broadcast(self, v: np.ndarray, ndim: int) -> np.ndarray:
        if ndim == 2:
            return v[None, :]
        return v[None, :, None, None]

    # ------------------------------------------------------------ forward
    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        axes = self._reduce_axes(x)
        channel_axis = 1 if x.ndim == 4 else 1
        if x.shape[channel_axis] != self.num_features:
            raise ValueError(
                f"BatchNorm expected {self.num_features} features, got {x.shape}"
            )
        if self.training:
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            self.running_mean = self.momentum * self.running_mean + (1 - self.momentum) * mean
            self.running_var = self.momentum * self.running_var + (1 - self.momentum) * var
        else:
            mean = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - self._broadcast(mean, x.ndim)) * self._broadcast(inv_std, x.ndim)
        out = self._broadcast(self.gamma.data, x.ndim) * x_hat + self._broadcast(
            self.beta.data, x.ndim
        )
        self._cache = (x_hat, inv_std, axes, x.ndim) if self.training else None
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("BatchNorm.backward called before a training-mode forward")
        x_hat, inv_std, axes, ndim = self._cache
        g = np.asarray(grad_output, dtype=np.float64)
        self.gamma.grad += (g * x_hat).sum(axis=axes)
        self.beta.grad += g.sum(axis=axes)
        gamma_b = self._broadcast(self.gamma.data, ndim)
        inv_std_b = self._broadcast(inv_std, ndim)
        # Standard batch-norm backward: account for the dependence of the
        # batch statistics on every element.
        g_xhat = g * gamma_b
        mean_g = self._broadcast(g_xhat.mean(axis=axes), ndim)
        mean_gx = self._broadcast((g_xhat * x_hat).mean(axis=axes), ndim)
        return inv_std_b * (g_xhat - mean_g - x_hat * mean_gx)

    # ------------------------------------------------------------- state
    def state_arrays(self) -> dict:
        """Non-trainable state that periodic model sync should average."""
        return {"running_mean": self.running_mean, "running_var": self.running_var}
