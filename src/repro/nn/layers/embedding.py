"""Token embedding layer."""

from __future__ import annotations

import numpy as np

from repro.nn import initializers
from repro.nn.module import Module
from repro.utils.rng import SeedLike


class Embedding(Module):
    """Lookup table mapping integer token ids to dense vectors.

    Input: integer array of shape ``(batch, seq_len)``; output
    ``(batch, seq_len, dim)``.  Used by the tiny Transformer that models
    the WMT-style variable-length language workload.
    """

    def __init__(self, vocab_size: int, dim: int, seed: SeedLike = None) -> None:
        super().__init__()
        if vocab_size < 1 or dim < 1:
            raise ValueError("vocab_size and dim must be positive")
        self.vocab_size = vocab_size
        self.dim = dim
        self.W = self.add_parameter(
            "W", initializers.normal((vocab_size, dim), std=0.02, seed=seed)
        )
        self._tokens: np.ndarray | None = None

    def forward(self, tokens: np.ndarray) -> np.ndarray:
        tokens = np.asarray(tokens)
        if not np.issubdtype(tokens.dtype, np.integer):
            raise TypeError(f"Embedding expects integer token ids, got {tokens.dtype}")
        if tokens.min(initial=0) < 0 or tokens.max(initial=0) >= self.vocab_size:
            raise ValueError("token id out of range")
        self._tokens = tokens if self.training else None
        return self.W.data[tokens]

    def backward(self, grad_output: np.ndarray) -> np.ndarray | None:
        if self._tokens is None:
            raise RuntimeError("Embedding.backward called before forward")
        g = np.asarray(grad_output, dtype=np.float64)
        np.add.at(self.W.grad, self._tokens, g)
        if not self.needs_input_grad:
            return None
        # Token ids are not differentiable; return a zero gradient with the
        # input's shape so containers can keep chaining.
        return np.zeros(self._tokens.shape, dtype=np.float64)
