"""A tiny Transformer classifier over variable-length token sequences.

Stand-in for the WMT16 Transformer of Section 2.2: its per-batch cost
grows with the sentence length, giving the same inherent load imbalance,
and it exercises embedding, self-attention and layer-norm code paths.  The
classification head (predicting a sequence-level label) keeps the training
loop identical to the other models while remaining differentiable end to
end.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.nn.layers import Dense, Embedding, TransformerEncoderBlock
from repro.nn.layers.norm import LayerNorm
from repro.nn.module import Module
from repro.utils.rng import SeedLike, seeded_rng


def sinusoidal_positions(length: int, dim: int) -> np.ndarray:
    """Classic sinusoidal position encoding of shape ``(length, dim)``."""
    positions = np.arange(length)[:, None].astype(np.float64)
    dims = np.arange(dim)[None, :].astype(np.float64)
    angle_rates = 1.0 / np.power(10000.0, (2 * (dims // 2)) / dim)
    angles = positions * angle_rates
    encoding = np.zeros((length, dim))
    encoding[:, 0::2] = np.sin(angles[:, 0::2])
    encoding[:, 1::2] = np.cos(angles[:, 1::2])
    return encoding


class TransformerClassifier(Module):
    """Embedding -> N encoder blocks -> masked mean pooling -> Dense.

    Batches are dictionaries ``{"tokens": (B, T) int array, "lengths":
    (B,) int array, "label": ...}``; positions beyond a sequence's length
    are masked both in attention and in the mean pooling.
    """

    def __init__(
        self,
        vocab_size: int = 256,
        dim: int = 32,
        num_heads: int = 4,
        num_layers: int = 2,
        num_classes: int = 10,
        max_len: int = 512,
        seed: SeedLike = None,
    ) -> None:
        super().__init__()
        rng = seeded_rng(seed)
        self.dim = dim
        self.max_len = max_len
        self.embedding = Embedding(vocab_size, dim, seed=rng)
        self._block_names: List[str] = []
        for i in range(num_layers):
            name = f"block{i}"
            self.add_module(name, TransformerEncoderBlock(dim, num_heads, seed=rng))
            self._block_names.append(name)
        self.final_norm = LayerNorm(dim)
        self.head = Dense(dim, num_classes, seed=rng)
        self._positions = sinusoidal_positions(max_len, dim)
        self._cache = None

    @property
    def blocks(self) -> List[TransformerEncoderBlock]:
        return [getattr(self, name) for name in self._block_names]

    def _entry_modules(self) -> Tuple[Module, ...]:
        return (self.embedding,)

    def forward(self, batch: Union[np.ndarray, Dict[str, np.ndarray]]) -> np.ndarray:
        if isinstance(batch, dict):
            tokens = np.asarray(batch["tokens"])
            lengths = batch.get("lengths")
        else:
            tokens = np.asarray(batch)
            lengths = None
        if tokens.ndim != 2:
            raise ValueError(f"tokens must be (batch, time), got {tokens.shape}")
        b, t = tokens.shape
        if t > self.max_len:
            raise ValueError(f"sequence length {t} exceeds max_len {self.max_len}")
        if lengths is None:
            lengths = np.full(b, t, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        mask = np.arange(t)[None, :] < lengths[:, None]

        x = self.embedding(tokens) + self._positions[:t]
        for block in self.blocks:
            x = block.forward(x, mask=mask)
        x = self.final_norm(x)
        # Masked mean pooling over valid positions.
        mask_f = mask.astype(np.float64)[:, :, None]
        denom = np.maximum(mask_f.sum(axis=1), 1.0)
        pooled = (x * mask_f).sum(axis=1) / denom
        self._cache = (mask_f, denom) if self.training else None
        return self.head(pooled)

    def backward(self, grad_output: np.ndarray) -> Optional[np.ndarray]:
        if self._cache is None:
            raise RuntimeError("TransformerClassifier.backward called before forward")
        mask_f, denom = self._cache
        g_pooled = self.head.backward(np.asarray(grad_output, dtype=np.float64))
        g_x = (g_pooled[:, None, :] / denom[:, None, :]) * mask_f
        g_x = self.final_norm.backward(g_x)
        for block in reversed(self.blocks):
            g_x = block.backward(g_x)
        return self.embedding.backward(g_x)
