"""LSTM sequence classifier (the UCF101 video model of Section 6.3).

The paper's video classifier extracts a 2,048-wide feature per frame with
Inception v3 and feeds the sequence of features into a 2,048-wide
single-layer LSTM followed by a classifier over 101 action classes.  The
Inception feature extraction is a fixed preprocessing step (its time is
explicitly excluded from the paper's measurements), so the reproduction
generates synthetic per-frame feature sequences directly
(:mod:`repro.data.ucf101`) and this model implements the trainable part:
``LSTM -> Dense`` over the final hidden state.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.nn.layers import LSTM, Dense, Dropout
from repro.nn.module import Module
from repro.utils.rng import SeedLike, seeded_rng


class SequenceLSTMClassifier(Module):
    """Single-layer LSTM over per-frame features + linear classifier.

    Batches are dictionaries ``{"x": (B, T, D) float array, "lengths":
    (B,) int array}``; padding beyond each sequence's length is masked by
    the LSTM so padded frames contribute nothing.
    """

    def __init__(
        self,
        feature_dim: int = 64,
        hidden_dim: int = 64,
        num_classes: int = 101,
        dropout: float = 0.0,
        seed: SeedLike = None,
    ) -> None:
        super().__init__()
        rng = seeded_rng(seed)
        self.feature_dim = feature_dim
        self.hidden_dim = hidden_dim
        self.num_classes = num_classes
        self.lstm = LSTM(feature_dim, hidden_dim, return_sequences=False, seed=rng)
        self.dropout = Dropout(dropout, seed=rng) if dropout > 0 else None
        self.head = Dense(hidden_dim, num_classes, seed=rng)

    def _entry_modules(self) -> Tuple[Module, ...]:
        return (self.lstm,)

    def forward(self, batch: Union[np.ndarray, Dict[str, np.ndarray]]) -> np.ndarray:
        if isinstance(batch, dict):
            x = batch["x"]
            lengths = batch.get("lengths")
        else:
            x, lengths = batch, None
        h = self.lstm.forward(np.asarray(x, dtype=np.float64), lengths=lengths)
        if self.dropout is not None:
            h = self.dropout(h)
        return self.head(h)

    def backward(self, grad_output: np.ndarray) -> Optional[np.ndarray]:
        g = self.head.backward(grad_output)
        if self.dropout is not None:
            g = self.dropout.backward(g)
        return self.lstm.backward(g)
