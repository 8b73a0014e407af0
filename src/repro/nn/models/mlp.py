"""Multi-layer perceptrons.

:class:`HyperplaneMLP` is the one-layer MLP of Section 6.2.1: a single
linear unit learning the coefficients of an 8,192-dimensional hyperplane
from noisy samples.  :class:`MLPClassifier` is a generic configurable MLP
used in tests and as a cheap stand-in classifier.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.nn.layers import Dense, ReLU, Sequential
from repro.nn.module import Module
from repro.utils.rng import SeedLike, seeded_rng


class HyperplaneMLP(Module):
    """One-layer linear regressor ``y = x w + b`` (Table 1, first row).

    With ``input_dim=8192`` this has 8,193 parameters, matching the
    "8,193 Parameters" entry of Table 1 exactly.
    """

    def __init__(self, input_dim: int = 8192, seed: SeedLike = None) -> None:
        super().__init__()
        self.input_dim = input_dim
        self.linear = Dense(input_dim, 1, bias=True, init="normal", seed=seed)

    def _entry_modules(self) -> Tuple[Module, ...]:
        return (self.linear,)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if isinstance(x, dict):
            x = x["x"]
        return self.linear(x)

    def backward(self, grad_output: np.ndarray) -> Optional[np.ndarray]:
        return self.linear.backward(grad_output)


class MLPClassifier(Module):
    """A small fully-connected classifier.

    Parameters
    ----------
    input_dim:
        Flattened input dimensionality.
    hidden_dims:
        Sizes of the hidden layers (each followed by ReLU).
    num_classes:
        Number of output classes (logits are returned, no softmax).
    """

    def __init__(
        self,
        input_dim: int,
        hidden_dims: Sequence[int] = (64, 64),
        num_classes: int = 10,
        seed: SeedLike = None,
    ) -> None:
        super().__init__()
        rng = seeded_rng(seed)
        layers = []
        prev = input_dim
        for width in hidden_dims:
            layers.append(Dense(prev, width, init="he", seed=rng))
            layers.append(ReLU())
            prev = width
        layers.append(Dense(prev, num_classes, seed=rng))
        self.net = Sequential(*layers)
        self.num_classes = num_classes

    def _entry_modules(self) -> Tuple[Module, ...]:
        return (self.net,)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if isinstance(x, dict):
            x = x["x"]
        x = np.asarray(x, dtype=np.float64)
        if x.ndim > 2:
            x = x.reshape(x.shape[0], -1)
        return self.net(x)

    def backward(self, grad_output: np.ndarray) -> Optional[np.ndarray]:
        return self.net.backward(grad_output)
