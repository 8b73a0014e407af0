"""Hyperplane-regression dataset (Section 6.2.1 of the paper).

The paper generates training and validation data for an 8,192-dimensional
hyperplane ``y = a0*x0 + a1*x1 + ... + a8191*x8191 + noise`` and fits a
one-layer MLP to recover the coefficients.  The dataset here follows that
construction with configurable dimensionality and size so that tests use
tiny instances while the Fig. 10 benchmark uses the paper's shapes
(scaled as needed).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.data.loader import Batch, Dataset
from repro.utils.rng import SeedLike, seeded_rng


class HyperplaneDataset(Dataset):
    """Noisy samples from a random hyperplane.

    Parameters
    ----------
    num_examples:
        Number of samples (the paper uses 32,768 training points).
    input_dim:
        Dimensionality of the hyperplane (the paper uses 8,192).
    noise_std:
        Standard deviation of the additive label noise.
    coefficient_scale:
        The true coefficients are drawn uniformly from
        ``[-coefficient_scale, +coefficient_scale]``.
    """

    def __init__(
        self,
        num_examples: int = 32_768,
        input_dim: int = 8_192,
        noise_std: float = 1.0,
        coefficient_scale: float = 1.0,
        seed: SeedLike = None,
    ) -> None:
        if num_examples < 1 or input_dim < 1:
            raise ValueError(
                f"num_examples and input_dim must be positive, "
                f"got {num_examples} and {input_dim}"
            )
        if noise_std < 0:
            raise ValueError(f"noise_std must be non-negative, got {noise_std}")
        rng = seeded_rng(seed)
        self.input_dim = int(input_dim)
        self.noise_std = float(noise_std)
        #: The ground-truth hyperplane coefficients the model should recover.
        self.coefficients = rng.uniform(-coefficient_scale, coefficient_scale, size=input_dim)
        self.intercept = float(rng.uniform(-coefficient_scale, coefficient_scale))
        # Inputs are kept small (standard normal / sqrt(dim)) so that the
        # labels have O(1) scale regardless of the dimensionality.
        self.x = rng.normal(0.0, 1.0 / np.sqrt(input_dim), size=(num_examples, input_dim))
        clean = self.x @ self.coefficients + self.intercept
        self.y = (clean + rng.normal(0.0, noise_std, size=num_examples))[:, None]

    def __len__(self) -> int:
        return self.x.shape[0]

    def get_batch(self, indices: Sequence[int]) -> Batch:
        idx = np.asarray(indices, dtype=np.int64)
        return Batch(inputs=self.x[idx], targets=self.y[idx], indices=idx)
