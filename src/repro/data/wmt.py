"""WMT-like sentence lengths (Section 2.2, Fig. 3).

Training a Transformer on WMT16 has a per-batch cost that grows with the
sentence length; the paper uses this as its second example of inherent
load imbalance.  The reproduction samples sentence lengths from a
long-tailed distribution and prices batches of them with a cost model
(:func:`repro.imbalance.cost_model.transformer_wmt_cost_model`); no
Transformer is trained.
"""

from __future__ import annotations

import math

import numpy as np

from repro.utils.rng import SeedLike, seeded_rng

#: Default length distribution parameters: median ~22 tokens with a long
#: tail, clipped to [4, 128] — a standard shape for WMT-style corpora.
DEFAULT_MEDIAN_TOKENS = 22.0
DEFAULT_SIGMA = 0.55
DEFAULT_MIN_TOKENS = 4
DEFAULT_MAX_TOKENS = 128


def sample_sentence_lengths(
    num_sentences: int,
    median_tokens: float = DEFAULT_MEDIAN_TOKENS,
    sigma: float = DEFAULT_SIGMA,
    min_tokens: int = DEFAULT_MIN_TOKENS,
    max_tokens: int = DEFAULT_MAX_TOKENS,
    seed: SeedLike = None,
) -> np.ndarray:
    """Sample sentence lengths from a clipped lognormal distribution."""
    if num_sentences < 1:
        raise ValueError(f"num_sentences must be positive, got {num_sentences}")
    if min_tokens < 1 or max_tokens < min_tokens:
        raise ValueError(
            f"need 1 <= min_tokens <= max_tokens, got {min_tokens} and {max_tokens}"
        )
    rng = seeded_rng(seed)
    raw = rng.lognormal(mean=math.log(median_tokens), sigma=sigma, size=num_sentences)
    return np.clip(np.round(raw), min_tokens, max_tokens).astype(np.int64)
