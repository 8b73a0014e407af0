"""Shared utilities: deterministic RNG handling and statistics."""

from repro.utils.rng import seeded_rng, rank_seed
from repro.utils.stats import (
    RunningStat,
    summarize,
    DistributionSummary,
)

__all__ = [
    "seeded_rng",
    "rank_seed",
    "RunningStat",
    "summarize",
    "DistributionSummary",
]
