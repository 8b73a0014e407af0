"""Delay-injection policies (system-induced load imbalance).

Every policy answers one question: "at training step ``t``, how many extra
(simulated) seconds does each rank spend before reaching the gradient
exchange?"  The policies mirror the injection schemes of the paper's
evaluation:

* :class:`RandomSubsetDelay` — Sections 6.2.1/6.2.2: at every step a few
  randomly selected ranks are delayed by a fixed amount (e.g. 1-of-8 by
  200-400 ms; 4-of-64 by 300/460 ms).
* :class:`RotatingSkewDelay` — Section 6.2.3: *all* ranks are skewed from
  ``min`` to ``max`` milliseconds and the assignment is shifted after each
  step (severe imbalance).
* :class:`CloudNoiseDelay` — the long-tailed cloud variability of Fig. 4.

The microbenchmark's linear skew (Fig. 8) is an arrival pattern, not a
training-step policy: :func:`repro.simtime.skew.linear_skew`.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import SeedLike, rank_seed, seeded_rng


class DelayInjector:
    """Base class: per-step, per-rank injected delay in seconds."""

    def delays(self, step: int, world_size: int) -> np.ndarray:
        """Return an array of ``world_size`` delays (seconds) for ``step``."""
        raise NotImplementedError

    def delay_for_rank(self, step: int, rank: int, world_size: int) -> float:
        """Delay of a single rank (must agree with :meth:`delays`)."""
        return float(self.delays(step, world_size)[rank])

    def describe(self) -> str:
        return type(self).__name__


class NoDelay(DelayInjector):
    """Perfectly balanced system (no injected delay)."""

    def delays(self, step: int, world_size: int) -> np.ndarray:
        return np.zeros(world_size)


class RandomSubsetDelay(DelayInjector):
    """Delay a random subset of ranks by a fixed amount at every step.

    The subset is re-drawn every step from a seed shared by all ranks, so
    every rank computes the same assignment without communication.
    """

    def __init__(self, num_delayed: int, delay_ms: float, seed: SeedLike = 0) -> None:
        if num_delayed < 0:
            raise ValueError(f"num_delayed must be non-negative, got {num_delayed}")
        if delay_ms < 0:
            raise ValueError(f"delay must be non-negative, got {delay_ms} ms")
        self.num_delayed = int(num_delayed)
        self.delay_ms = float(delay_ms)
        self.seed = 0 if seed is None else int(seed)

    def delays(self, step: int, world_size: int) -> np.ndarray:
        if self.num_delayed > world_size:
            raise ValueError(
                f"cannot delay {self.num_delayed} of {world_size} ranks"
            )
        rng = seeded_rng(rank_seed(self.seed, step, stream=7))
        out = np.zeros(world_size)
        chosen = rng.choice(world_size, size=self.num_delayed, replace=False)
        out[chosen] = self.delay_ms / 1000.0
        return out

    def describe(self) -> str:
        return f"RandomSubsetDelay({self.num_delayed} ranks, {self.delay_ms:g} ms)"


class RotatingSkewDelay(DelayInjector):
    """All ranks skewed between ``min_ms`` and ``max_ms``, shifted each step.

    This is the severe-imbalance setting of Section 6.2.3: every rank is
    delayed at every step, the delays span a wide range, and the mapping
    of delay to rank rotates so no rank is permanently the slowest.
    """

    def __init__(self, min_ms: float = 50.0, max_ms: float = 400.0) -> None:
        if min_ms < 0 or max_ms < min_ms:
            raise ValueError(f"need 0 <= min_ms <= max_ms, got {min_ms} and {max_ms}")
        self.min_ms = float(min_ms)
        self.max_ms = float(max_ms)

    def delays(self, step: int, world_size: int) -> np.ndarray:
        levels = np.linspace(self.min_ms, self.max_ms, world_size) / 1000.0
        return np.roll(levels, step % world_size)

    def describe(self) -> str:
        return f"RotatingSkewDelay({self.min_ms:g}-{self.max_ms:g} ms)"


class CloudNoiseDelay(DelayInjector):
    """Long-tailed multiplicative noise, as measured on cloud VMs (Fig. 4).

    Each rank independently draws a lognormal extra delay whose median and
    tail heaviness are configurable; occasional large stragglers dominate,
    reproducing the 399-1,892 ms spread of the paper's Google Cloud trace.
    """

    def __init__(
        self,
        median_ms: float = 30.0,
        sigma: float = 1.0,
        seed: SeedLike = 0,
    ) -> None:
        if median_ms < 0 or sigma < 0:
            raise ValueError(
                f"median_ms and sigma must be non-negative, got {median_ms} and {sigma}"
            )
        self.median_ms = float(median_ms)
        self.sigma = float(sigma)
        self.seed = 0 if seed is None else int(seed)

    def delays(self, step: int, world_size: int) -> np.ndarray:
        rng = seeded_rng(rank_seed(self.seed, step, stream=11))
        if self.median_ms == 0:
            return np.zeros(world_size)
        samples = rng.lognormal(np.log(self.median_ms), self.sigma, size=world_size)
        return samples / 1000.0

    def describe(self) -> str:
        return f"CloudNoiseDelay(median={self.median_ms:g} ms, sigma={self.sigma:g})"
