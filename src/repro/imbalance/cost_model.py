"""Content-driven compute cost models (inherent load imbalance).

A cost model maps a batch (or its ``size_hint``, e.g. the total number of
frames or tokens) to a *simulated* compute time in seconds.  The training
runner uses these times for the projected time axes of the paper's figures
and — scaled down — for the real sleeps that create genuine asynchrony
between the rank threads.

The calibration functions reproduce the runtime distributions the paper
measures on a P100 GPU:

* Fig. 2b — LSTM on UCF101, batch size 16: runtimes from 201 ms to
  3,410 ms;
* Fig. 3 — Transformer on WMT16, batch size 64: 179 ms to 3,482 ms;
* Fig. 4 — ResNet-50 on 2xV100 cloud instances, batch size 256: 399 ms to
  1,892 ms, where the variability comes from the system, not the data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.data.loader import Batch
from repro.imbalance.injection import CloudNoiseDelay, DelayInjector
from repro.utils.rng import SeedLike


class CostModel:
    """Base class mapping a batch to a simulated compute time (seconds)."""

    def batch_cost(self, batch: Batch) -> float:
        """Simulated compute seconds for ``batch``."""
        raise NotImplementedError

    def cost_from_size(self, size_hint: float) -> float:
        """Simulated compute seconds for a batch with the given size hint."""
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class FixedCostModel(CostModel):
    """Every batch costs the same (balanced workloads such as ResNet)."""

    seconds_per_batch: float

    def __post_init__(self) -> None:
        if self.seconds_per_batch < 0:
            raise ValueError(
                f"seconds_per_batch must be non-negative, got {self.seconds_per_batch}"
            )

    def batch_cost(self, batch: Batch) -> float:
        return self.seconds_per_batch

    def cost_from_size(self, size_hint: float) -> float:
        return self.seconds_per_batch

    def describe(self) -> str:
        return f"FixedCostModel({self.seconds_per_batch * 1e3:.0f} ms)"


@dataclass(frozen=True)
class SequenceCostModel(CostModel):
    """Cost grows linearly with the batch's total sequence length.

    ``cost = base_seconds + seconds_per_unit * total_units`` optionally
    clipped at ``cap_seconds`` (long sequences are truncated / subsampled
    in practice, which caps the per-batch cost).
    """

    base_seconds: float
    seconds_per_unit: float
    cap_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.base_seconds < 0 or self.seconds_per_unit < 0:
            raise ValueError(
                f"cost parameters must be non-negative, got base_seconds="
                f"{self.base_seconds}, seconds_per_unit={self.seconds_per_unit}"
            )
        if self.cap_seconds is not None and self.cap_seconds <= 0:
            raise ValueError(
                f"cap_seconds must be positive when given, got {self.cap_seconds}"
            )

    def cost_from_size(self, size_hint: float) -> float:
        cost = self.base_seconds + self.seconds_per_unit * float(size_hint)
        if self.cap_seconds is not None:
            cost = min(cost, self.cap_seconds)
        return cost

    def batch_cost(self, batch: Batch) -> float:
        if batch.size_hint is None:
            raise ValueError(
                f"SequenceCostModel needs batches with a size_hint "
                f"(total frames/tokens); got None for a batch of "
                f"{np.size(batch.indices)} examples"
            )
        return self.cost_from_size(batch.size_hint)

    def describe(self) -> str:
        cap = f", cap={self.cap_seconds:.3f}s" if self.cap_seconds else ""
        return (
            f"SequenceCostModel(base={self.base_seconds * 1e3:.0f} ms, "
            f"{self.seconds_per_unit * 1e6:.1f} us/unit{cap})"
        )


@dataclass(frozen=True)
class QuadraticSequenceCostModel(CostModel):
    """Cost with linear and quadratic terms in the per-sequence length.

    Transformers pay attention cost quadratic in the sentence length, so a
    purely linear model underestimates the long-batch tail of Fig. 3.  For
    a batch of sequences with lengths ``L_i`` the cost is

        ``base + per_unit * sum(L_i) + per_unit_sq * sum(L_i ** 2)``.

    When only a total-length ``size_hint`` is available, the sequences are
    assumed to be of equal length ``size_hint / batch_size`` (which is the
    bucketed-batch case this model is used for).
    """

    base_seconds: float
    seconds_per_unit: float
    seconds_per_unit_sq: float
    batch_size: int
    cap_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if min(self.base_seconds, self.seconds_per_unit, self.seconds_per_unit_sq) < 0:
            raise ValueError(
                f"cost parameters must be non-negative, got base_seconds="
                f"{self.base_seconds}, seconds_per_unit={self.seconds_per_unit}, "
                f"seconds_per_unit_sq={self.seconds_per_unit_sq}"
            )
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")

    def _cap(self, cost: float) -> float:
        return min(cost, self.cap_seconds) if self.cap_seconds is not None else cost

    def cost_from_lengths(self, lengths: np.ndarray) -> float:
        lengths = np.asarray(lengths, dtype=np.float64)
        cost = (
            self.base_seconds
            + self.seconds_per_unit * float(lengths.sum())
            + self.seconds_per_unit_sq * float((lengths**2).sum())
        )
        return self._cap(cost)

    def cost_from_size(self, size_hint: float) -> float:
        mean_len = float(size_hint) / self.batch_size
        cost = (
            self.base_seconds
            + self.seconds_per_unit * float(size_hint)
            + self.seconds_per_unit_sq * self.batch_size * mean_len**2
        )
        return self._cap(cost)

    def batch_cost(self, batch: Batch) -> float:
        inputs = batch.inputs
        if isinstance(inputs, dict) and "lengths" in inputs:
            return self.cost_from_lengths(np.asarray(inputs["lengths"]))
        if batch.size_hint is None:
            raise ValueError(
                f"QuadraticSequenceCostModel needs lengths or a size_hint, "
                f"got inputs of type {type(inputs).__name__} and size_hint None"
            )
        return self.cost_from_size(batch.size_hint)

    def describe(self) -> str:
        return (
            f"QuadraticSequenceCostModel(base={self.base_seconds * 1e3:.0f} ms, "
            f"{self.seconds_per_unit * 1e6:.1f} us/unit, "
            f"{self.seconds_per_unit_sq * 1e6:.2f} us/unit^2)"
        )


def lstm_ucf101_cost_model(batch_size: int = 16) -> SequenceCostModel:
    """Cost model for the UCF101 LSTM (Fig. 2b).

    Calibrated so that, with the paper's batch size of 16 and the UCF101
    length distribution, the shortest batches take about 200 ms and the
    cost is capped at 3.41 s (the paper's maximum — very long videos are
    subsampled in practice, which bounds the cost of the right tail).
    """
    min_frames = 29
    # 0.201 s at the all-minimum batch.
    per_frame = 4.0e-4 / (batch_size / 16)
    base = 0.201 - per_frame * batch_size * min_frames
    return SequenceCostModel(
        base_seconds=max(base, 0.0),
        seconds_per_unit=per_frame,
        cap_seconds=3.410,
    )


def transformer_wmt_cost_model(batch_size: int = 64) -> QuadraticSequenceCostModel:
    """Cost model for the WMT Transformer (Fig. 3).

    Attention is quadratic in the sentence length, so the model has both a
    linear and a quadratic term.  The coefficients solve the three-point
    calibration against the paper's reported distribution at batch size
    64: ~179 ms for the shortest batches (4 tokens), ~475 ms at the mean
    length (~22 tokens), ~3.5 s at the longest (128 tokens).
    """
    # Solving base + B*(a*L + b*L^2) at L = 4, 22, 128 for the three
    # reference runtimes gives (for B = 64): base ~ 0.122 s,
    # a ~ 2.18e-4 s/token, b ~ 1.50e-6 s/token^2; rescale to the requested
    # batch size so per-sequence coefficients stay the same.
    reference_batch = 64
    per_token = 0.013944 / reference_batch
    per_token_sq = 9.615e-5 / reference_batch
    return QuadraticSequenceCostModel(
        base_seconds=0.1217,
        seconds_per_unit=per_token,
        seconds_per_unit_sq=per_token_sq,
        batch_size=batch_size,
        cap_seconds=3.482,
    )


def resnet50_cloud_cost_model() -> FixedCostModel:
    """Base compute cost of a ResNet-50 step on the cloud instance (Fig. 4).

    The data-side cost is constant (ImageNet batches are all the same
    size); the paper's observed 399-1,892 ms spread comes from system
    noise, which is modelled separately with
    :func:`cloud_noise_for_resnet50`.
    """
    return FixedCostModel(seconds_per_batch=0.399)


def cloud_noise_for_resnet50(seed: SeedLike = 0) -> DelayInjector:
    """Delay injector reproducing the cloud-noise tail of Fig. 4."""
    return CloudNoiseDelay(median_ms=35.0, sigma=1.05, seed=seed)
