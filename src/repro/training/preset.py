"""The default model and data, stated once: hyperplane regression fitted
by a two-layer MLP.  ``repro train`` and a serving world's trainers and
replicas build them here."""

from __future__ import annotations

import functools
from typing import Callable, Tuple

from repro.data.hyperplane import HyperplaneDataset
from repro.data.loader import Dataset
from repro.nn.models.mlp import MLPClassifier
from repro.nn.module import Module
from repro.training.config import TrainingConfig

#: Input width of the hyperplane data (Fig. 10's at test scale), and the
#: hidden width of the MLP fitting it, so a trace carries per-layer
#: ``layer-fwd`` / ``layer-bwd`` rows.
INPUT_DIM = 64

#: The run ``repro train`` makes unless its flags say otherwise, and a
#: serving world's trainers at its layout: one epoch of a 32-example
#: global batch, with momentum so the optimizer carries state that
#: ``--sharding zero1`` cuts P-fold, and a 20 KiB fusion threshold that
#: cuts the MLP's 4 225 parameters into two buckets.
PRESET = TrainingConfig(
    epochs=1, global_batch_size=32, optimizer="momentum", fusion_threshold_bytes=20 * 1024
)


def preset_model(config: TrainingConfig) -> Callable[[], Module]:
    """The MLP's factory, seeded by ``config.seed``: every rank that
    calls it builds one model."""
    return functools.partial(
        MLPClassifier, INPUT_DIM, hidden_dims=(INPUT_DIM,), num_classes=1, seed=config.seed
    )


def preset_workload(config: TrainingConfig, steps: int) -> Tuple[Callable[[], Module], Dataset]:
    """The model factory and the data of exactly ``steps`` global batches
    of ``config`` per epoch."""
    data = HyperplaneDataset(
        num_examples=config.global_batch_size * steps, input_dim=INPUT_DIM,
        noise_std=0.5, seed=config.seed,
    )
    return preset_model(config), data
