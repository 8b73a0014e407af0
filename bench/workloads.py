"""The four training workloads and how ``--seed`` turns into their inputs.

Every workload trains ``MLPClassifier(768, (H,), 10)`` on a synthetic
8192-image set split 7168/1024, global batch 128 (56 steps per epoch),
with an evaluation pass after every epoch.  An operation is one training
step.  ``bench/README.md`` records why each workload exists.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from repro.data.synthetic_images import ImageClassificationDataset
from repro.imbalance.cost_model import FixedCostModel
from repro.imbalance.injection import NoDelay, RandomSubsetDelay
from repro.nn.losses import SoftmaxCrossEntropyLoss
from repro.nn.models.mlp import MLPClassifier
from repro.nn.optim import Adam, MomentumSGD, Optimizer
from repro.training.config import TrainingConfig

NUM_EXAMPLES = 8192
IMAGE_SHAPE = (3, 16, 16)
INPUT_DIM = 3 * 16 * 16
NUM_CLASSES = 10
EVAL_FRACTION = 0.125
GLOBAL_BATCH = 128
STEPS_PER_EPOCH = (NUM_EXAMPLES - int(NUM_EXAMPLES * EVAL_FRACTION)) // GLOBAL_BATCH

#: Run length the per-workload epoch counts below are stated for; a run of
#: ``--seconds s`` scales all four by ``s / NOMINAL_SECONDS``.
NOMINAL_SECONDS = 20.0

#: Injected imbalance of the ``skew_*`` workloads (Fig. 10 set-up scaled by
#: ``TIME_SCALE``): 195 ms compute on every rank plus 300 ms on one rank of
#: four per step, i.e. a 5.85 ms sleep and 9 ms more on the delayed rank.
COMPUTE_SECONDS = 0.195
DELAY_MS = 300.0
TIME_SCALE = 0.03


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    world_size: int
    backend: str
    mode: str
    algorithm: str
    hidden: int
    optimizer: str
    learning_rate: float
    signal: float
    #: Epochs (the untimed epoch 0 included) of a NOMINAL_SECONDS run.
    nominal_epochs: int
    #: Frozen eval-loss level ``time_to_target_s`` measures the time to.
    target_loss: float
    skewed: bool = False
    sharding: str = "none"
    fusion_threshold_bytes: Optional[int] = None
    pipeline_chunks: int = 1

    @property
    def synchronous(self) -> bool:
        return self.mode == "sync"

    def epochs_for(self, seconds: float) -> int:
        """Total epochs of a ``--seconds`` run (one common factor, >= 3)."""
        return max(3, round(self.nominal_epochs * seconds / NOMINAL_SECONDS))


# ``learning_rate`` and ``signal`` of ``skew_*`` are not the issue's (lr 0.02,
# generator default signal 2.0): that pair ends epoch 0 at a loss of 1e-5, so
# no target is crossed inside the timed region, and at lr 0.02 every signal
# tried flattens within three epochs (slope at a 30-60% crossing 0.0015 per
# epoch, against 0.05 here).  ``target_loss`` is where the curve crosses at
# 42-48% of a run of ``manifest.RUN_SECONDS``.
_SKEW = dict(
    world_size=4, backend="shm", algorithm="recursive_doubling", hidden=64,
    optimizer="momentum", learning_rate=0.002, signal=0.15, nominal_epochs=19,
    target_loss=0.45, skewed=True,
)
_BULK = dict(
    world_size=2, backend="process", mode="sync", algorithm="ring", hidden=680,
    optimizer="adam", learning_rate=1e-4, signal=0.1, nominal_epochs=17,
    target_loss=0.95, fusion_threshold_bytes=1 << 20, pipeline_chunks=2,
)

WORKLOADS = (
    Workload(
        name="skew_sync", mode="sync",
        why="paper baseline: sync SGD at P=4 under 1-of-4 injected delay waits for "
            "the slowest rank every step; latency-bound 0.4 MB exchange, partial "
            "collectives unused",
        **_SKEW,
    ),
    Workload(
        name="skew_majority", mode="majority",
        why="paper headline: majority eager-SGD on the same skew; steps_per_s over "
            "skew_sync is the speedup, time_to_target_s and final_loss charge it "
            "for stale gradients",
        **_SKEW,
    ),
    Workload(
        name="bulk_dense",
        why="bandwidth-bound: 4 MB gradient at P=2 without delay through ring allreduce in "
            "1 MiB buckets and a dense Adam step; partial collectives bypassed, so they "
            "predict no change",
        **_BULK,
    ),
    Workload(
        name="bulk_zero1", sharding="zero1",
        why="the same sizes through reduce_scatter, windowed Adam and allgather_flat (ZeRO-1): "
            "a change that helps one of the two bulk paths but costs the other shows in the "
            "pair",
        **_BULK,
    ),
)
BY_NAME = {w.name: w for w in WORKLOADS}


#: The task -- corpus, split and initial model -- is fixed, as a training
#: job's are; ``--seed`` draws what a run of that job draws at random: batch
#: order, initiator designation, and which rank is late on which step.  The
#: driver requires the interquartile spread of ``final_loss`` over ten seeds
#: to stay inside its 5% bound: redrawing the corpus alone spread it 8% (and
#: the epoch at which the target is crossed 10-12%), redrawing the initial
#: model alone 8% (4-7%), the seeds kept here 0.1% (0.2%).
DATASET_SEED = 2020
SPLIT_SEED = 2021
MODEL_SEED = 2022


@dataclass(frozen=True)
class Inputs:
    """What the program receives: generated from the seed, nothing else."""

    train: object
    eval: object
    model_factory: Callable[[], MLPClassifier]
    loss_fn: SoftmaxCrossEntropyLoss
    #: Seed of ``TrainingConfig`` (loader shuffling, initiator designation).
    config_seed: int
    injector_seed: int


def derive_seeds(seed: int) -> Tuple[int, int]:
    """Two independent 31-bit seeds: loader and delay injector."""
    state = np.random.SeedSequence(int(seed)).generate_state(2)
    return tuple(int(s) & 0x7FFFFFFF for s in state)


def _make_model(hidden: int, seed: int) -> MLPClassifier:
    return MLPClassifier(INPUT_DIM, (hidden,), NUM_CLASSES, seed=seed)


def build_inputs(workload: Workload, seed: int) -> Inputs:
    config_seed, injector_seed = derive_seeds(seed)
    dataset = ImageClassificationDataset(
        num_examples=NUM_EXAMPLES, num_classes=NUM_CLASSES, image_shape=IMAGE_SHAPE,
        signal=workload.signal, seed=DATASET_SEED,
    )
    train, evaluation = dataset.split(EVAL_FRACTION, seed=SPLIT_SEED)
    return Inputs(
        train=train,
        eval=evaluation,
        model_factory=functools.partial(_make_model, workload.hidden, MODEL_SEED),
        loss_fn=SoftmaxCrossEntropyLoss(),
        config_seed=config_seed,
        injector_seed=injector_seed,
    )


def training_config(
    workload: Workload, inputs: Inputs, epochs: int, world_size: Optional[int] = None,
    no_delay: Optional[NoDelay] = None,
) -> TrainingConfig:
    """The workload's ``TrainingConfig`` (no ``"auto"`` knobs: they calibrate).

    ``no_delay`` stands in for ``NoDelay()`` where the workload injects
    none (the end-to-end run passes its host-speed sentinel).
    """
    return TrainingConfig(
        world_size=workload.world_size if world_size is None else world_size,
        comm_backend=workload.backend,
        epochs=epochs,
        global_batch_size=GLOBAL_BATCH,
        mode=workload.mode,
        sync_style="deep500",
        allreduce_algorithm=workload.algorithm,
        learning_rate=workload.learning_rate,
        optimizer=workload.optimizer,
        model_sync_period_epochs=None,
        time_scale=TIME_SCALE if workload.skewed else 0.0,
        # A world of one has no other rank to be slower than: the plain
        # single-worker baseline keeps the compute cost, not the delay.
        delay_injector=(
            RandomSubsetDelay(1, DELAY_MS, seed=inputs.injector_seed)
            if workload.skewed and world_size != 1 else no_delay or NoDelay()
        ),
        cost_model=FixedCostModel(COMPUTE_SECONDS) if workload.skewed else None,
        seed=inputs.config_seed,
        fusion_threshold_bytes=workload.fusion_threshold_bytes,
        pipeline_chunks=workload.pipeline_chunks,
        sharding=workload.sharding,
    )


def build_optimizer(model, config: TrainingConfig) -> Optimizer:
    """The optimizer the runner builds for ``config`` (layer run only)."""
    if config.optimizer == "momentum":
        return MomentumSGD(model, config.learning_rate, momentum=config.momentum)
    return Adam(model, config.learning_rate)
