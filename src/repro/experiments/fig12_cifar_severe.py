"""Fig. 12 — ResNet-32 on CIFAR-10 under severe load imbalance.

Setup of the paper (Section 6.2.3): 8 processes, 190 epochs, and *every*
process is skewed at every step with delays from 50 ms to 400 ms whose
assignment rotates after each step.  Results: eager-SGD with solo
allreduce trains fastest but loses accuracy (most gradients are stale);
eager-SGD with majority allreduce reaches approximately the same accuracy
as synch-SGD (Horovod) with a 1.29x speedup.

The reproduction keeps the rotating 50-400 ms skew and compares the same
three variants on the CIFAR-like synthetic dataset with the scaled ResNet.
"""

from __future__ import annotations

from functools import partial
from typing import Mapping

from repro.data.synthetic_images import cifar10_like
from repro.experiments.training_experiments import (
    Claim,
    FigureSpec,
    Workload,
    horovod_solo_majority,
    report_figure,
    run_figure,
)
from repro.imbalance.cost_model import FixedCostModel
from repro.imbalance.injection import RotatingSkewDelay
from repro.nn.losses import SoftmaxCrossEntropyLoss
from repro.nn.models import resnet_cifar

#: Per-step compute cost of ResNet-32 on CIFAR-10 with a local batch of 64
#: on a P100 (order of 100 ms), used for the paper-scale time projection.
STEP_COMPUTE_SECONDS = 0.100


def _workload(
    p: Mapping[str, object],
    seed: int,
    min_delay_ms=50.0,
    max_delay_ms=400.0,
    time_scale=0.002,
    model_sync_period_epochs=5,
) -> Workload:
    return Workload(
        dataset=cifar10_like(
            num_examples=p["num_examples"], image_size=p["image_size"], signal=2.0, seed=seed
        ),
        model_factory=lambda: resnet_cifar(
            num_classes=10, width=p["width"], blocks_per_stage=p["blocks"], seed=seed + 1
        ),
        loss_fn=SoftmaxCrossEntropyLoss(),
        cost_model=FixedCostModel(STEP_COMPUTE_SECONDS),
        variants=horovod_solo_majority(RotatingSkewDelay(min_delay_ms, max_delay_ms)),
        config=dict(
            learning_rate=0.05, optimizer="momentum", time_scale=time_scale,
            model_sync_period_epochs=model_sync_period_epochs,
        ),
    )


SPEC = FigureSpec(
    figure="Fig. 12",
    title=(
        "Fig. 12  ResNet / CIFAR-like workload under severe imbalance "
        "({min_delay_ms:g}-{max_delay_ms:g} ms rotating skew, scale={scale})"
    ),
    scales={
        "tiny": dict(
            num_examples=600, image_size=8, width=4, blocks=1,
            world_size=4, global_batch_size=64, epochs=3,
        ),
        "small": dict(
            num_examples=2000, image_size=8, width=8, blocks=1,
            world_size=8, global_batch_size=128, epochs=6,
        ),
        "large": dict(
            num_examples=10000, image_size=16, width=16, blocks=3,
            world_size=8, global_batch_size=512, epochs=30,
        ),
    },
    build=_workload,
    curves=(("eval_top1", "Fig. 12  top-1 test accuracy vs projected training time"),),
    headline=(
        "Fig. 12 headline: majority matches synch-SGD accuracy, 1.29x faster",
        "variant",
        "measured speedup",
        "paper speedup",
        "paper final top-1",
    ),
    headline_fields=("speedup", "paper_speedup", "paper_value"),
    # The paper's headline, and what solo pays for being fastest (top-1
    # test accuracy at the end of training; Horovod reaches 0.926).
    claims=(
        Claim("eager-SGD (majority)", "synch-SGD (Horovod)", 1.29, "eval_top1", 0.90),
        Claim("eager-SGD (solo)", "synch-SGD (Horovod)", None, "eval_top1", 0.58),
    ),
)

#: ``run(scale="small", seed=0, comm_backend=None, compression=None,
#: min_delay_ms=50.0, max_delay_ms=400.0, time_scale=0.002,
#: model_sync_period_epochs=5)``: Horovod / solo / majority under the
#: rotating skew.
run = partial(run_figure, SPEC)
report = report_figure
