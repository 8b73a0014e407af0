"""Fig. 11 — ResNet-50 on ImageNet under light (simulated) load imbalance.

Setup of the paper (Section 6.2.2): 64 processes, total batch size 8,192,
90 epochs; at every step 4 of the 64 processes are delayed by 300 or
460 ms (cloud-like variability).  Results: eager-SGD (solo) achieves
1.25x / 1.23x speedup over Deep500 and 1.14x / 1.22x over Horovod while
reaching equivalent accuracy (paper: 75.2% vs 75.7/75.8% top-1 test,
92.4% vs 92.6% top-5).

The reproduction uses the ImageNet-like synthetic dataset with the scaled
ResNet, keeps the fraction of delayed ranks (1/16 of the world) and the
delay magnitudes, and compares Deep500-style and Horovod-style synch-SGD
against eager-SGD (solo).
"""

from __future__ import annotations

from functools import partial
from typing import Mapping

from repro.data.synthetic_images import imagenet_like
from repro.experiments.training_experiments import (
    Claim,
    FigureSpec,
    Workload,
    injected_delay_variants,
    report_figure,
    run_figure,
)
from repro.imbalance.cost_model import resnet50_cloud_cost_model
from repro.nn.losses import SoftmaxCrossEntropyLoss
from repro.nn.models import resnet_imagenet_lite

#: Injected delay (ms) -> speedup of eager-SGD (solo) over (Deep500,
#: Horovod) quoted in Section 6.2.2, and its top-1 test accuracy.
PAPER_SPEEDUPS = {300.0: (1.25, 1.14), 460.0: (1.23, 1.22)}
PAPER_SOLO_TOP1 = 0.752


def _workload(
    p: Mapping[str, object], seed: int, delays_ms=tuple(PAPER_SPEEDUPS), time_scale=0.001
) -> Workload:
    return Workload(
        dataset=imagenet_like(
            num_examples=p["num_examples"],
            num_classes=p["num_classes"],
            image_size=p["image_size"],
            seed=seed,
        ),
        model_factory=lambda: resnet_imagenet_lite(
            num_classes=p["num_classes"],
            width=p["width"],
            blocks_per_stage=p["blocks"],
            seed=seed + 1,
        ),
        loss_fn=SoftmaxCrossEntropyLoss(),
        cost_model=resnet50_cloud_cost_model(),
        # The paper delays 4 of 64 ranks (1/16 of the world); keep the ratio.
        variants=injected_delay_variants(
            delays_ms, ("Deep500", "Horovod"), max(1, p["world_size"] // 16), seed=seed
        ),
        config=dict(
            learning_rate=0.05, optimizer="momentum", model_sync_period_epochs=10,
            time_scale=time_scale,
        ),
    )


SPEC = FigureSpec(
    figure="Fig. 11",
    title="Fig. 11  ResNet / ImageNet-like workload (scale={scale})",
    scales={
        "tiny": dict(
            num_examples=600, num_classes=10, image_size=8, width=4, blocks=1,
            world_size=4, global_batch_size=64, epochs=2,
        ),
        "small": dict(
            num_examples=2000, num_classes=20, image_size=8, width=8, blocks=1,
            world_size=8, global_batch_size=128, epochs=4,
        ),
        "large": dict(
            num_examples=8000, num_classes=100, image_size=16, width=8, blocks=2,
            world_size=16, global_batch_size=512, epochs=8,
        ),
    },
    build=_workload,
    curves=(
        ("train_top1", "Fig. 11b  top-1 train accuracy vs projected training time"),
        ("eval_top1", "Fig. 11c  top-1 test accuracy vs projected training time"),
    ),
    headline=(
        "Fig. 11a  eager-SGD (solo) throughput speedups",
        "injection",
        "speedup vs Deep500 (measured)",
        "paper",
        "speedup vs Horovod (measured)",
        "paper",
    ),
    headline_fields=("speedup", "paper_speedup"),
    claims=tuple(
        Claim(
            f"eager-SGD-{int(delay)} (solo)", f"synch-SGD-{int(delay)} ({style})", speedup,
            "eval_top1", PAPER_SOLO_TOP1, label=f"{int(delay)} ms",
        )
        for delay, speedups in PAPER_SPEEDUPS.items()
        for style, speedup in zip(("Deep500", "Horovod"), speedups)
    ),
)

#: ``run(scale="small", seed=0, comm_backend=None, compression=None,
#: delays_ms=(300.0, 460.0), time_scale=0.001)``: Deep500 / Horovod /
#: eager-SGD (solo) for every injected delay.
run = partial(run_figure, SPEC)
report = report_figure
