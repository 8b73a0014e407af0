"""Fig. 13 — LSTM video classification on UCF101 (inherent load imbalance).

Setup of the paper (Section 6.3): 8 processes, total batch size 128, 50
epochs, training an LSTM over Inception-v3 frame features.  The imbalance
is *inherent*: batches contain videos of very different lengths.  Results:

* eager-SGD (solo) is 1.64x faster than Horovod but loses top-1 test
  accuracy (60.6% vs 69.6%) because too many gradients are stale;
* eager-SGD (majority) matches Horovod's accuracy (69.7% top-1, 90.0%
  top-5) at a 1.27x speedup.

The reproduction uses the synthetic UCF101-like video-feature dataset
(matching length distribution), the LSTM classifier and the calibrated
LSTM cost model, and compares the same three variants.  No delays are
injected: all imbalance comes from the batch content, as in the paper.
"""

from __future__ import annotations

from functools import partial
from typing import Mapping

from repro.data.ucf101 import VideoFeatureDataset
from repro.experiments.training_experiments import (
    Claim,
    FigureSpec,
    Workload,
    horovod_solo_majority,
    report_figure,
    run_figure,
)
from repro.imbalance.cost_model import lstm_ucf101_cost_model
from repro.nn.losses import SoftmaxCrossEntropyLoss
from repro.nn.models import SequenceLSTMClassifier


def _workload(
    p: Mapping[str, object], seed: int, time_scale=0.001, model_sync_period_epochs=5
) -> Workload:
    return Workload(
        dataset=VideoFeatureDataset(
            num_videos=p["num_videos"],
            feature_dim=p["feature_dim"],
            num_classes=p["num_classes"],
            length_scale=p["length_scale"],
            signal=1.5,
            seed=seed,
        ),
        model_factory=lambda: SequenceLSTMClassifier(
            feature_dim=p["feature_dim"],
            hidden_dim=p["hidden_dim"],
            num_classes=p["num_classes"],
            seed=seed + 1,
        ),
        loss_fn=SoftmaxCrossEntropyLoss(),
        cost_model=lstm_ucf101_cost_model(
            batch_size=p["global_batch_size"] // p["world_size"]
        ),
        # No injector: all imbalance comes from the batch content.
        variants=horovod_solo_majority(),
        config=dict(
            learning_rate=0.05,
            optimizer="momentum",
            time_scale=time_scale,
            model_sync_period_epochs=model_sync_period_epochs,
            eval_batch_size=64,
            # Independent per-rank bucketed pipelines: this is what turns the
            # video-length spread into *inter-rank* imbalance (Section 2.1).
            bucket_by_length=True,
        ),
    )


SPEC = FigureSpec(
    figure="Fig. 13",
    title="Fig. 13  LSTM / UCF101-like video classification (scale={scale})",
    scales={
        "tiny": dict(
            num_videos=240, feature_dim=16, hidden_dim=16, num_classes=6,
            length_scale=0.05, world_size=4, global_batch_size=32, epochs=3,
        ),
        "small": dict(
            num_videos=800, feature_dim=32, hidden_dim=32, num_classes=10,
            length_scale=0.08, world_size=8, global_batch_size=64, epochs=5,
        ),
        "large": dict(
            num_videos=2400, feature_dim=64, hidden_dim=64, num_classes=24,
            length_scale=0.15, world_size=8, global_batch_size=128, epochs=12,
        ),
    },
    build=_workload,
    curves=(
        ("train_top1", "Fig. 13a  top-1 train accuracy vs projected training time"),
        ("eval_top1", "Fig. 13b  top-1 test accuracy vs projected training time"),
    ),
    headline=(
        "Fig. 13 headlines (speedup over Horovod; accuracy ordering)",
        "variant",
        "measured speedup",
        "paper speedup",
        "final top-1 (repro)",
        "final top-1 (paper)",
    ),
    headline_fields=("speedup", "paper_speedup", "value", "paper_value"),
    # Speedup over Horovod and top-1 test accuracy (Horovod: 0.696).
    claims=(
        Claim("eager-SGD (solo)", "synch-SGD (Horovod)", 1.64, "eval_top1", 0.606),
        Claim("eager-SGD (majority)", "synch-SGD (Horovod)", 1.27, "eval_top1", 0.697),
    ),
)

#: ``run(scale="small", seed=0, comm_backend=None, compression=None,
#: time_scale=0.001, model_sync_period_epochs=5)``: Horovod / solo /
#: majority on the video-classification workload.
run = partial(run_figure, SPEC)
report = report_figure
