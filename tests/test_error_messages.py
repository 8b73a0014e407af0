"""Every ``ValueError`` names the value that triggered it.

The ``valueerror-no-value`` lint rule only sees that a message is not a
constant; these cases check, one raise site each, that the interpolated text
really carries the offending value (or shape, or type) a caller passed.
"""

import numpy as np
import pytest

from repro.data import (
    BucketBatchSampler,
    HyperplaneDataset,
    ShardedLoader,
    VideoFeatureDataset,
    bucket_by_length,
    cifar10_like,
    sample_sentence_lengths,
    sample_video_lengths,
)
from repro.data.loader import Batch
from repro.experiments import autotune, table1_networks
from repro.imbalance.cost_model import (
    FixedCostModel,
    QuadraticSequenceCostModel,
    SequenceCostModel,
)
from repro.imbalance.injection import CloudNoiseDelay, RandomSubsetDelay, RotatingSkewDelay
from repro.nn import LSTM, BatchNorm, Conv2D, Dense, LSTMCell
from repro.nn.losses import SoftmaxCrossEntropyLoss
from repro.nn.models.resnet import ResNetClassifier
from repro.simtime.collective_model import (
    allreduce_time,
    fused_exchange_time,
    sharded_exchange_time,
    synchronous_allreduce_latencies,
)
from repro.simtime.skew import linear_skew
from repro.simtime.training_model import StepTimeline, project_training_time
from repro.theory.staleness import QuorumTracker
from repro.utils.stats import Histogram


def _batch(inputs, n):
    return Batch(inputs=inputs, targets=np.zeros(n), indices=np.arange(n))


def _lstm_backward(return_sequences):
    lstm = LSTM(2, 3, return_sequences=return_sequences, seed=0)
    lstm.forward(np.zeros((2, 4, 2)))
    lstm.backward(np.zeros((5, 3)))


# id -> (call that must raise, text the message must contain)
CASES = {
    # data
    "bucket_by_length-empty": (lambda: bucket_by_length([]), "got shape (0,)"),
    "bucket_by_length-num_buckets": (
        lambda: bucket_by_length([1, 2], num_buckets=0),
        "num_buckets must be >= 1, got 0",
    ),
    "BucketBatchSampler-batch_size": (
        lambda: BucketBatchSampler([1, 2, 3], batch_size=0),
        "batch_size must be >= 1, got 0",
    ),
    "HyperplaneDataset-sizes": (
        lambda: HyperplaneDataset(num_examples=0, input_dim=4),
        "got 0 and 4",
    ),
    "HyperplaneDataset-noise": (
        lambda: HyperplaneDataset(num_examples=4, input_dim=2, noise_std=-1.0),
        "noise_std must be non-negative, got -1.0",
    ),
    "ImageClassificationDataset-too-few": (
        lambda: cifar10_like(num_examples=5),
        "got 5 examples for 10 classes",
    ),
    "sample_video_lengths-count": (
        lambda: sample_video_lengths(0),
        "num_videos must be positive, got 0",
    ),
    "sample_video_lengths-scale": (
        lambda: sample_video_lengths(3, scale=-2.0),
        "scale must be positive, got -2.0",
    ),
    "VideoFeatureDataset-config": (
        lambda: VideoFeatureDataset(num_videos=4, feature_dim=2, num_classes=1),
        "got 4, 2 and 1",
    ),
    "sample_sentence_lengths-count": (
        lambda: sample_sentence_lengths(0),
        "num_sentences must be positive, got 0",
    ),
    "sample_sentence_lengths-bounds": (
        lambda: sample_sentence_lengths(3, min_tokens=9, max_tokens=3),
        "got 9 and 3",
    ),
    "ShardedLoader-bucketing-needs-sizes": (
        lambda: ShardedLoader(
            HyperplaneDataset(num_examples=8, input_dim=2), 4, bucket_by_length=True
        ),
        "got HyperplaneDataset",
    ),
    # experiments
    "autotune-world_sizes": (lambda: autotune.run(world_sizes=[]), "got []"),
    "table1-scale": (lambda: table1_networks.run(scale="large"), "got 'large'"),
    # imbalance
    "FixedCostModel": (lambda: FixedCostModel(-1.0), "got -1.0"),
    "SequenceCostModel-params": (
        lambda: SequenceCostModel(-1.0, 0.0),
        "base_seconds=-1.0, seconds_per_unit=0.0",
    ),
    "SequenceCostModel-cap": (
        lambda: SequenceCostModel(0.0, 0.0, cap_seconds=0.0),
        "cap_seconds must be positive when given, got 0.0",
    ),
    "SequenceCostModel-no-size-hint": (
        lambda: SequenceCostModel(0.0, 1.0).batch_cost(_batch(np.zeros((3, 2)), 3)),
        "for a batch of 3 examples",
    ),
    "QuadraticSequenceCostModel-params": (
        lambda: QuadraticSequenceCostModel(0.0, 0.0, -1.0, 4),
        "seconds_per_unit_sq=-1.0",
    ),
    "QuadraticSequenceCostModel-batch_size": (
        lambda: QuadraticSequenceCostModel(0.0, 0.0, 0.0, 0),
        "batch_size must be >= 1, got 0",
    ),
    "QuadraticSequenceCostModel-no-lengths": (
        lambda: QuadraticSequenceCostModel(0.0, 0.0, 0.0, 4).batch_cost(
            _batch(np.zeros((2, 3)), 2)
        ),
        "got inputs of type ndarray",
    ),
    "RandomSubsetDelay-count": (
        lambda: RandomSubsetDelay(-1, 5.0),
        "num_delayed must be non-negative, got -1",
    ),
    "RandomSubsetDelay-delay": (lambda: RandomSubsetDelay(1, -5), "got -5 ms"),
    "RotatingSkewDelay": (lambda: RotatingSkewDelay(5.0, 1.0), "got 5.0 and 1.0"),
    "CloudNoiseDelay": (lambda: CloudNoiseDelay(median_ms=-1.0), "got -1.0 and 1.0"),
    # nn
    "Conv2D-geometry": (lambda: Conv2D(1, 1, kernel_size=0), "got 0, 1 and 1"),
    "Dense-features": (lambda: Dense(0, 3), "got 0 and 3"),
    "LSTMCell-dims": (lambda: LSTMCell(4, 0), "got 4 and 0"),
    "LSTM-lengths": (
        lambda: LSTM(2, 3, seed=0).forward(np.zeros((2, 4, 2)), lengths=np.array([5, 1])),
        "got [5, 1]",
    ),
    "LSTM-grad-sequences": (lambda: _lstm_backward(True), "gradient shape (5, 3)"),
    "LSTM-grad-final": (lambda: _lstm_backward(False), "gradient shape (5, 3)"),
    "BatchNorm-features": (lambda: BatchNorm(0), "num_features must be positive, got 0"),
    "BatchNorm-momentum": (lambda: BatchNorm(3, momentum=1.5), "got 1.5"),
    "SoftmaxCrossEntropyLoss-smoothing": (
        lambda: SoftmaxCrossEntropyLoss(label_smoothing=1.0),
        "got 1.0",
    ),
    "SoftmaxCrossEntropyLoss-labels": (
        lambda: SoftmaxCrossEntropyLoss()(np.zeros((2, 3)), np.array([0, 7])),
        "got [0, 7]",
    ),
    "ResNetClassifier-blocks": (
        lambda: ResNetClassifier(blocks_per_stage=0),
        "blocks_per_stage must be >= 1, got 0",
    ),
    # simtime
    "allreduce_time-size": (lambda: allreduce_time(8, 0), "size must be >= 1, got 0"),
    "allreduce_time-chunks": (
        lambda: allreduce_time(8, 2, n_chunks=0),
        "n_chunks must be >= 1, got 0",
    ),
    "fused_exchange_time-buckets": (lambda: fused_exchange_time([], 2), "got []"),
    "fused_exchange_time-size": (
        lambda: fused_exchange_time([8], 0),
        "size must be >= 1, got 0",
    ),
    "fused_exchange_time-chunks": (
        lambda: fused_exchange_time([8], 2, n_chunks=0),
        "n_chunks must be >= 1, got 0",
    ),
    "sharded_exchange_time-buckets": (lambda: sharded_exchange_time([], 2), "got []"),
    "sharded_exchange_time-size": (
        lambda: sharded_exchange_time([8], 0),
        "size must be >= 1, got 0",
    ),
    "sharded_exchange_time-chunks": (
        lambda: sharded_exchange_time([8], 2, n_chunks=0),
        "n_chunks must be >= 1, got 0",
    ),
    "arrivals-empty": (lambda: synchronous_allreduce_latencies([], 8), "got shape (0,)"),
    "arrivals-negative": (
        lambda: synchronous_allreduce_latencies([0.0, -1.0], 8),
        "got min -1.0",
    ),
    "linear_skew-size": (lambda: linear_skew(0), "size must be >= 1, got 0"),
    "StepTimeline-shape": (lambda: StepTimeline(np.zeros(3)), "got (3,)"),
    "StepTimeline-negative": (lambda: StepTimeline([[1.0, -2.0]]), "got min -2.0"),
    "project_training_time-empty": (
        lambda: project_training_time(StepTimeline(np.zeros((0, 4)))),
        "got 0 x 4",
    ),
    # theory, utils
    "QuorumTracker-world_size": (
        lambda: QuorumTracker(0),
        "world_size must be >= 1, got 0",
    ),
    "Histogram-bin_width": (lambda: Histogram(0), "bin_width must be positive, got 0"),
    "Histogram-empty": (
        lambda: Histogram(0.5, start=1.0).mode_bin(),
        "bin_width=0.5, start=1.0",
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_value_error_names_its_value(case):
    call, expected = CASES[case]
    with pytest.raises(ValueError) as info:
        call()
    assert expected in str(info.value)
