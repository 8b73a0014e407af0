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
from repro.collectives.topology import HostTopology
from repro.simtime.collective_model import (
    CompressionModel,
    allreduce_time,
    collective_time,
    synchronous_allreduce_latencies,
)
from repro.simtime.network import DEFAULT_NETWORK
from repro.simtime.skew import linear_skew
from repro.simtime.training_model import StepTimeline, project_training_time
from repro.theory.staleness import QuorumTracker
from repro.tuning.autotune import predict_exchange_time
from repro.comm.backend import launch
from repro.comm.communicator import check_deadline
from repro.comm import ThreadWorld
from repro.training.config import TrainingConfig
from repro.training.exchange import build_exchange


def _batch(inputs, n):
    return Batch(inputs=inputs, targets=np.zeros(n), indices=np.arange(n))


def _lstm_backward(return_sequences):
    lstm = LSTM(2, 3, return_sequences=return_sequences, seed=0)
    lstm.forward(np.zeros((2, 4, 2)))
    lstm.backward(np.zeros((5, 3)))


def _never_runs(comm):
    raise AssertionError(f"rank {comm.rank} started")


def _sync_exchange(fusion_threshold_bytes):
    with ThreadWorld(2) as world:
        build_exchange(
            world.communicator(0), 50, "sync", fusion_threshold_bytes=fusion_threshold_bytes
        )


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
    "collective_time-kind": (
        lambda: collective_time("broadcast", "ring", 2, 8, 1, DEFAULT_NETWORK),
        "unknown collective kind 'broadcast'",
    ),
    "collective_time-algorithm": (
        lambda: collective_time("reduce_scatter", "doubling", 2, 8, 1, DEFAULT_NETWORK),
        "unknown reduce_scatter algorithm 'doubling'",
    ),
    "collective_time-size": (
        lambda: collective_time("allreduce", "ring", 0, 8, 1, DEFAULT_NETWORK),
        "size must be >= 1, got 0",
    ),
    "collective_time-length-negative": (
        lambda: collective_time("allreduce", "ring", 2, -3, 1, DEFAULT_NETWORK),
        "length must be a non-negative integer, got -3",
    ),
    "collective_time-length-fraction": (
        lambda: collective_time("allgather", "ring", 2, 2.5, 1, DEFAULT_NETWORK),
        "length must be a non-negative integer, got 2.5",
    ),
    "collective_time-chunks": (
        lambda: collective_time("allreduce", "ring", 2, 8, 0, DEFAULT_NETWORK),
        "n_chunks must be >= 1, got 0",
    ),
    "collective_time-topology": (
        lambda: collective_time(
            "allreduce", "hierarchical", 2, 8, 1, DEFAULT_NETWORK,
            HostTopology.from_hosts([2, 2]),
        ),
        "host topology covers 4 rank(s), expected 2",
    ),
    "allreduce_time-fraction": (
        lambda: allreduce_time(8.5, 2),
        "got 8.5",
    ),
    "predict_exchange_time-threshold": (
        lambda: predict_exchange_time(DEFAULT_NETWORK, 2, 1024, fusion_threshold_bytes=0),
        "got 1024 and 0",
    ),
    "predict_exchange_time-zero1-codec": (
        lambda: predict_exchange_time(
            DEFAULT_NETWORK, 2, 1024, sharding="zero1",
            compression=CompressionModel(name="topk", wire_scale=0.1, reduce_closed=False),
        ),
        "got 'topk'",
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
        lambda: project_training_time(StepTimeline(np.zeros((0, 4))), exchange_cost=0.0),
        "got 0 x 4",
    ),
    "project_training_time-majority-initiators": (
        lambda: project_training_time(
            StepTimeline(np.zeros((5, 4))), "majority", exchange_cost=0.0, initiators=[0, 1]
        ),
        "5 steps, got 2 initiator(s)",
    ),
    # theory
    "QuorumTracker-world_size": (
        lambda: QuorumTracker(0),
        "world_size must be >= 1, got 0",
    ),
    # comm
    "check_deadline": (lambda: check_deadline(-2.5), "got -2.5"),
    "launch-timeout-negative": (
        lambda: launch(_never_runs, 2, timeout=-1.0),
        "timeout must be a finite positive number of seconds, got -1.0",
    ),
    "launch-timeout-zero": (lambda: launch(_never_runs, 2, timeout=0), "got 0"),
    "launch-timeout-nan": (lambda: launch(_never_runs, 2, timeout=float("nan")), "got nan"),
    # training
    "TrainingConfig-batch-divisibility": (
        lambda: TrainingConfig(world_size=3, global_batch_size=32).validate(),
        "global_batch_size must be divisible by world_size (3), got 32",
    ),
    # A threshold reaches the exchange checked, not as one-element buckets
    # (0, -5) or a TypeError on every rank ("auto", which only the runner
    # resolves).
    "build_exchange-threshold-zero": (
        lambda: _sync_exchange(0),
        "fusion_threshold_bytes must be an integer >= 1 or None, got 0",
    ),
    "build_exchange-threshold-negative": (lambda: _sync_exchange(-5), "got -5"),
    "build_exchange-threshold-auto": (lambda: _sync_exchange("auto"), "got 'auto'"),
}


@pytest.mark.parametrize("case", CASES)
def test_value_error_names_its_value(case):
    call, expected = CASES[case]
    with pytest.raises(ValueError) as info:
        call()
    assert expected in str(info.value)
