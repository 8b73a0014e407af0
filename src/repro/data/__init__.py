"""Synthetic datasets with the statistical structure of the paper's workloads.

The original evaluation uses CIFAR-10, ImageNet, UCF101 and WMT16.  Those
datasets (and the GPUs to train on them) are not available to the
reproduction, so this package generates synthetic stand-ins that preserve
the properties the paper actually measures:

* **hyperplane regression** — generated exactly as described in
  Section 6.2.1 (``y = a0*x0 + ... + a8191*x8191 + noise``);
* **image classification** (CIFAR-like / ImageNet-like) — Gaussian class
  clusters in pixel space: balanced per-batch cost, learnable by the small
  ResNets;
* **video sequences** (UCF101-like) — per-frame feature sequences whose
  length distribution matches Fig. 2a (29-1,776 frames, median 167); the
  length drives the LSTM's compute cost, reproducing the inherent
  imbalance of Fig. 2b;
* **sentence lengths** (WMT-like) — the long-tailed length distribution
  that prices the Transformer batches of Fig. 3 (no Transformer is
  trained).
"""

from repro.data.loader import Dataset, ShardedLoader, Batch
from repro.data.hyperplane import HyperplaneDataset
from repro.data.synthetic_images import (
    ImageClassificationDataset,
    cifar10_like,
    imagenet_like,
)
from repro.data.ucf101 import VideoFeatureDataset, sample_video_lengths, UCF101_LENGTH_STATS
from repro.data.wmt import sample_sentence_lengths
from repro.data.bucketing import bucket_by_length, BucketBatchSampler

__all__ = [
    "Dataset",
    "ShardedLoader",
    "Batch",
    "HyperplaneDataset",
    "ImageClassificationDataset",
    "cifar10_like",
    "imagenet_like",
    "VideoFeatureDataset",
    "sample_video_lengths",
    "UCF101_LENGTH_STATS",
    "sample_sentence_lengths",
    "bucket_by_length",
    "BucketBatchSampler",
]
