"""Tests for the synthetic datasets, bucketing and the sharded loader."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    BucketBatchSampler,
    HyperplaneDataset,
    SentenceDataset,
    ShardedLoader,
    UCF101_LENGTH_STATS,
    VideoFeatureDataset,
    bucket_by_length,
    cifar10_like,
    imagenet_like,
    sample_sentence_lengths,
    sample_video_lengths,
)


class TestHyperplane:
    def test_shapes_and_noise(self):
        ds = HyperplaneDataset(num_examples=100, input_dim=16, noise_std=0.1, seed=0)
        assert len(ds) == 100
        batch = ds.get_batch([0, 5, 7])
        assert batch.inputs.shape == (3, 16)
        assert batch.targets.shape == (3, 1)

    def test_labels_follow_hyperplane(self):
        ds = HyperplaneDataset(num_examples=2000, input_dim=8, noise_std=0.0, seed=1)
        predicted = ds.x @ ds.coefficients + ds.intercept
        assert np.allclose(predicted[:, None], ds.y)

    def test_split_is_disjoint_and_complete(self):
        ds = HyperplaneDataset(num_examples=100, input_dim=4, seed=0)
        train, val = ds.split(0.25, seed=1)
        assert len(train) == 75 and len(val) == 25
        assert not set(train.indices.tolist()) & set(val.indices.tolist())

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            HyperplaneDataset(num_examples=0)
        with pytest.raises(ValueError):
            HyperplaneDataset(noise_std=-1)


class TestImageDatasets:
    def test_cifar_like_properties(self):
        ds = cifar10_like(num_examples=200, image_size=4, seed=0)
        assert len(ds) == 200
        assert ds.num_classes == 10
        batch = ds.get_batch(range(10))
        assert batch.inputs.shape == (10, 3, 4, 4)
        assert batch.targets.max() < 10

    def test_imagenet_like_many_classes(self):
        ds = imagenet_like(num_examples=300, num_classes=50, image_size=4, seed=0)
        assert ds.num_classes == 50
        assert set(np.unique(ds.labels)).issubset(set(range(50)))

    def test_signal_makes_classes_separable(self):
        ds = cifar10_like(num_examples=500, image_size=4, signal=5.0, seed=0)
        # Nearest-template classification should beat chance by a wide margin.
        flat_templates = ds.templates.reshape(ds.num_classes, -1)
        flat_images = ds.images.reshape(len(ds), -1)
        predicted = np.argmin(
            ((flat_images[:, None, :] - flat_templates[None]) ** 2).sum(-1), axis=1
        )
        assert (predicted == ds.labels).mean() > 0.9

    def test_split(self):
        ds = cifar10_like(num_examples=100, image_size=4, seed=0)
        train, val = ds.split(0.2, seed=0)
        assert len(train) == 80 and len(val) == 20
        assert train.get_batch([0]).inputs.shape == (1, 3, 4, 4)


class TestVideoDataset:
    def test_length_distribution_matches_paper(self):
        lengths = sample_video_lengths(9537, seed=0)
        assert lengths.min() >= UCF101_LENGTH_STATS.min_frames
        assert lengths.max() <= UCF101_LENGTH_STATS.max_frames
        assert abs(np.median(lengths) - UCF101_LENGTH_STATS.median_frames) < 20
        assert abs(lengths.std() - UCF101_LENGTH_STATS.std_frames) < 30

    def test_length_scale(self):
        full = sample_video_lengths(500, seed=1)
        scaled = sample_video_lengths(500, seed=1, scale=0.1)
        assert scaled.mean() == pytest.approx(full.mean() * 0.1, rel=0.1)

    def test_batch_padding_and_lengths(self):
        ds = VideoFeatureDataset(num_videos=50, feature_dim=8, num_classes=5,
                                 length_scale=0.05, seed=0)
        batch = ds.get_batch([0, 1, 2, 3])
        x, lengths = batch.inputs["x"], batch.inputs["lengths"]
        assert x.shape[0] == 4 and x.shape[2] == 8
        assert x.shape[1] == lengths.max()
        # Padding beyond each video's length must be zero.
        for row, length in enumerate(lengths):
            assert np.allclose(x[row, length:, :], 0.0)
        assert batch.size_hint == pytest.approx(float(lengths.sum()))

    def test_batches_are_reproducible(self):
        ds = VideoFeatureDataset(num_videos=20, feature_dim=4, length_scale=0.05, seed=3)
        a = ds.get_batch([1, 2]).inputs["x"]
        b = ds.get_batch([1, 2]).inputs["x"]
        assert np.allclose(a, b)

    def test_example_sizes(self):
        ds = VideoFeatureDataset(num_videos=10, feature_dim=4, length_scale=0.05, seed=0)
        assert np.array_equal(ds.example_sizes(), ds.frame_counts())


class TestSentenceDataset:
    def test_lengths_and_tokens(self):
        ds = SentenceDataset(num_sentences=100, vocab_size=64, num_classes=4, seed=0)
        batch = ds.get_batch([0, 1, 2])
        tokens, lengths = batch.inputs["tokens"], batch.inputs["lengths"]
        assert tokens.shape[0] == 3
        assert tokens.max() < 64
        assert tokens.shape[1] == lengths.max()

    def test_sentence_length_distribution(self):
        lengths = sample_sentence_lengths(5000, seed=0)
        assert lengths.min() >= 4 and lengths.max() <= 128
        assert 15 < np.median(lengths) < 30

    def test_class_token_bias(self):
        ds = SentenceDataset(num_sentences=400, vocab_size=100, num_classes=2, seed=0)
        # Sentences of class 0 should use low token ids more often than class 1.
        class0 = [ds._sentence_tokens(i) for i in range(400) if ds.labels[i] == 0][:50]
        class1 = [ds._sentence_tokens(i) for i in range(400) if ds.labels[i] == 1][:50]
        mean0 = np.mean([t.mean() for t in class0])
        mean1 = np.mean([t.mean() for t in class1])
        assert mean0 < mean1

    def test_vocab_validation(self):
        with pytest.raises(ValueError):
            SentenceDataset(vocab_size=3, num_classes=10)


class TestSplit:
    """``Dataset.split``: one view for every dataset."""

    DATASETS = {
        "hyperplane": lambda: HyperplaneDataset(num_examples=40, input_dim=4, seed=0),
        "images": lambda: cifar10_like(num_examples=40, image_size=4, seed=0),
        "videos": lambda: VideoFeatureDataset(num_videos=40, feature_dim=4, seed=0),
        "sentences": lambda: SentenceDataset(num_sentences=40, seed=0),
    }

    @pytest.mark.parametrize("name", DATASETS)
    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.1, 1.5])
    def test_out_of_range_fraction_rejected(self, name, fraction):
        with pytest.raises(ValueError, match=repr(fraction)):
            self.DATASETS[name]().split(fraction)

    @pytest.mark.parametrize("name", DATASETS)
    def test_views_partition_the_base_and_delegate(self, name):
        ds = self.DATASETS[name]()
        train, val = ds.split(0.25, seed=3)
        assert len(train) == 30 and len(val) == 10
        assert sorted([*train.indices, *val.indices]) == list(range(40))
        # Same permutation for every dataset: the seed alone decides it.
        other_train, _ = HyperplaneDataset(num_examples=40, input_dim=2).split(0.25, seed=3)
        assert np.array_equal(train.indices, other_train.indices)
        batch, direct = val.get_batch([0, 3]), ds.get_batch(val.indices[[0, 3]])
        assert np.array_equal(batch.indices, direct.indices)
        assert np.array_equal(batch.targets, direct.targets)
        sizes = ds.example_sizes()
        if sizes is None:
            assert val.example_sizes() is None
        else:
            assert np.array_equal(val.example_sizes(), sizes[val.indices])


class TestBucketing:
    def test_buckets_cover_all_and_are_ordered(self):
        lengths = np.array([5, 100, 7, 90, 50, 45, 8, 60])
        buckets = bucket_by_length(lengths, num_buckets=3)
        all_indices = np.concatenate(buckets)
        assert sorted(all_indices.tolist()) == list(range(8))
        maxima = [lengths[b].max() for b in buckets]
        minima = [lengths[b].min() for b in buckets]
        assert all(maxima[i] <= minima[i + 1] for i in range(len(buckets) - 1))

    def test_sampler_batches_within_buckets(self):
        rng = np.random.default_rng(0)
        lengths = rng.integers(1, 1000, size=200)
        sampler = BucketBatchSampler(lengths, batch_size=8, num_buckets=8, seed=0)
        global_range = lengths.max() - lengths.min()
        for batch in sampler.epoch_batches(0):
            batch_range = lengths[batch].max() - lengths[batch].min()
            # Each batch spans a small slice of the global length range.
            assert batch_range <= global_range / 3

    def test_drop_last(self):
        lengths = np.arange(1, 21)
        sampler = BucketBatchSampler(lengths, batch_size=8, num_buckets=1, drop_last=True)
        batches = list(sampler.epoch_batches(0))
        assert all(len(b) == 8 for b in batches)

    def test_batch_lengths_proxy(self):
        lengths = np.arange(1, 33)
        sampler = BucketBatchSampler(lengths, batch_size=4, num_buckets=2, shuffle=False)
        costs = sampler.batch_lengths(0)
        assert len(costs) == len(list(sampler.epoch_batches(0)))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            bucket_by_length([], num_buckets=2)
        with pytest.raises(ValueError):
            BucketBatchSampler([1, 2, 3], batch_size=0)

    @given(st.lists(st.integers(min_value=1, max_value=500), min_size=1, max_size=80))
    @settings(max_examples=30, deadline=None)
    def test_property_bucketing_partitions_indices(self, lengths):
        buckets = bucket_by_length(lengths, num_buckets=4)
        combined = sorted(int(i) for b in buckets for i in b)
        assert combined == list(range(len(lengths)))


class TestShardedLoader:
    def test_shards_are_disjoint_and_cover_global_batch(self):
        ds = cifar10_like(num_examples=64, image_size=4, seed=0)
        loaders = [
            ShardedLoader(ds, global_batch_size=16, rank=r, world_size=4, seed=7)
            for r in range(4)
        ]
        step_indices = [next(iter(l)).indices for l in loaders]
        combined = np.concatenate(step_indices)
        assert len(combined) == 16
        assert len(set(combined.tolist())) == 16

    def test_same_steps_per_epoch_across_ranks(self):
        ds = cifar10_like(num_examples=100, image_size=4, seed=0)
        loaders = [
            ShardedLoader(ds, global_batch_size=24, rank=r, world_size=3, seed=0)
            for r in range(3)
        ]
        counts = [len(list(l.epoch_batches(0))) for l in loaders]
        assert len(set(counts)) == 1
        assert counts[0] == loaders[0].steps_per_epoch()

    def test_different_epochs_shuffle_differently(self):
        ds = cifar10_like(num_examples=64, image_size=4, seed=0)
        loader = ShardedLoader(ds, global_batch_size=8, rank=0, world_size=1, seed=0)
        first = np.concatenate([b.indices for b in loader.epoch_batches(0)])
        second = np.concatenate([b.indices for b in loader.epoch_batches(1)])
        assert not np.array_equal(first, second)
        assert sorted(first.tolist()) == sorted(second.tolist())

    def test_validation_of_batch_divisibility(self):
        ds = cifar10_like(num_examples=64, image_size=4, seed=0)
        with pytest.raises(ValueError):
            ShardedLoader(ds, global_batch_size=10, rank=0, world_size=3)
        with pytest.raises(ValueError):
            ShardedLoader(ds, global_batch_size=2, rank=0, world_size=4)

    def test_bucketed_loader_requires_sizes_and_balances_steps(self):
        images = cifar10_like(num_examples=64, image_size=4, seed=0)
        with pytest.raises(ValueError):
            ShardedLoader(images, 16, bucket_by_length=True)
        videos = VideoFeatureDataset(num_videos=120, feature_dim=4, length_scale=0.03, seed=0)
        loaders = [
            ShardedLoader(videos, 16, rank=r, world_size=4, seed=0, bucket_by_length=True)
            for r in range(4)
        ]
        counts = [len(list(l.epoch_batches(0))) for l in loaders]
        assert len(set(counts)) == 1 and counts[0] == loaders[0].steps_per_epoch()

    def test_bucketed_loader_creates_interrank_imbalance(self):
        videos = VideoFeatureDataset(num_videos=240, feature_dim=4, length_scale=0.05, seed=1)
        loaders = [
            ShardedLoader(videos, 32, rank=r, world_size=4, seed=0, bucket_by_length=True)
            for r in range(4)
        ]
        per_rank_hints = np.array(
            [[b.size_hint for b in l.epoch_batches(0)] for l in loaders]
        )
        # At a given step the ranks should see meaningfully different
        # amounts of work (that is the whole point of Section 2.1).
        ratio = per_rank_hints.max(axis=0) / np.maximum(per_rank_hints.min(axis=0), 1)
        assert ratio.max() > 1.5
