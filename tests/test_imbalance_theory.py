"""Tests for the load-imbalance models and the staleness / quorum trackers."""

import numpy as np
import pytest

from repro.data.ucf101 import VideoFeatureDataset
from repro.imbalance import (
    CloudNoiseDelay,
    FixedCostModel,
    NoDelay,
    QuadraticSequenceCostModel,
    RandomSubsetDelay,
    RotatingSkewDelay,
    SequenceCostModel,
    lstm_ucf101_cost_model,
    resnet50_cloud_cost_model,
    transformer_wmt_cost_model,
)
from repro.theory import (
    QuorumTracker,
    StalenessTracker,
)


class TestDelayInjectors:
    def test_no_delay(self):
        assert np.all(NoDelay().delays(0, 8) == 0)

    def test_random_subset_selects_exactly_k(self):
        injector = RandomSubsetDelay(num_delayed=3, delay_ms=200.0, seed=1)
        for step in range(10):
            d = injector.delays(step, 16)
            assert np.sum(d > 0) == 3
            assert np.allclose(d[d > 0], 0.2)

    def test_random_subset_is_deterministic_and_varies_by_step(self):
        injector = RandomSubsetDelay(1, 100.0, seed=2)
        a = injector.delays(5, 8)
        b = injector.delays(5, 8)
        assert np.array_equal(a, b)
        later = [tuple(injector.delays(s, 8)) for s in range(20)]
        assert len(set(later)) > 1

    def test_random_subset_too_many(self):
        with pytest.raises(ValueError):
            RandomSubsetDelay(5, 10.0).delays(0, 4)

    def test_rotating_skew_rotates(self):
        injector = RotatingSkewDelay(50.0, 400.0)
        d0 = injector.delays(0, 8)
        d1 = injector.delays(1, 8)
        assert sorted(d0.tolist()) == sorted(d1.tolist())
        assert not np.allclose(d0, d1)
        assert d0.min() == pytest.approx(0.05) and d0.max() == pytest.approx(0.4)

    def test_cloud_noise_long_tail(self):
        injector = CloudNoiseDelay(median_ms=30.0, sigma=1.0, seed=0)
        samples = np.concatenate([injector.delays(s, 64) for s in range(50)])
        assert np.median(samples) == pytest.approx(0.03, rel=0.3)
        assert samples.max() > 4 * np.median(samples)

    def test_delay_for_rank_matches_delays(self):
        injector = RandomSubsetDelay(2, 100.0, seed=0)
        all_delays = injector.delays(3, 8)
        for rank in range(8):
            assert injector.delay_for_rank(3, rank, 8) == all_delays[rank]

    def test_describe_strings(self):
        assert "RandomSubsetDelay" in RandomSubsetDelay(1, 10).describe()
        assert "RotatingSkewDelay" in RotatingSkewDelay().describe()


class TestCostModels:
    def test_fixed_cost(self):
        model = FixedCostModel(0.25)
        assert model.cost_from_size(1000) == 0.25

    def test_sequence_cost_monotone_and_capped(self):
        model = SequenceCostModel(base_seconds=0.1, seconds_per_unit=0.001, cap_seconds=0.5)
        assert model.cost_from_size(100) < model.cost_from_size(200)
        assert model.cost_from_size(10_000) == 0.5

    def test_sequence_cost_needs_hint(self):
        from repro.data.loader import Batch

        model = SequenceCostModel(0.1, 0.001)
        with pytest.raises(ValueError):
            model.batch_cost(Batch(inputs=np.zeros(3), targets=np.zeros(3), indices=np.arange(3)))

    def test_lstm_cost_model_matches_fig2_range(self):
        model = lstm_ucf101_cost_model(batch_size=16)
        short = model.cost_from_size(16 * 29)
        long = model.cost_from_size(16 * 1776)
        assert short == pytest.approx(0.201, rel=0.05)
        assert long == pytest.approx(3.41, rel=0.05)

    def test_transformer_cost_model_quadratic_tail(self):
        model = transformer_wmt_cost_model(batch_size=64)
        short = model.cost_from_size(64 * 4)
        mean = model.cost_from_size(64 * 22)
        long = model.cost_from_size(64 * 128)
        assert short == pytest.approx(0.179, rel=0.1)
        assert mean == pytest.approx(0.475, rel=0.1)
        assert long > 5 * mean  # quadratic attention cost dominates the tail

    def test_quadratic_model_uses_lengths_when_available(self):
        videos = VideoFeatureDataset(num_videos=20, feature_dim=4, length_scale=0.05, seed=0)
        batch = videos.get_batch(range(4))
        model = QuadraticSequenceCostModel(
            base_seconds=0.1, seconds_per_unit=1e-3, seconds_per_unit_sq=1e-5, batch_size=4
        )
        assert model.batch_cost(batch) > 0.1

    def test_resnet_cloud_cost(self):
        assert resnet50_cloud_cost_model().seconds_per_batch == pytest.approx(0.399)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            FixedCostModel(-1.0)
        with pytest.raises(ValueError):
            SequenceCostModel(-0.1, 0.0)
        with pytest.raises(ValueError):
            QuadraticSequenceCostModel(0.1, 0.0, 0.0, batch_size=0)


class TestTrackers:
    def test_staleness_tracker(self):
        tracker = StalenessTracker()
        for included in [True, False, False, True, False, True]:
            tracker.record(included)
        assert tracker.rounds == 6
        assert tracker.max_staleness == 2
        assert tracker.inclusion_rate == pytest.approx(3 / 6)

    def test_staleness_pending_streak_counts(self):
        tracker = StalenessTracker()
        tracker.record(False)
        tracker.record(False)
        assert tracker.max_staleness == 2

    def test_quorum_tracker(self):
        tracker = QuorumTracker(world_size=8)
        for nap in [8, 5, 4, 3]:
            tracker.record(nap)
        assert tracker.min_quorum == 3
        assert tracker.mean_quorum == pytest.approx(5.0)
        assert tracker.majority_fraction() == pytest.approx(3 / 4)

    def test_quorum_tracker_validation(self):
        tracker = QuorumTracker(world_size=4)
        with pytest.raises(ValueError):
            tracker.record(9)
        with pytest.raises(ValueError):
            QuorumTracker(0)
