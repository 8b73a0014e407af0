"""Tests for the analytic latency models and the training-time projector."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simtime import (
    DEFAULT_NETWORK,
    LogGPParams,
    StepTimeline,
    activation_time,
    allreduce_time,
    broadcast_time,
    linear_skew,
    majority_allreduce_latencies,
    message_time,
    project_training_time,
    solo_allreduce_latencies,
    synchronous_allreduce_latencies,
)
from repro.simtime.collective_model import (
    fused_exchange_time,
    hierarchical_fused_exchange_time,
    quorum_allreduce_latencies,
)


class TestNetworkModel:
    def test_message_time_monotone_in_size(self):
        assert message_time(1024) > message_time(64) > 0

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            message_time(-1)

    def test_allreduce_time_grows_with_size_and_ranks(self):
        small = allreduce_time(64, 8)
        large = allreduce_time(4 * 1024 * 1024, 8)
        more_ranks = allreduce_time(64, 64)
        assert large > small
        assert more_ranks > small

    def test_algorithms_differ_for_large_messages(self):
        nbytes = 16 * 1024 * 1024
        rd = allreduce_time(nbytes, 32, "recursive_doubling")
        ring = allreduce_time(nbytes, 32, "ring")
        # Ring is bandwidth-optimal: cheaper than recursive doubling for
        # large payloads.
        assert ring < rd

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            allreduce_time(64, 8, "bogus")

    def test_broadcast_and_activation(self):
        assert broadcast_time(16, 1) == 0.0
        assert activation_time(32) > activation_time(2) > 0


class TestTwoTierModel:
    """The hierarchical (intra-host tree + leader-ring) latency model."""

    SLOW_INTER = LogGPParams(
        alpha=100e-6, beta=20e-9, gamma=2e-9, collective_overhead=10e-6
    )

    def test_single_host_degenerates_to_flat_ring(self):
        nbytes = 1024 * 1024
        assert hierarchical_fused_exchange_time(
            [nbytes], [8], DEFAULT_NETWORK, self.SLOW_INTER, n_chunks=2
        ) == allreduce_time(nbytes, 8, "ring", DEFAULT_NETWORK, n_chunks=2)
        buckets = [256 * 1024] * 4
        assert hierarchical_fused_exchange_time(
            buckets, [8], DEFAULT_NETWORK, self.SLOW_INTER, n_chunks=2
        ) == fused_exchange_time(buckets, 8, "ring", DEFAULT_NETWORK, n_chunks=2)

    def test_grows_with_bytes_and_slower_inter_link(self):
        fast = hierarchical_fused_exchange_time(
            [64 * 1024], [4, 4], DEFAULT_NETWORK, DEFAULT_NETWORK
        )
        slow = hierarchical_fused_exchange_time(
            [64 * 1024], [4, 4], DEFAULT_NETWORK, self.SLOW_INTER
        )
        big = hierarchical_fused_exchange_time(
            [4 * 1024 * 1024], [4, 4], DEFAULT_NETWORK, self.SLOW_INTER
        )
        assert 0 < fast < slow < big

    def test_hierarchy_beats_flat_ring_over_slow_links(self):
        # Over a fabric where every hop pays the slow inter-host link, a
        # flat 8-rank ring sends 2(P-1)/P of the data across it; the
        # hierarchical schedule only crosses it on the 2-leader ring.
        nbytes = 4 * 1024 * 1024
        flat_over_slow = allreduce_time(nbytes, 8, "ring", self.SLOW_INTER)
        hier = hierarchical_fused_exchange_time(
            [nbytes], [4, 4], DEFAULT_NETWORK, self.SLOW_INTER
        )
        assert hier < flat_over_slow

    def test_inter_scale_shrinks_leader_ring_only(self):
        buckets = [512 * 1024] * 4
        full = hierarchical_fused_exchange_time(
            buckets, [4, 4], DEFAULT_NETWORK, self.SLOW_INTER
        )
        compressed = hierarchical_fused_exchange_time(
            buckets, [4, 4], DEFAULT_NETWORK, self.SLOW_INTER, inter_scale=0.25
        )
        assert 0 < compressed < full

    def test_non_uniform_hosts_accepted(self):
        t = hierarchical_fused_exchange_time(
            [1024 * 1024], (4, 2, 2), DEFAULT_NETWORK, self.SLOW_INTER
        )
        assert t > 0

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            hierarchical_fused_exchange_time([1024], [], DEFAULT_NETWORK, self.SLOW_INTER)
        with pytest.raises(ValueError):
            hierarchical_fused_exchange_time([1024], [2, 0], DEFAULT_NETWORK, self.SLOW_INTER)
        with pytest.raises(ValueError):
            hierarchical_fused_exchange_time(
                [1024], [2, 2], DEFAULT_NETWORK, self.SLOW_INTER, inter_scale=0.0
            )


class TestSkew:
    def test_linear_skew(self):
        arr = linear_skew(4, 2.0)
        assert np.allclose(arr, [0.0, 0.002, 0.004, 0.006])

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            linear_skew(0)


class TestCollectiveLatencyModel:
    def test_ordering_solo_majority_sync(self):
        arrivals = linear_skew(32, 1.0)
        sync = synchronous_allreduce_latencies(arrivals, 4096)
        solo = solo_allreduce_latencies(arrivals, 4096)
        maj = majority_allreduce_latencies(arrivals, 4096, initiator=16)
        assert solo.average_latency < maj.average_latency < sync.average_latency

    def test_nap_expectations(self):
        arrivals = linear_skew(32, 1.0)
        solo = solo_allreduce_latencies(arrivals, 64)
        assert solo.num_active <= 2
        majs = [
            majority_allreduce_latencies(arrivals, 64, initiator=i).num_active
            for i in range(32)
        ]
        assert 14 <= np.mean(majs) <= 18

    def test_quorum_interpolates(self):
        arrivals = linear_skew(16, 1.0)
        q1 = quorum_allreduce_latencies(arrivals, 64, quorum=1)
        q8 = quorum_allreduce_latencies(arrivals, 64, quorum=8)
        q16 = quorum_allreduce_latencies(arrivals, 64, quorum=16)
        assert q1.average_latency <= q8.average_latency <= q16.average_latency
        assert q1.num_active <= q8.num_active <= q16.num_active

    def test_sync_latency_is_completion_minus_arrival(self):
        arrivals = np.array([0.0, 0.01])
        res = synchronous_allreduce_latencies(arrivals, 64)
        assert res.latencies[0] > res.latencies[1]

    def test_invalid_arrivals(self):
        with pytest.raises(ValueError):
            synchronous_allreduce_latencies([], 64)
        with pytest.raises(ValueError):
            solo_allreduce_latencies([-1.0, 0.0], 64)

    @given(
        size=st.sampled_from([2, 4, 8, 16, 32]),
        step_ms=st.floats(min_value=0.1, max_value=10.0),
        nbytes=st.sampled_from([64, 4096, 262144]),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_solo_never_much_slower_than_sync(self, size, step_ms, nbytes):
        # Solo allreduce can only lose by its fixed overheads (activation
        # broadcast + result check); under any skew it never loses more.
        from repro.simtime.collective_model import RESULT_CHECK_OVERHEAD

        arrivals = linear_skew(size, step_ms)
        sync = synchronous_allreduce_latencies(arrivals, nbytes)
        solo = solo_allreduce_latencies(arrivals, nbytes)
        overhead = activation_time(size) + RESULT_CHECK_OVERHEAD
        assert solo.average_latency <= sync.average_latency + overhead + 1e-12


class TestTrainingProjection:
    def _timeline(self, seed=0, steps=50, ranks=8, straggler=None):
        rng = np.random.default_rng(seed)
        durations = np.abs(rng.normal(0.4, 0.05, size=(steps, ranks)))
        if straggler is not None:
            durations[:, straggler] += 0.4
        return StepTimeline(durations)

    def test_sync_slower_than_solo_under_imbalance(self):
        tl = self._timeline(straggler=3)
        sync = project_training_time(tl, "sync", gradient_bytes=1 << 20)
        solo = project_training_time(tl, "solo", gradient_bytes=1 << 20)
        majority = project_training_time(tl, "majority", gradient_bytes=1 << 20, seed=1)
        assert solo.total_time < majority.total_time < sync.total_time
        assert solo.throughput > sync.throughput

    def test_nap_per_mode(self):
        tl = self._timeline()
        sync = project_training_time(tl, "sync")
        solo = project_training_time(tl, "solo")
        assert np.all(sync.num_active_per_step == 8)
        assert np.all(solo.num_active_per_step >= 1)

    def test_quorum_requires_valid_value(self):
        tl = self._timeline()
        with pytest.raises(ValueError):
            project_training_time(tl, "quorum", quorum=99)
        proj = project_training_time(tl, "quorum", quorum=4)
        assert np.all(proj.num_active_per_step >= 1)

    def test_model_sync_period_adds_time(self):
        tl = self._timeline()
        without = project_training_time(tl, "solo", gradient_bytes=1 << 22)
        with_sync = project_training_time(
            tl, "solo", gradient_bytes=1 << 22, model_sync_period=5
        )
        assert with_sync.total_time > without.total_time

    def test_step_completion_monotone(self):
        tl = self._timeline()
        proj = project_training_time(tl, "majority", seed=2)
        diffs = np.diff(proj.step_completion_times)
        assert np.all(diffs >= -1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            StepTimeline(np.zeros((3,)))
        with pytest.raises(ValueError):
            StepTimeline(-np.ones((2, 2)))
        with pytest.raises(ValueError):
            project_training_time(self._timeline(), "bogus")
