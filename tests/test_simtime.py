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
    message_time,
    partial_round,
    project_training_time,
    synchronous_allreduce_latencies,
)
from repro.collectives.topology import HostTopology
from repro.simtime.collective_model import collective_time
from repro.tuning.autotune import predict_exchange_time


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
    """The hierarchical (intra-host tree + leader-ring) plans, priced per
    link class: intra-host pairs at ``params``, inter-host at ``inter``."""

    SLOW_INTER = LogGPParams(
        alpha=100e-6, beta=20e-9, gamma=2e-9, collective_overhead=10e-6
    )

    def hier(self, nbytes, hosts, inter=None, n_chunks=1, wire=None):
        topology = HostTopology.from_hosts(hosts)
        return collective_time(
            "allreduce", "hierarchical", topology.world_size, nbytes, n_chunks,
            DEFAULT_NETWORK, topology, inter or self.SLOW_INTER,
            wire_bytes_per_element=wire,
        )

    def test_single_host_degenerates_to_flat_ring(self):
        nbytes = 1024 * 1024
        assert self.hier(nbytes, [8], n_chunks=2) == allreduce_time(
            nbytes, 8, "ring", DEFAULT_NETWORK, n_chunks=2
        )
        one_host = predict_exchange_time(
            DEFAULT_NETWORK, 8, nbytes, "ring", 256 * 1024, 2,
            ranks_per_host=[8], inter_params=self.SLOW_INTER,
        )
        assert one_host == predict_exchange_time(
            DEFAULT_NETWORK, 8, nbytes, "ring", 256 * 1024, 2
        )

    def test_grows_with_bytes_and_slower_inter_link(self):
        fast = self.hier(64 * 1024, [4, 4], inter=DEFAULT_NETWORK)
        slow = self.hier(64 * 1024, [4, 4])
        big = self.hier(4 * 1024 * 1024, [4, 4])
        assert 0 < fast < slow < big

    def test_hierarchy_beats_flat_ring_over_slow_links(self):
        # A flat 8-rank ring over two hosts sends 2(P-1)/P of the data
        # across the slow link; the hierarchical schedule only crosses it
        # on the 2-leader ring.
        nbytes = 4 * 1024 * 1024
        topology = HostTopology.from_hosts([4, 4])
        flat_over_two_hosts = collective_time(
            "allreduce", "ring", 8, nbytes, 1, DEFAULT_NETWORK, topology,
            self.SLOW_INTER,
        )
        assert self.hier(nbytes, [4, 4]) < flat_over_two_hosts

    def test_codec_wire_shrinks_leader_ring_only(self):
        nbytes = 4 * 1024 * 1024
        full = self.hier(nbytes, [4, 4])
        compressed = self.hier(nbytes, [4, 4], wire=0.25)
        assert 0 < compressed < full
        # The intra-host tiers stay dense: on one host the hierarchical
        # reduce-scatter has no leader ring, so a codec changes nothing.
        intra_only = collective_time(
            "reduce_scatter", "hierarchical", 8, nbytes, 1, DEFAULT_NETWORK,
            HostTopology.from_hosts([8]), self.SLOW_INTER, 1, 0.25,
        )
        assert intra_only == collective_time(
            "reduce_scatter", "hierarchical", 8, nbytes, 1, DEFAULT_NETWORK,
            HostTopology.from_hosts([8]), self.SLOW_INTER, 1,
        )

    def test_non_uniform_hosts_accepted(self):
        assert self.hier(1024 * 1024, (4, 2, 2)) > 0

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            HostTopology.from_hosts([])
        with pytest.raises(ValueError):
            HostTopology.from_hosts([2, 0])
        with pytest.raises(ValueError, match="covers 4 rank"):
            collective_time(
                "allreduce", "hierarchical", 8, 1024, 1, DEFAULT_NETWORK,
                HostTopology.from_hosts([2, 2]),
            )


class TestSkew:
    def test_linear_skew(self):
        arr = linear_skew(4, 2.0)
        assert np.allclose(arr, [0.0, 0.002, 0.004, 0.006])

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            linear_skew(0)


def _solo(arrivals, nbytes):
    """Solo: the earliest arrival initiates."""
    return partial_round(arrivals, int(np.argmin(arrivals)), allreduce_time(nbytes, arrivals.size))


def _quorum(arrivals, nbytes, quorum):
    """Quorum: the Q-th arrival (stable order) initiates."""
    initiator = int(np.argsort(arrivals, kind="stable")[quorum - 1])
    return partial_round(arrivals, initiator, allreduce_time(nbytes, arrivals.size))


class TestCollectiveLatencyModel:
    def test_ordering_solo_majority_sync(self):
        arrivals = linear_skew(32, 1.0)
        sync = synchronous_allreduce_latencies(arrivals, 4096)
        solo = _solo(arrivals, 4096)
        maj = partial_round(arrivals, 16, allreduce_time(4096, 32))
        assert solo.average_latency < maj.average_latency < sync.average_latency

    def test_nap_expectations(self):
        arrivals = linear_skew(32, 1.0)
        solo = _solo(arrivals, 64)
        assert solo.num_active <= 2
        cost = allreduce_time(64, 32)
        majs = [partial_round(arrivals, i, cost).num_active for i in range(32)]
        assert 14 <= np.mean(majs) <= 18

    def test_quorum_interpolates(self):
        arrivals = linear_skew(16, 1.0)
        q1 = _quorum(arrivals, 64, quorum=1)
        q8 = _quorum(arrivals, 64, quorum=8)
        q16 = _quorum(arrivals, 64, quorum=16)
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
            synchronous_allreduce_latencies([-1.0, 0.0], 64)

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
        solo = _solo(arrivals, nbytes)
        overhead = activation_time(size) + RESULT_CHECK_OVERHEAD
        assert solo.average_latency <= sync.average_latency + overhead + 1e-12


class TestTrainingProjection:
    def _timeline(self, seed=0, steps=50, ranks=8, straggler=None):
        rng = np.random.default_rng(seed)
        durations = np.abs(rng.normal(0.4, 0.05, size=(steps, ranks)))
        if straggler is not None:
            durations[:, straggler] += 0.4
        return StepTimeline(durations)

    #: A 4 MiB recursive-doubling allreduce at P = 8.
    COST = allreduce_time(1 << 22, 8)

    @staticmethod
    def _initiators(seed, steps=50, ranks=8):
        rng = np.random.default_rng(seed)
        return [int(rng.integers(0, ranks)) for _ in range(steps)]

    def test_sync_slower_than_solo_under_imbalance(self):
        tl = self._timeline(straggler=3)
        cost = allreduce_time(1 << 20, 8)
        sync = project_training_time(tl, "sync", exchange_cost=cost)
        solo = project_training_time(tl, "solo", exchange_cost=cost)
        majority = project_training_time(
            tl, "majority", exchange_cost=cost, initiators=self._initiators(1)
        )
        assert solo.total_time < majority.total_time < sync.total_time
        assert solo.throughput > sync.throughput

    def test_nap_per_mode(self):
        tl = self._timeline()
        sync = project_training_time(tl, "sync", exchange_cost=self.COST)
        solo = project_training_time(tl, "solo", exchange_cost=self.COST)
        assert np.all(sync.num_active_per_step == 8)
        assert np.all(solo.num_active_per_step >= 1)

    def test_quorum_requires_valid_value(self):
        tl = self._timeline()
        with pytest.raises(ValueError):
            project_training_time(tl, "quorum", exchange_cost=self.COST, quorum=99)
        proj = project_training_time(tl, "quorum", exchange_cost=self.COST, quorum=4)
        assert np.all(proj.num_active_per_step >= 1)

    def test_model_sync_period_adds_time(self):
        tl = self._timeline()
        without = project_training_time(tl, "solo", exchange_cost=self.COST)
        with_sync = project_training_time(
            tl, "solo", exchange_cost=self.COST, model_sync_period=5
        )
        assert with_sync.total_time > without.total_time

    def test_step_completion_monotone(self):
        tl = self._timeline()
        proj = project_training_time(
            tl, "majority", exchange_cost=self.COST, initiators=self._initiators(2)
        )
        diffs = np.diff(proj.step_completion_times)
        assert np.all(diffs >= -1e-12)

    def test_majority_replays_the_given_initiators(self):
        # Each step is one partial_round started by the given initiator.
        tl = self._timeline(steps=3)
        initiators = [5, 0, 7]
        proj = project_training_time(
            tl, "majority", exchange_cost=self.COST, initiators=initiators
        )
        ready = np.zeros(8)
        for t, initiator in enumerate(initiators):
            arrivals = ready + tl.durations[t]
            round_ = partial_round(arrivals, initiator, self.COST)
            assert proj.num_active_per_step[t] == round_.num_active
            ready = np.maximum(arrivals, round_.completion_time)
            assert proj.step_completion_times[t] == ready.max()
        with pytest.raises(ValueError, match=r"in \[0, 8\]"):
            project_training_time(tl, "majority", exchange_cost=self.COST, initiators=[0, 1, 8])

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            StepTimeline(np.zeros((3,)))
        with pytest.raises(ValueError):
            StepTimeline(-np.ones((2, 2)))
        with pytest.raises(ValueError):
            project_training_time(self._timeline(), "bogus", exchange_cost=self.COST)
