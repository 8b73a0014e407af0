"""Tests for the communication topologies used by the collectives."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives import sync
from repro.collectives.topology import (
    HostTopology,
    bcast_order,
    binomial_tree_children,
    largest_power_of_two_leq,
)


class TestBinomialTree:
    def test_root_children_power_of_two(self):
        assert binomial_tree_children(0, 8, root=0) == [1, 2, 4]

    def test_every_non_root_rank_is_the_child_of_exactly_one_rank(self):
        for size in (1, 2, 3, 5, 8, 13, 16, 32):
            for root in (0, size // 2, size - 1):
                children = [
                    child
                    for rank in range(size)
                    for child in binomial_tree_children(rank, size, root)
                ]
                assert sorted(children) == sorted(set(range(size)) - {root})

    def test_every_rank_reached_exactly_once(self):
        for size in (1, 2, 3, 7, 8, 12, 16, 33):
            for root in (0, size - 1):
                edges = bcast_order(size, root)
                receivers = [dst for _, dst in edges]
                assert len(receivers) == size - 1
                assert len(set(receivers)) == size - 1
                assert root not in receivers

    def test_largest_power_of_two_leq(self):
        assert largest_power_of_two_leq(1) == 1
        assert largest_power_of_two_leq(9) == 8
        with pytest.raises(ValueError):
            largest_power_of_two_leq(0)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            binomial_tree_children(5, 4)
        with pytest.raises(ValueError):
            binomial_tree_children(0, 0)

    @given(
        size=st.integers(min_value=1, max_value=64),
        root=st.integers(min_value=0, max_value=63),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_broadcast_covers_world(self, size, root):
        root = root % size
        edges = bcast_order(size, root)
        reached = {root} | {dst for _, dst in edges}
        assert reached == set(range(size))
        # Senders must already be reached before they forward.
        seen = {root}
        for src, dst in edges:
            assert src in seen
            seen.add(dst)


ACTIVATION_SIZES = (2, 3, 4, 5, 6, 7, 8, 9, 16, 64)


class TestActivationChildren:
    """The binomial tree is the partial collectives' activation rule: the
    progress thread forwards along it from every initiator."""

    @pytest.mark.parametrize("size", ACTIVATION_SIZES)
    def test_every_offset_has_exactly_one_parent(self, size):
        for root in range(size):
            parents = {}
            for rank in range(size):
                for child in binomial_tree_children(rank, size, root):
                    parents.setdefault((child - root) % size, []).append(
                        (rank - root) % size
                    )
            assert sorted(parents) == list(range(1, size))
            for child, senders in parents.items():
                # The parent strips the child's top set bit.
                assert senders == [child - (1 << (child.bit_length() - 1))]

    @pytest.mark.parametrize("size", ACTIVATION_SIZES)
    def test_initiator_forwards_to_the_powers_of_two(self, size):
        for root in range(size):
            offsets = [1 << j for j in range(size.bit_length()) if (1 << j) < size]
            assert binomial_tree_children(root, size, root) == [
                (root + offset) % size for offset in offsets
            ]

    def test_no_forward_wraps_past_the_world(self):
        # At P = 5 offset 4 forwards to nobody (offset 4 + 4 and, under a
        # wrapping rule, 4 + 1 and 4 + 2 would leave the world), and
        # offset 1 forwards to 3 only (1 + 4 would wrap onto 0).
        for root in range(5):
            assert binomial_tree_children((root + 4) % 5, 5, root) == []
            assert binomial_tree_children((root + 1) % 5, 5, root) == [(root + 3) % 5]

    def test_single_rank_world_has_no_children(self):
        assert binomial_tree_children(0, 1, 0) == []


# The non-uniform layouts the hierarchical schedules must get right:
# a 3+1 world (one host degenerates to a lone leader) and a 4+2+2 world
# (three hosts of different sizes, leader ring of length 3).
THREE_PLUS_ONE = HostTopology([0, 0, 0, 1])
FOUR_TWO_TWO = HostTopology([0, 0, 0, 0, 1, 1, 2, 2])


def intra_edges(topology, host, stage):
    """``(sender, receiver)`` edges of ``host`` in the hierarchical plans'
    intra-host stage, in tag order: ``"hier-intra-reduce"`` (the
    reduce-scatter's first stage) or ``"hier-intra-bcast"`` (the
    allgather's last)."""
    build = sync.reduce_scatter_plan if stage == "hier-intra-reduce" else sync.allgather_plan
    sends = []
    for rank in topology.ranks_on_host(host):
        plan, _ = build("hierarchical", rank, topology.world_size, 1, 1, topology)
        sends += [
            (step.tag, rank, step.peer)
            for name, steps in plan if name == stage
            for step in steps if step.send
        ]
    return [(src, dst) for _, src, dst in sorted(sends)]


def intra_reduce_edges(topology, host):
    return intra_edges(topology, host, "hier-intra-reduce")


def intra_bcast_edges(topology, host):
    return intra_edges(topology, host, "hier-intra-bcast")


class TestHostTopology:
    def test_labels_canonicalised_in_first_appearance_order(self):
        assert HostTopology(["a", "a", "b"]).host_of == (0, 0, 1)
        assert HostTopology(["b", "a", "b"]).host_of == (0, 1, 0)
        assert HostTopology(["x", "y"]) == HostTopology([7, 3])

    def test_string_roundtrip(self):
        topo = HostTopology.from_string("node1, node1, node2, node1")
        assert topo.host_of == (0, 0, 1, 0)
        assert HostTopology.from_string(topo.to_string()) == topo
        with pytest.raises(ValueError):
            HostTopology.from_string(" , ,")

    def test_from_hosts_matches_explicit_labels(self):
        assert HostTopology.from_hosts([3, 1]) == THREE_PLUS_ONE
        assert HostTopology.from_hosts([4, 2, 2]) == FOUR_TWO_TWO
        with pytest.raises(ValueError):
            HostTopology.from_hosts([2, 0, 1])

    def test_single_host_is_degenerate(self):
        topo = HostTopology.single_host(4)
        assert topo.is_single_host
        assert topo.leaders == (0,)
        assert intra_reduce_edges(HostTopology([0]), 0) == []
        assert intra_bcast_edges(HostTopology([0]), 0) == []

    def test_three_plus_one_rank_queries(self):
        topo = THREE_PLUS_ONE
        assert topo.world_size == 4 and topo.num_hosts == 2
        assert not topo.is_single_host
        assert topo.ranks_on_host(0) == (0, 1, 2)
        assert topo.ranks_on_host(1) == (3,)
        assert topo.leaders == (0, 3)
        assert [topo.is_leader(r) for r in range(4)] == [True, False, False, True]
        assert topo.local_index(2) == 2 and topo.local_index(3) == 0

    def test_four_two_two_rank_queries(self):
        topo = FOUR_TWO_TWO
        assert topo.world_size == 8 and topo.num_hosts == 3
        assert topo.ranks_on_host(1) == (4, 5)
        assert topo.leaders == (0, 4, 6)
        assert topo.local_ranks(7) == (6, 7)
        assert topo.host(5) == 1

    @pytest.mark.parametrize("topo", [THREE_PLUS_ONE, FOUR_TWO_TWO])
    def test_intra_reduce_schedule_is_valid(self, topo):
        for host in range(topo.num_hosts):
            local = set(topo.ranks_on_host(host))
            leader = topo.leader_of(host)
            edges = intra_reduce_edges(topo, host)
            # Every non-leader sends exactly once; nothing leaves the host.
            senders = [src for src, _ in edges]
            assert sorted(senders) == sorted(local - {leader})
            assert all(src in local and dst in local for src, dst in edges)
            # Sequential validity: once a rank has sent, its partial sum
            # has left — it must not receive afterwards.
            done = set()
            for src, dst in edges:
                assert dst not in done
                done.add(src)
            assert leader not in done

    @pytest.mark.parametrize("topo", [THREE_PLUS_ONE, FOUR_TWO_TWO])
    def test_intra_bcast_reaches_host_from_leader(self, topo):
        for host in range(topo.num_hosts):
            local = set(topo.ranks_on_host(host))
            leader = topo.leader_of(host)
            reached = {leader}
            for src, dst in intra_bcast_edges(topo, host):
                assert src in reached  # senders already hold the result
                assert dst not in reached
                reached.add(dst)
            assert reached == local

    @pytest.mark.parametrize("topo", [THREE_PLUS_ONE, FOUR_TWO_TWO])
    def test_reduce_is_reversed_bcast(self, topo):
        for host in range(topo.num_hosts):
            down = intra_bcast_edges(topo, host)
            up = intra_reduce_edges(topo, host)
            assert up == [(dst, src) for src, dst in reversed(down)]

    @given(
        counts=st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=5)
    )
    @settings(max_examples=60, deadline=None)
    def test_property_schedules_cover_any_layout(self, counts):
        topo = HostTopology.from_hosts(counts)
        assert topo.world_size == sum(counts)
        covered = set()
        for host in range(topo.num_hosts):
            local = set(topo.ranks_on_host(host))
            assert covered.isdisjoint(local)
            covered |= local
            reached = {topo.leader_of(host)}
            for src, dst in intra_bcast_edges(topo, host):
                assert src in reached
                reached.add(dst)
            assert reached == local
        assert covered == set(range(topo.world_size))
        assert topo.leaders == tuple(
            min(topo.ranks_on_host(h)) for h in range(topo.num_hosts)
        )
