"""Tests for the synchronous allreduce algorithms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import launch
from repro.collectives import (
    ALLREDUCE_ALGORITHMS,
    allreduce,
)


def _allreduce_worker(comm, algorithm, op, elements):
    data = np.arange(elements, dtype=np.float64) + comm.rank
    return allreduce(comm, data, op=op, algorithm=algorithm)


class TestAllreduceAlgorithms:
    @pytest.mark.parametrize("algorithm", sorted(ALLREDUCE_ALGORITHMS))
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_sum_matches_numpy(self, algorithm, size):
        elements = 17
        results = launch(_allreduce_worker, size, algorithm, "sum", elements)
        expected = sum(np.arange(elements) + r for r in range(size))
        for r in results:
            assert np.allclose(r, expected)

    @pytest.mark.parametrize("algorithm", sorted(ALLREDUCE_ALGORITHMS))
    def test_max_reduction(self, algorithm):
        results = launch(lambda comm: allreduce(comm, np.array([comm.rank, -comm.rank]),
                                      op="max", algorithm=algorithm), 4)
        for r in results:
            assert np.allclose(r, [3, 0])

    @pytest.mark.parametrize("algorithm", sorted(ALLREDUCE_ALGORITHMS))
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 6, 8])
    def test_average_is_the_sum_divided_once(self, algorithm, size):
        """Wherever an algorithm divides (its owned window between the two
        phases, or the whole vector at the end): the same bits everywhere."""

        def worker(comm):
            data = np.random.default_rng(comm.rank).normal(size=23)
            total = allreduce(comm, data, algorithm=algorithm, n_chunks=2)
            mean = allreduce(comm, data, algorithm=algorithm, n_chunks=2, average=True)
            return total, mean

        results = launch(worker, size)
        for total, mean in results:
            assert mean.tobytes() == (total / size).tobytes()
            assert mean.tobytes() == results[0][1].tobytes()

    def test_unknown_algorithm(self):
        from repro.comm import ThreadWorld

        with ThreadWorld(1) as world:
            with pytest.raises(ValueError):
                allreduce(world.communicator(0), np.ones(2), algorithm="bogus")

    def test_back_to_back_collectives_do_not_interfere(self):
        def worker(comm):
            first = allreduce(comm, np.array([float(comm.rank)]))
            second = allreduce(comm, np.array([float(comm.rank * 10)]))
            return float(first[0]), float(second[0])

        for first, second in launch(worker, 4):
            assert first == 6.0
            assert second == 60.0

    def test_preserves_shape(self):
        results = launch(lambda comm: allreduce(comm, np.ones((3, 5)) * comm.rank, algorithm="ring"), 4)
        for r in results:
            assert r.shape == (3, 5)
            assert np.allclose(r, 6)

    @given(
        size=st.integers(min_value=1, max_value=6),
        elements=st.integers(min_value=1, max_value=40),
        algorithm=st.sampled_from(sorted(ALLREDUCE_ALGORITHMS)),
    )
    @settings(max_examples=20, deadline=None)
    def test_property_sum_invariant(self, size, elements, algorithm):
        results = launch(_allreduce_worker, size, algorithm, "sum", elements)
        expected = sum(np.arange(elements) + r for r in range(size))
        for r in results:
            assert np.allclose(r, expected)


class TestHierarchicalAllreduce:
    """Two-tier allreduce under explicit multi-host topologies.

    The conformance suite covers the single-host fallback (and the
    ``ALLREDUCE_ALGORITHMS`` parametrization above runs it at every
    size); these tests pin the genuinely hierarchical schedules at the
    non-uniform layouts 3+1 and 4+2+2.
    """

    @pytest.mark.parametrize("hosts", [(3, 1), (2, 2), (4, 2, 2)])
    @pytest.mark.parametrize("n_chunks", [1, 3])
    def test_matches_numpy_sum(self, hosts, n_chunks):
        from repro.collectives.topology import HostTopology

        size = sum(hosts)
        topology = HostTopology.from_hosts(hosts)
        elements = 23

        def worker(comm):
            data = np.arange(elements, dtype=np.float64) + comm.rank
            return allreduce(
                comm, data, algorithm="hierarchical", n_chunks=n_chunks,
                topology=topology,
            )

        expected = sum(np.arange(elements) + r for r in range(size))
        for r in launch(worker, size):
            assert np.allclose(r, expected)

    def test_average_divides_by_the_world_size(self):
        from repro.collectives.topology import HostTopology

        topology = HostTopology.from_hosts((3, 1))

        def worker(comm):
            data = np.random.default_rng(comm.rank).normal(size=23)
            total = allreduce(comm, data, algorithm="hierarchical", topology=topology)
            return total, allreduce(
                comm, data, algorithm="hierarchical", topology=topology, average=True
            )

        for total, mean in launch(worker, 4):
            assert mean.tobytes() == (total / 4).tobytes()

    def test_registry_routes_and_averages(self):
        def worker(comm):
            return allreduce(
                comm, np.full(5, comm.rank + 1.0),
                algorithm="hierarchical", average=True,
            )

        for r in launch(worker, 4):
            assert np.allclose(r, 2.5)

    def test_back_to_back_hierarchical_and_ring(self):
        from repro.collectives.topology import HostTopology

        topology = HostTopology.from_hosts((3, 1))

        def worker(comm):
            first = allreduce(
                comm, np.array([float(comm.rank)]), algorithm="hierarchical",
                topology=topology,
            )
            second = allreduce(comm, np.array([float(comm.rank * 10)]),
                               algorithm="ring")
            third = allreduce(
                comm, np.array([1.0]), algorithm="hierarchical", topology=topology
            )
            return float(first[0]), float(second[0]), float(third[0])

        for first, second, third in launch(worker, 4):
            assert (first, second, third) == (6.0, 60.0, 4.0)

    @pytest.mark.parametrize("hosts", [(3, 1), (4, 2, 2)])
    def test_compressed_replicas_bit_identical(self, hosts):
        from repro.collectives.topology import HostTopology
        from repro.compression import get_codec

        size = sum(hosts)
        topology = HostTopology.from_hosts(hosts)
        codec = get_codec("fp16")

        def worker(comm):
            data = np.full(64, comm.rank + 1.0)
            return allreduce(
                comm, data, algorithm="hierarchical", average=True,
                topology=topology, codec=codec,
            )

        results = launch(worker, size)
        expected = sum(range(1, size + 1)) / size
        assert len({r.tobytes() for r in results}) == 1  # exact replicas
        for r in results:
            assert np.allclose(r, expected, atol=1e-2)

    def test_topology_size_mismatch_rejected(self):
        from repro.collectives.topology import HostTopology

        topology = HostTopology.from_hosts((3, 1))

        def worker(comm):
            with pytest.raises(ValueError):
                allreduce(comm, np.ones(4), algorithm="hierarchical", topology=topology)
            return True

        assert all(launch(worker, 2))


class TestAllreduceCodec:
    """A reduce-closed codec is a wire dtype of the ring phases only."""

    def test_non_ring_algorithm_raises_naming_it(self):
        from repro.compression import get_codec

        def worker(comm):
            with pytest.raises(ValueError, match="'rabenseifner'"):
                allreduce(
                    comm, np.ones(8), algorithm="rabenseifner",
                    codec=get_codec("fp16"),
                )
            return True

        assert all(launch(worker, 2, backend="thread"))

    @pytest.mark.parametrize("algorithm", ["ring", "hierarchical"])
    def test_non_sum_op_raises(self, algorithm):
        from repro.compression import get_codec

        def worker(comm):
            with pytest.raises(ValueError, match="'max'"):
                allreduce(
                    comm, np.ones(8), op="max", algorithm=algorithm,
                    codec=get_codec("fp16"),
                )
            return True

        assert all(launch(worker, 2, backend="thread"))

    def test_codec_that_is_not_reduce_closed_raises(self):
        from repro.compression import get_codec

        def worker(comm):
            with pytest.raises(ValueError, match="'bf16'"):
                allreduce(
                    comm, np.ones(8), algorithm="ring", codec=get_codec("bf16")
                )
            return True

        assert all(launch(worker, 2, backend="thread"))

    def test_no_dedicated_compressed_allreduce_left(self):
        from repro.collectives import sync

        assert not [name for name in vars(sync) if name.startswith("allreduce_compressed")]
