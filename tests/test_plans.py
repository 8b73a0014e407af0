"""Synchronous schedules as data: plans, their executor and their interpreter.

Every flat-buffer phase of :mod:`repro.collectives.sync` is a cached plan
that :func:`~repro.collectives.sync.run_plan` executes.  These tests pin
what that promises: the thread-free interpreter of
:mod:`repro.analysis.schedule_verifier` sends exactly what the live
collective sends, a repeated collective builds no plan, the static path
catches a broken plan, and empty doubling windows travel as 0-element
arrays on a real transport.
"""

import numpy as np
import pytest

from repro.analysis import schedule_verifier as sv
from repro.analysis.recording import RecordingWorld
from repro.collectives import sharding, sync
from repro.collectives.topology import HostTopology
from repro.comm import available_backends, launch

SIZES = (2, 3, 4, 5, 8)


def _families(size):
    """``(name, plans(rank, n_chunks, topology), live(comm, n_chunks), topology)``
    of every sync plan family × host layout at ``size``."""
    length = size + 3
    out = []
    for algorithm in ("recursive_doubling", "ring", "rabenseifner"):
        out.append((
            f"allreduce[{algorithm}]",
            lambda rank, c, t, _a=algorithm: (
                sync.allreduce_plan(_a, rank, size, length, c, t, False),
            ),
            lambda comm, c, _a=algorithm: sync.allreduce(
                comm, sv.contribution(comm.rank, size), algorithm=_a, n_chunks=c
            ),
            None,
        ))
    for algorithm, gather in sync.ALLGATHER_FOR_REDUCE_SCATTER.items():
        if algorithm != "hierarchical":
            out.append(_split_family(size, algorithm, gather, None))
    for label, topology in sv._hier_topologies(size):
        topology = topology or HostTopology.single_host(size)
        out.append((
            f"allreduce[hierarchical,{label}]",
            lambda rank, c, t: (
                sync.allreduce_plan("hierarchical", rank, size, length, c, t, False),
            ),
            lambda comm, c: sync.allreduce(
                comm, sv.contribution(comm.rank, size), algorithm="hierarchical",
                n_chunks=c,
            ),
            topology,
        ))
        out.append(_split_family(size, "hierarchical", "hierarchical", topology, label))
    return out


def _split_family(size, algorithm, gather, topology, label=""):
    length = size + 3

    def plans(rank, c, t):
        return (
            sync.reduce_scatter_plan(algorithm, rank, size, length, c, t, False)[0],
            sync.allgather_plan(gather, rank, size, length, c, t, False)[0],
        )

    def live(comm, c):
        flat, _ = sharding.reduce_scatter(
            comm, sv.contribution(comm.rank, size), algorithm=algorithm, n_chunks=c
        )
        return sharding.allgather_flat(comm, flat, algorithm=gather, n_chunks=c)

    return f"reduce_scatter+allgather[{algorithm}{label and ',' + label}]", plans, live, topology


def _per_rank(events, size):
    lists = [[] for _ in range(size)]
    for e in sorted(events, key=lambda e: (e.rank, e.order)):
        lists[e.rank].append((e.kind, e.peer, e.tag, e.elements))
    return lists


_CASES = [
    pytest.param(size, n_chunks, family, id=f"P={size}/{family[0]}/chunks={n_chunks}")
    for size in SIZES
    for family in _families(size)
    for n_chunks in (1, 3)
]


@pytest.mark.parametrize("size,n_chunks,family", _CASES)
def test_interpreted_plan_sends_what_the_live_collective_sends(size, n_chunks, family):
    _name, plans, live, topology = family
    record = RecordingWorld(size, host_topology=topology).run(lambda comm: live(comm, n_chunks))
    assert not any(record.errors), record.errors
    interpreted = sv.interpret(
        [plans(rank, n_chunks, topology) for rank in range(size)],
        [sv.contribution(rank, size) for rank in range(size)],
    )
    assert not any(interpreted.errors), interpreted.errors
    assert _per_rank(interpreted.events, size) == _per_rank(record.events, size)
    for rank in range(size):
        np.testing.assert_array_equal(interpreted.results[rank], record.results[rank])


def test_static_sweep_covers_every_family_without_violations():
    results = [sv.run_plan_case(case) for case in sv.build_plan_cases(16)]
    names = {r.name for r in results}
    assert all(r.ok for r in results), [str(v) for r in results for v in r.violations]
    for family in ("recursive_doubling", "ring", "rabenseifner", "hierarchical,8+8"):
        assert f"plan:allreduce[{family},chunks=3]" in names
    assert "plan:reduce_scatter+allgather[hierarchical,flat,chunks=1]" in names


def test_static_sweep_stops_the_ring_at_256():
    assert sv.STATIC_WORLD_SIZES == (64, 256, 1024)
    names = [case.name for case in sv.build_plan_cases(1024)]
    assert not any("ring" in name or ("flat" in name and "allreduce" in name) for name in names)
    assert "plan:allreduce[rabenseifner,chunks=3]" in names


def test_plan_with_a_dropped_receive_is_rejected_statically():
    result = sv.run_plan_case(sv._mutant_plan_dropped_recv())
    assert any(
        v.check == "match" and "orphan send" in v.detail for v in result.violations
    ), [str(v) for v in result.violations]
    assert any(factory is sv._mutant_plan_dropped_recv for factory, _ in sv.MUTANTS)


def _repeat_worker(comm, algorithm, topology):
    data = np.arange(23, dtype=np.float64) + comm.rank
    if algorithm == "hierarchical":
        out = sync.allreduce_hierarchical(comm, data, n_chunks=2, topology=topology)
    else:
        out = sync.allreduce(comm, data, algorithm=algorithm, n_chunks=2)
    flat, _ = sharding.reduce_scatter(comm, data, algorithm="ring", n_chunks=2)
    sharding.allgather_flat(comm, flat, algorithm="ring", n_chunks=2)
    return out


_CACHED = (sync.reduce_scatter_plan, sync.allgather_plan, sync.allreduce_plan)


@pytest.mark.parametrize("algorithm", ["recursive_doubling", "ring", "rabenseifner", "hierarchical"])
def test_a_repeated_collective_builds_no_plan(algorithm):
    topology = HostTopology.from_hosts([2, 2])
    first = launch(_repeat_worker, 4, algorithm, topology, backend="thread")
    misses = [plan.cache_info().misses for plan in _CACHED]
    hits = [plan.cache_info().hits for plan in _CACHED]
    again = launch(_repeat_worker, 4, algorithm, topology, backend="thread")
    assert [plan.cache_info().misses for plan in _CACHED] == misses
    assert sum(plan.cache_info().hits for plan in _CACHED) > sum(hits)
    for a, b in zip(first, again):
        np.testing.assert_array_equal(a, b)


def _empty_windows_worker(comm):
    data = np.arange(3, dtype=np.float64) + 10.0 * comm.rank
    flat, window = sharding.reduce_scatter(comm, data, algorithm="halving")
    owned = flat[window[0]:window[1]].copy()
    return window, owned, sharding.allgather_flat(comm, flat, algorithm="doubling")


@pytest.mark.skipif("process" not in available_backends(), reason="no process backend")
def test_empty_doubling_windows_on_the_process_backend():
    """3 elements over P = 5: the bisection walk leaves in-group rank 0 and
    the folded-out extra rank 4 an empty window, so some doubling rounds
    carry 0-element arrays."""
    results = launch(_empty_windows_worker, 5, backend="process", timeout=120.0)
    expected = sum(np.arange(3, dtype=np.float64) + 10.0 * r for r in range(5))
    windows = [window for window, _, _ in results]
    assert windows == sharding.shard_bounds(3, 5, "halving")
    assert windows[0] == (0, 0) and windows[4] == (0, 0)
    for (lo, hi), owned, full in results:
        np.testing.assert_array_equal(owned, expected[lo:hi])
        np.testing.assert_array_equal(full, expected)
