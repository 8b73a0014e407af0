"""Synchronous schedules as data: plans, their executor and their interpreter.

Every flat-buffer phase of :mod:`repro.collectives.sync` is a cached plan
that :func:`~repro.collectives.sync.run_plan` executes.  These tests pin
what that promises: for every case of the verifier's plan table — each
collective, the interleaved sequence and the deep500 / sharded
exchanges' bucket plans — the thread-free interpreter of
:mod:`repro.analysis.schedule_verifier` sends exactly what a recorded run
of the live code sends and reads the same values; a repeated collective
builds no plan, the static path catches a broken plan, and empty
doubling windows travel as 0-element arrays on a real transport.
"""

import numpy as np
import pytest

from repro.analysis import schedule_verifier as sv
from repro.analysis.recording import RecordingWorld
from repro.collectives import sharding, sync
from repro.collectives.topology import HostTopology
from repro.comm import available_backends, launch

SIZES = (2, 3, 4, 5, 8)


def _live(size):
    """``name -> (fn(comm, x), host topology)``: the live code behind every
    case of ``sv.build_plan_cases(size)``, run on the case's input ``x``;
    it returns what the case reads."""
    n = size + 3
    two_hosts = HostTopology.from_hosts([size - size // 2, size // 2])

    def split(algorithm, n_chunks, codec=None):
        def fn(comm, x):
            flat, _ = sharding.reduce_scatter(
                comm, x, algorithm=algorithm, n_chunks=n_chunks, codec=codec
            )
            return sharding.allgather_flat(
                comm, flat, algorithm=sync.ALLGATHER_FOR_REDUCE_SCATTER[algorithm],
                n_chunks=n_chunks, codec=codec,
            )
        return fn

    def owned(algorithm, n_chunks):
        def fn(comm, x):
            flat, (lo, hi) = sharding.reduce_scatter(
                comm, x, algorithm=algorithm, n_chunks=n_chunks
            )
            return flat[lo:hi].copy()
        return fn

    def interleaved(comm, x):
        dense = sync.allreduce(comm, x[:n], algorithm="ring")
        flat, _ = sharding.reduce_scatter(comm, x[2 * n:], algorithm="ring")
        doubled = sync.allreduce(comm, x[n:2 * n], algorithm="recursive_doubling")
        return np.concatenate([dense, doubled, sharding.allgather_flat(comm, flat)])

    def deep500(algorithm):
        def fn(comm, x):
            from repro.training.exchange import SynchronousExchange
            with SynchronousExchange(
                comm, style="deep500", algorithm=algorithm,
                fusion_threshold_bytes=sv._two_buckets(x.size),
            ) as ex:
                return ex.exchange(x).gradient
        return fn

    def zero1(algorithm):
        def fn(comm, x):
            """Zeroed parameters and ``SGD(lr=1)``: the updated model is
            minus the averaged gradient, exactly."""
            import repro.nn as nn
            from repro.nn.optim import SGD
            from repro.nn.parameters import flatten_parameters
            from repro.training.exchange import ShardedExchange

            model = nn.Sequential(nn.Dense(size + 4, 2, seed=20260808))
            flatten_parameters(model)[:] = 0.0
            ex = ShardedExchange(
                comm, algorithm=algorithm, fusion_threshold_bytes=sv._two_buckets(x.size)
            )
            ex.exchange_update(x, model, SGD(model, 1.0))
            return -flatten_parameters(model)
        return fn

    from repro.compression import get_codec
    fp16 = get_codec("fp16")
    live = {
        "allreduce[ring,average]": (
            lambda comm, x: sync.allreduce(comm, x, algorithm="ring", average=True), None),
        "allreduce[compressed_ring,fp16]": (
            lambda comm, x: sync.allreduce(comm, x, algorithm="ring", n_chunks=2, codec=fp16),
            None),
        "allreduce[compressed_hierarchical,fp16]": (
            lambda comm, x: sync.allreduce(comm, x, algorithm="hierarchical", codec=fp16),
            two_hosts),
        "reduce_scatter+allgather[compressed_ring,fp16]": (split("ring", 2, fp16), None),
        "interleaved[allreduce+reduce_scatter+allreduce+allgather_flat]": (interleaved, None),
        "exchange[deep500,ring,buckets=2]": (deep500("ring"), None),
        "exchange[deep500,hierarchical,multi-host]": (deep500("hierarchical"), two_hosts),
        "sharded-exchange[zero1,ring,buckets=2]": (zero1("ring"), None),
        "sharded-exchange[zero1,halving,buckets=2]": (zero1("halving"), None),
        "sharded-exchange[zero1,hierarchical,multi-host]": (zero1("ring"), two_hosts),
    }
    for algorithm in ("recursive_doubling", "ring", "rabenseifner"):
        for c in (1, 3):
            live[f"allreduce[{algorithm},chunks={c}]"] = (
                lambda comm, x, _a=algorithm, _c=c: sync.allreduce(
                    comm, x, algorithm=_a, n_chunks=_c
                ),
                None,
            )
    for algorithm in ("ring", "halving"):
        for c in (1, 3):
            live[f"reduce_scatter[{algorithm},chunks={c}]"] = (owned(algorithm, c), None)
            live[f"reduce_scatter+allgather[{algorithm},chunks={c}]"] = (split(algorithm, c), None)
    for label, topology in sv._hier_topologies(size):
        for c, chunks in ((2, ""), (1, ",chunks=1"), (3, ",chunks=3")):
            live[f"allreduce[hierarchical,{label}{chunks}]"] = (
                lambda comm, x, _c=c: sync.allreduce(
                    comm, x, algorithm="hierarchical", n_chunks=_c
                ),
                topology,
            )
            live[f"reduce_scatter+allgather[hierarchical,{label}{chunks}]"] = (
                split("hierarchical", c), topology
            )
    return live


def _per_rank(events, size):
    lists = [[] for _ in range(size)]
    for e in sorted(events, key=lambda e: (e.rank, e.order)):
        lists[e.rank].append((e.kind, e.peer, e.tag, e.elements))
    return lists


_CASES = [
    pytest.param(case, id=f"P={size}/{case.name}")
    for size in SIZES
    for case in sv.build_plan_cases(size)
]


@pytest.mark.parametrize("case", _CASES)
def test_interpreted_plan_sends_what_the_live_collective_sends(case):
    size = case.world_size
    live, topology = _live(size)[case.name]
    record = RecordingWorld(size, host_topology=topology).run(
        lambda comm: live(comm, case.inputs(comm.rank))
    )
    assert not any(record.errors), record.errors
    interpreted = case.record()
    assert not any(interpreted.errors), interpreted.errors
    assert _per_rank(interpreted.events, size) == _per_rank(record.events, size)
    for rank in range(size):
        np.testing.assert_array_equal(interpreted.results[rank], record.results[rank])


@pytest.mark.parametrize("size", SIZES + (16,))
def test_a_repeating_case_begins_what_it_repeats(size):
    """Per rank, a case's ``(kind, peer, elements)`` list is a prefix of
    the one of the case it ``repeats``: what ``repro verify`` skips is a
    step list it interprets anyway."""
    cases = {case.name: case for case in sv.build_plan_cases(size)}

    def lists(case):
        return [[(k, p, e) for k, p, _tag, e in rank] for rank in
                _per_rank(case.record().events, size)]

    repeating = [case for case in cases.values() if case.repeats]
    assert repeating
    for case in repeating:
        mine, theirs = lists(case), lists(cases[case.repeats])
        assert all(m == t[:len(m)] for m, t in zip(mine, theirs)), case.name


def _unit(rank, size):
    """Rank ``rank``'s 0/1 certificate: one-hot, then three ones."""
    v = np.ones(size + 3)
    v[:size] = np.arange(size) == rank
    return v


@pytest.mark.parametrize("name", [
    "allreduce[compressed_ring,fp16]",
    "reduce_scatter+allgather[compressed_ring,fp16]",
    "allreduce[compressed_hierarchical,fp16]",
])
def test_the_fp16_wire_sums_a_0_1_certificate_exactly_at_p64(name):
    """A full certificate's moment ``sum (r+1)^2`` leaves float16's exact
    integers (up to 2048) past P = 17; every partial sum of a 0/1
    certificate is an integer of at most P."""
    size = 64
    case = next(c for c in sv.build_plan_cases(size) if c.name == name)
    live, topology = _live(size)[name]
    record = RecordingWorld(size, host_topology=topology).run(
        lambda comm: live(comm, _unit(comm.rank, size))
    )
    assert not any(record.errors), record.errors
    assert _per_rank(case.record().events, size) == _per_rank(record.events, size)
    total = sum(_unit(rank, size) for rank in range(size))
    for result in record.results:
        np.testing.assert_array_equal(result, total)


def test_the_plan_table_covers_every_family_without_violations():
    results = [sv.run_case(case) for case in sv.build_plan_cases(16)]
    names = {r.name for r in results}
    assert all(r.ok for r in results), [str(v) for r in results for v in r.violations]
    for family in ("recursive_doubling", "ring", "rabenseifner"):
        assert f"allreduce[{family},chunks=3]" in names
    assert {
        "allreduce[hierarchical,8+8]", "allreduce[compressed_hierarchical,fp16]",
        "allreduce[hierarchical,5+7+4,chunks=3]",
        "reduce_scatter+allgather[hierarchical,15+1,chunks=1]",
        "reduce_scatter+allgather[hierarchical,flat]", "reduce_scatter[halving,chunks=1]",
        "exchange[deep500,hierarchical,multi-host]", "sharded-exchange[zero1,halving,buckets=2]",
    } <= names


def test_the_plan_table_stops_the_ring_at_256():
    assert sv.STATIC_WORLD_SIZES == (64, 256, 1024)
    assert "allreduce[ring,chunks=3]" in {case.name for case in sv.build_plan_cases(256)}
    names = [case.name for case in sv.build_plan_cases(1024)]
    assert not any("ring" in name or "flat" in name and "allreduce[" in name for name in names)
    assert "allreduce[rabenseifner,chunks=3]" in names
    assert "allreduce[hierarchical,512+512,chunks=1]" in names
    assert "sharded-exchange[zero1,hierarchical,multi-host]" in names


def test_plan_with_a_dropped_receive_is_rejected_statically():
    result = sv.run_case(sv._mutant_plan_dropped_recv())
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
