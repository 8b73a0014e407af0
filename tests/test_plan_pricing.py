"""The prices of the plan walk, pinned.

``collective_model`` prices a synchronous collective by walking every
rank's plan under LogGP.  These tests pin what that walk returns:

* single collectives against prices recorded from the closed forms the
  walk replaced (the walk and the formulas agree wherever the formulas
  described the schedule: power-of-two worlds, one host layout per case);
* a bucketed exchange, priced as the sum of its collectives, against
  one walk of all its buckets back to back;
* the calibration fit's linear design rows against the walk.
"""

import pytest

from repro.collectives import sync
from repro.collectives.topology import HostTopology
from repro.simtime.collective_model import allreduce_time, collective_time, plan_time
from repro.simtime.network import DEFAULT_NETWORK, LogGPParams
from repro.training.exchange import exchange_schedule
from repro.tuning.autotune import predict_exchange_time
from repro.tuning.calibration import DEFAULT_SIZES, CalibrationSample, predict_sample

SLOW_INTER = LogGPParams(alpha=100e-6, beta=20e-9, gamma=2e-9, collective_overhead=10e-6)
#: The shape of a calibrated thread-backend profile: gamma of the order
#: of beta, a large fixed overhead.
THREAD_LIKE = LogGPParams(alpha=8e-6, beta=3.6e-10, gamma=4.5e-10, collective_overhead=5e-5)

# Recorded from the closed forms (DEFAULT_NETWORK): (algorithm, n_chunks,
# P, bytes) -> seconds.
FLAT_PRICES = {
    ("recursive_doubling", 1, 2, 4096): 7.512e-06,
    ("recursive_doubling", 1, 2, 1048576): 0.00013807200000000002,
    ("recursive_doubling", 1, 4, 4096): 1.0024000000000001e-05,
    ("recursive_doubling", 1, 4, 1048576): 0.000271144,
    ("recursive_doubling", 1, 8, 4096): 1.2536e-05,
    ("recursive_doubling", 1, 8, 1048576): 0.000404216,
    ("recursive_doubling", 1, 16, 4096): 1.5047999999999999e-05,
    ("recursive_doubling", 1, 16, 1048576): 0.000537288,
    ("recursive_doubling", 4, 2, 4096): 1.34352e-05,
    ("recursive_doubling", 4, 2, 1048576): 0.0001244112,
    ("recursive_doubling", 4, 4, 4096): 2.18704e-05,
    ("recursive_doubling", 4, 4, 1048576): 0.00024382240000000004,
    ("recursive_doubling", 4, 8, 4096): 3.03056e-05,
    ("recursive_doubling", 4, 8, 1048576): 0.00036323360000000007,
    ("recursive_doubling", 4, 16, 4096): 3.87408e-05,
    ("recursive_doubling", 4, 16, 1048576): 0.00048264480000000007,
    ("ring", 1, 2, 4096): 9.460800000000001e-06,
    ("ring", 1, 2, 1048576): 0.0001269648,
    ("ring", 1, 4, 4096): 1.7691199999999998e-05,
    ("ring", 1, 4, 1048576): 0.00019394720000000002,
    ("ring", 1, 8, 4096): 3.38064e-05,
    ("ring", 1, 8, 1048576): 0.0002394384,
    ("ring", 1, 16, 4096): 6.586399999999999e-05,
    ("ring", 1, 16, 1048576): 0.000286184,
    ("ring", 4, 2, 4096): 2.14224e-05,
    ("ring", 4, 2, 1048576): 0.00012913440000000002,
    ("ring", 4, 4, 4096): 5.3633599999999994e-05,
    ("ring", 4, 4, 1048576): 0.00021520160000000003,
    ("ring", 4, 8, 4096): 0.00011773919999999999,
    ("ring", 4, 8, 1048576): 0.00030623520000000004,
    ("ring", 4, 16, 4096): 0.000245792,
    ("ring", 4, 16, 1048576): 0.00044775199999999994,
    ("rabenseifner", 1, 2, 4096): 9.460800000000001e-06,
    ("rabenseifner", 1, 2, 1048576): 0.0001269648,
    ("rabenseifner", 1, 4, 4096): 1.36912e-05,
    ("rabenseifner", 1, 4, 1048576): 0.0001899472,
    ("rabenseifner", 1, 8, 4096): 1.78064e-05,
    ("rabenseifner", 1, 8, 1048576): 0.00022343840000000004,
    ("rabenseifner", 1, 16, 4096): 2.1864e-05,
    ("rabenseifner", 1, 16, 1048576): 0.00024218400000000005,
    ("rabenseifner", 4, 2, 4096): 1.54224e-05,
    ("rabenseifner", 4, 2, 1048576): 0.0001231344,
    ("rabenseifner", 4, 4, 4096): 2.5633599999999998e-05,
    ("rabenseifner", 4, 4, 1048576): 0.0001872016,
    ("rabenseifner", 4, 8, 4096): 3.5739200000000005e-05,
    ("rabenseifner", 4, 8, 1048576): 0.0002242352,
    ("rabenseifner", 4, 16, 4096): 4.5792000000000005e-05,
    ("rabenseifner", 4, 16, 1048576): 0.000247752,
}
#: Hierarchical allreduce of 1 MiB, one chunk, intra DEFAULT_NETWORK and
#: inter SLOW_INTER: host layout -> seconds (the closed form split the
#: leader ring's bytes evenly; the plans cut whole elements).
HIER_PRICES = {
    (2, 2): 0.0224650256,
    (4, 4): 0.022704955199999998,
    (3, 1, 4): 0.0302449872,
}


@pytest.mark.parametrize("key", sorted(FLAT_PRICES))
def test_single_collective_matches_recorded_price(key):
    algorithm, n_chunks, size, nbytes = key
    price = allreduce_time(nbytes, size, algorithm, DEFAULT_NETWORK, n_chunks)
    assert price == pytest.approx(FLAT_PRICES[key], rel=1e-12, abs=0)


@pytest.mark.parametrize("hosts", sorted(HIER_PRICES))
def test_hierarchical_matches_recorded_price(hosts):
    topology = HostTopology.from_hosts(hosts)
    price = collective_time(
        "allreduce", "hierarchical", topology.world_size, 1 << 20, 1,
        DEFAULT_NETWORK, topology, SLOW_INTER,
    )
    assert price == pytest.approx(HIER_PRICES[hosts], rel=1e-6, abs=0)


# ---------------------------------------------------------------------------
# an exchange is the sum of its buckets' collectives
# ---------------------------------------------------------------------------
HOST_LAYOUTS = [(1, 1), (2, 1), (2, 2), (2, 2, 2), (4, 4), (3, 1, 4), (1, 2, 2, 3)]
GRADIENT_BYTES = 96 * 1024
THRESHOLD = 32 * 1024  # three buckets of 4 096 elements


#: Plan builder of each collective kind the schedule names.
_BUILDERS = {
    "allreduce": sync.allreduce_plan,
    "reduce_scatter": lambda *shape: sync.reduce_scatter_plan(*shape)[0],
    "allgather": lambda *shape: sync.allgather_plan(*shape)[0],
}


def _topology(size, hosts):
    return None if hosts is None else HostTopology.from_hosts(hosts)


def _back_to_back(params, size, algorithm, n_chunks, hosts=None, sharding="none"):
    """One walk of every bucket's collectives as the exchange issues them,
    plus one ``collective_overhead`` per collective."""
    topology = _topology(size, hosts)
    schedule = exchange_schedule(
        topology or HostTopology.single_host(size), "sync", algorithm, sharding,
        None, THRESHOLD, n_chunks,
    )
    buckets = schedule.cut(GRADIENT_BYTES // 8).buckets

    def plans(rank):
        return [
            _BUILDERS[c.kind](c.algorithm, rank, size, bucket.num_elements, n_chunks, topology)
            for c in schedule.collectives
            for bucket in buckets
        ]

    walked = plan_time(
        [plans(rank) for rank in range(size)], params, topology, SLOW_INTER, 8
    )
    return walked + len(schedule.collectives) * len(buckets) * params.collective_overhead


def _exchange_sum(params, size, algorithm, n_chunks, hosts=None, sharding="none"):
    return predict_exchange_time(
        params, size, GRADIENT_BYTES, algorithm, THRESHOLD, n_chunks,
        topology=_topology(size, hosts), inter_params=SLOW_INTER, sharding=sharding,
    )


def _cases():
    for size in range(2, 9):
        for algorithm in ("ring", "rabenseifner", "recursive_doubling"):
            yield f"{algorithm}-P{size}", (size, algorithm, None, "none")
        for algorithm in ("ring", "rabenseifner"):
            yield f"zero1-{algorithm}-P{size}", (size, algorithm, None, "zero1")
    for hosts in HOST_LAYOUTS:
        name = "-".join(map(str, hosts))
        yield f"hierarchical-{name}", (sum(hosts), "ring", hosts, "none")
        yield f"zero1-hierarchical-{name}", (sum(hosts), "ring", hosts, "zero1")


CASES = dict(_cases())
#: Families whose buckets cannot overlap: each bucket's first send waits
#: on the previous bucket's last receive, so the sum is the walk.
EXACT = ("ring-", "rabenseifner-", "hierarchical-", "zero1-ring-")


@pytest.mark.parametrize("params", [DEFAULT_NETWORK, THREAD_LIKE], ids=["default", "thread"])
@pytest.mark.parametrize("n_chunks", [1, 3])
@pytest.mark.parametrize("case", sorted(CASES))
def test_exchange_sum_bounds_back_to_back_walk(case, n_chunks, params):
    """The exchange prices its buckets one collective at a time.  That is
    never below one walk of all of them back to back, and equal to it
    (within 1e-3) for ring, Rabenseifner and hierarchical allreduce and
    ZeRO-1 ring.  Elsewhere sends that need no receive first run ahead
    into the next bucket, and the sum is an upper bound.  Measured on
    these cases: recursive doubling at P = 5 up to +3.3 % (its fold),
    ZeRO-1 hierarchical on the uneven host layouts up to +1.2 %, and
    ZeRO-1 halving at P = 3, 5, 6, 7 +24-27 % (the eager fold-in sends)."""
    size, algorithm, hosts, sharding = CASES[case]
    summed = _exchange_sum(params, size, algorithm, n_chunks, hosts, sharding)
    walked = _back_to_back(params, size, algorithm, n_chunks, hosts, sharding)
    assert summed >= walked * (1 - 1e-12)
    if case.startswith(EXACT):
        assert summed == pytest.approx(walked, rel=1e-3)


# ---------------------------------------------------------------------------
# the calibration fit stays linear
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("size", [2, 3, 4, 5, 8])
def test_design_row_prices_like_the_walk(size):
    """``fit_loggp`` solves ``design_row @ params = measured``: the walk
    of a ring allreduce must be linear in the four parameters."""
    for nbytes in DEFAULT_SIZES:
        sample = CalibrationSample("allreduce", size, nbytes, 1.0, "ring")
        walked = allreduce_time(nbytes, size, "ring", THREAD_LIKE)
        assert predict_sample(sample, THREAD_LIKE) == pytest.approx(walked, rel=1e-12)
