"""Raw throughput of the collective primitives on the default backend.

These are plain performance benchmarks (pytest-benchmark statistics) for
the building blocks: synchronous allreduce, broadcast, solo allreduce and
majority allreduce over 4 ranks.  ``launch`` honours the
``REPRO_COMM_BACKEND`` environment variable, so the same file benchmarks
the thread or the process transport without edits.
"""

import numpy as np

from repro.comm import launch
from repro.collectives import allreduce, broadcast
from repro.collectives.partial import PartialAllreduce

WORLD = 4
ELEMENTS = 16 * 1024


def bench_sync_allreduce_4_ranks(benchmark):
    def once():
        return launch(
            lambda comm: allreduce(comm, np.ones(ELEMENTS), average=True)[0], WORLD
        )

    results = benchmark(once)
    assert all(abs(r - 1.0) < 1e-12 for r in results)


def bench_broadcast_4_ranks(benchmark):
    def once():
        return launch(
            lambda comm: broadcast(
                comm, np.ones(ELEMENTS) if comm.rank == 0 else None, root=0
            )[0],
            WORLD,
        )

    results = benchmark(once)
    assert all(r == 1.0 for r in results)


def _partial_rounds(comm, mode, rounds=4):
    partial = PartialAllreduce(comm, (ELEMENTS,), mode, seed=1)
    out = 0.0
    for _ in range(rounds):
        out = float(partial.reduce(np.ones(ELEMENTS)).data[0])
    partial.close()
    return out


def bench_solo_allreduce_4_ranks(benchmark):
    # A round's average can exceed 1.0 when slow ranks contribute several
    # accumulated (stale) gradients at once; it is bounded by the number
    # of rounds each rank contributes to.
    results = benchmark(lambda: launch(_partial_rounds, WORLD, "solo"))
    assert all(0.0 <= r <= 4.0 + 1e-9 for r in results)


def bench_majority_allreduce_4_ranks(benchmark):
    results = benchmark(lambda: launch(_partial_rounds, WORLD, "majority"))
    assert all(0.0 <= r <= 4.0 + 1e-9 for r in results)
