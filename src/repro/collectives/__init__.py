"""Collective operations: synchronous and *partial* (solo / majority).

The synchronous collectives (:mod:`repro.collectives.sync`) implement the
classic allreduce algorithms (recursive doubling, ring, Rabenseifner,
hierarchical), all behind the one ``allreduce``, over the point-to-point
substrate and are the building block of the synchronous-SGD baselines.

The partial collectives (:mod:`repro.collectives.partial`) are the paper's
contribution: *solo allreduce* (wait-free, any process can initiate) and
*majority allreduce* (a randomly designated initiator guarantees that, in
expectation, at least half of the processes contribute fresh data).  They
are executed asynchronously by a per-rank progress thread, mirroring the
library offloading of Section 4.3.
"""

from repro.collectives.topology import binomial_tree_children
from repro.collectives.sync import (
    allreduce,
    ALLREDUCE_ALGORITHMS,
)
from repro.collectives.sharding import (
    ALLGATHER_FLAT_ALGORITHMS,
    ALLGATHER_FOR_REDUCE_SCATTER,
    REDUCE_SCATTER_ALGORITHMS,
    allgather_flat,
    reduce_scatter,
    shard_bounds,
)
from repro.collectives.partial import (
    PartialAllreduce,
    PartialAllreduceResult,
    PartialMode,
    make_partial_allreduce,
)

__all__ = [
    "binomial_tree_children",
    "allreduce",
    "ALLREDUCE_ALGORITHMS",
    "ALLGATHER_FLAT_ALGORITHMS",
    "ALLGATHER_FOR_REDUCE_SCATTER",
    "REDUCE_SCATTER_ALGORITHMS",
    "allgather_flat",
    "reduce_scatter",
    "shard_bounds",
    "PartialAllreduce",
    "PartialAllreduceResult",
    "PartialMode",
    "make_partial_allreduce",
]
