"""Collective operations: synchronous and *partial* (solo / majority).

The synchronous collectives (:mod:`repro.collectives.sync`) implement the
classic allreduce algorithms (recursive doubling, ring, Rabenseifner) over
the point-to-point substrate and are the building block of the
synchronous-SGD baselines.

The partial collectives (:mod:`repro.collectives.partial`) are the paper's
contribution: *solo allreduce* (wait-free, any process can initiate) and
*majority allreduce* (a randomly designated initiator guarantees that, in
expectation, at least half of the processes contribute fresh data).  They
are executed asynchronously by a per-rank progress thread, mirroring the
library offloading of Section 4.3.
"""

from repro.collectives.topology import (
    binomial_tree_children,
    binomial_tree_parent,
)
from repro.collectives.sync import (
    allreduce,
    allreduce_recursive_doubling,
    allreduce_ring,
    allreduce_rabenseifner,
    broadcast,
    reduce as reduce_to_root,
    allgather,
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
    SoloAllreduce,
    MajorityAllreduce,
    QuorumAllreduce,
    make_partial_allreduce,
)

__all__ = [
    "binomial_tree_children",
    "binomial_tree_parent",
    "allreduce",
    "allreduce_recursive_doubling",
    "allreduce_ring",
    "allreduce_rabenseifner",
    "broadcast",
    "reduce_to_root",
    "allgather",
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
    "SoloAllreduce",
    "MajorityAllreduce",
    "QuorumAllreduce",
    "make_partial_allreduce",
]
