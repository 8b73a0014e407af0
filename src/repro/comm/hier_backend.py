"""Hierarchical composite transport: shm rings intra-host, sockets inter.

The ``hier`` plan composes the two link kinds of the process-model
launcher according to a **host topology** (an explicit rank -> host
map): frames between ranks on the same host travel the shared-memory
SPSC rings of :mod:`repro.comm.shm_backend`, frames that cross hosts
travel the TCP sockets of :mod:`repro.comm.process_backend`.  Both link
kinds speak the same wire format, so the split is invisible above the
:class:`~repro.comm.backend.RouterLike` surface — except that the
endpoint *exposes* the topology as ``host_topology``, which is what the
topology-aware collectives (:func:`repro.collectives.sync.allreduce_hierarchical`)
query to keep non-leader traffic off the slow links.

The topology arrives via ``backend_opts={"host_topology": ...}`` (a
:class:`~repro.collectives.topology.HostTopology`, a rank -> host label
sequence, or a ``"0,0,1,1"`` spec string) or the
``REPRO_HOST_TOPOLOGY`` environment variable, and defaults to
single-host — in which case the plan *is* the ``shm`` plan (every pair
rides a ring), as one host per rank is the ``process`` plan.  On one
physical machine a
multi-host topology is *simulated*: the rank pairs labelled inter-host
use loopback sockets, which is exactly how the hierarchical collectives
and the two-tier cost model are validated and benchmarked without a
cluster.

A rank blocked in ``recv`` sleeps on its shm doorbell *and* its
inter-host sockets at once (the endpoint's one progress engine,
:class:`repro.comm.process_backend._Pump`), so an arrival on either
link kind wakes it immediately.

Gated like ``shm``: platforms without the ring transport get
``BackendUnavailableError`` and the name is absent from
``available_backends()``.
"""

from __future__ import annotations

import os
from functools import partial
from typing import Any, Dict

from repro.collectives.topology import HostTopology
from repro.comm.backend import mark_backend_unavailable, register_backend
from repro.comm.process_backend import MeshPlan, ProcessBackend
from repro.comm.shm_backend import (
    _UNAVAILABLE_REASON as _SHM_UNAVAILABLE_REASON,
    ring_plan,
)

__all__ = ["HOST_TOPOLOGY_ENV_VAR", "resolve_topology"]

#: Environment variable carrying a ``"0,0,1,1"``-style rank -> host spec.
HOST_TOPOLOGY_ENV_VAR = "REPRO_HOST_TOPOLOGY"


def resolve_topology(spec: Any, world_size: int) -> HostTopology:
    """Normalise a topology option to a validated :class:`HostTopology`.

    ``None`` consults ``REPRO_HOST_TOPOLOGY`` and falls back to
    single-host.  Strings parse as comma-separated host labels; any
    other sequence is taken as the rank -> host label map directly.
    """
    if spec is None:
        env = os.environ.get(HOST_TOPOLOGY_ENV_VAR)
        topology = (
            HostTopology.from_string(env) if env else HostTopology.single_host(world_size)
        )
    elif isinstance(spec, HostTopology):
        topology = spec
    elif isinstance(spec, str):
        topology = HostTopology.from_string(spec)
    else:
        topology = HostTopology(spec)
    if topology.world_size != world_size:
        raise ValueError(
            f"host topology covers {topology.world_size} rank(s) but the "
            f"world has {world_size}"
        )
    return topology


def _hier_plan(world_size: int, opts: Dict[str, Any]) -> MeshPlan:
    """``hier``: launcher-local seed, a ring iff ``host_topology`` puts
    both ranks of a pair on one host.

    Options: ``host_topology`` (see :func:`resolve_topology`),
    ``ring_bytes``, ``bind_host`` and the launcher's ``start_method``.
    """
    topology = resolve_topology(opts.pop("host_topology", None), world_size)
    bind_host = str(opts.pop("bind_host", "127.0.0.1"))
    return ring_plan(
        "hier", topology.host_of, opts, host_topology=topology, bind_host=bind_host
    )


# ---------------------------------------------------------------------------
# registration (capability-gated, same probe as shm)
# ---------------------------------------------------------------------------
if _SHM_UNAVAILABLE_REASON is None:
    register_backend("hier")(partial(ProcessBackend, "hier", _hier_plan))
else:  # pragma: no cover - exercised only on platforms without shm
    mark_backend_unavailable(
        "hier",
        f"requires the shared-memory ring transport: {_SHM_UNAVAILABLE_REASON}",
    )
