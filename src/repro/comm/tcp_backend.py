"""Seed-rendezvous TCP backend: the multi-host shape of the socket mesh.

The ``process`` backend's world is born from one launcher: every rank is
a child of the same process and the rendezvous address is whatever the
launcher bound.  The ``tcp`` plan keeps the exact same data plane (a
socket for every pair, launcher and frames from
:mod:`repro.comm.process_backend`) but makes the
rendezvous *explicit*: ranks meet at a **seed address** given by the
caller (``backend_opts={"seed_addr": "host:port"}`` or the
``REPRO_SEED_ADDR`` environment variable), which is what lets several
launchers — on one machine or on many — contribute ranks to a single
world.

Single-launcher (the default) is exactly the process backend with an
explicit seed::

    launch(fn, 4, backend="tcp")                       # ephemeral seed
    launch(fn, 4, backend="tcp",
           backend_opts={"seed_addr": "127.0.0.1:29400"})

Multi-launcher: each launcher spawns a *subset* of the ranks and they
join over the seed.  The launcher owning rank 0 binds and serves the
seed; every other launcher only dials it::

    # terminal/host A (serves the seed because it owns rank 0)
    launch(fn, 4, backend="tcp", backend_opts={
        "seed_addr": "10.0.0.1:29400", "local_ranks": [0, 1],
        "bind_host": "10.0.0.1"})
    # terminal/host B
    launch(fn, 4, backend="tcp", backend_opts={
        "seed_addr": "10.0.0.1:29400", "local_ranks": [2, 3],
        "bind_host": "10.0.0.2"})

``bind_host`` is the interface the rank data listeners bind to (and
advertise through the seed); the loopback default is right for
single-machine worlds, a routable address is required across machines.
Each launcher returns a result list indexed by *global* rank with
``None`` at positions owned by other launchers, and monitors only its
own ranks: a remote launcher's crash surfaces locally as peer
departures or a timeout, not as a rank failure.

Options
-------
``seed_addr``
    ``"host:port"`` string or ``(host, port)`` tuple.  Falls back to
    ``REPRO_SEED_ADDR``; when absent entirely, an ephemeral loopback
    seed is used (single-launcher only).
``local_ranks``
    The global ranks this launcher spawns (default: all of them).
    Requires an explicit ``seed_addr`` with a fixed port, since every
    launcher must name the same seed.
``bind_host``
    Interface for this launcher's rank data listeners (default
    ``127.0.0.1``).
``start_method``
    The process launcher's: ``fork`` (default where
    available) or ``spawn`` (pickled entry points; the SPMD function
    must then be a module-level callable).
"""

from __future__ import annotations

import os
from functools import partial
from typing import Any, Dict, Tuple

from repro.comm.backend import register_backend
from repro.comm.process_backend import MeshPlan, ProcessBackend, reject_unknown_opts

__all__ = ["SEED_ADDR_ENV_VAR"]

#: Environment variable naming the seed address (``host:port``).
SEED_ADDR_ENV_VAR = "REPRO_SEED_ADDR"


def _parse_addr(value: Any) -> Tuple[str, int]:
    """Normalise a seed address to ``(host, port)``."""
    if isinstance(value, (tuple, list)) and len(value) == 2:
        return (str(value[0]), int(value[1]))
    if isinstance(value, str):
        host, sep, port = value.rpartition(":")
        if sep and host:
            try:
                return (host, int(port))
            except ValueError:
                pass
    raise ValueError(
        f"seed address must be 'host:port' or a (host, port) pair, got {value!r}"
    )


def _tcp_plan(world_size: int, opts: Dict[str, Any]) -> MeshPlan:
    """``tcp``: a socket for every pair; the ranks meet at a caller-named
    seed (or a launcher-local one) and this launcher spawns ``local_ranks``."""
    seed = opts.pop("seed_addr", None)
    if seed is None:
        seed = os.environ.get(SEED_ADDR_ENV_VAR) or None
    local_ranks = opts.pop("local_ranks", None)
    bind_host = str(opts.pop("bind_host", "127.0.0.1"))
    reject_unknown_opts("tcp", opts)

    local = None
    if local_ranks is not None:
        local = sorted({int(r) for r in local_ranks})
        if not local:
            raise ValueError(f"local_ranks must name at least one rank, got {local_ranks!r}")
        bad = [r for r in local if not 0 <= r < world_size]
        if bad:
            raise ValueError(
                f"local_ranks {bad} out of range for world of size {world_size}"
            )
        if seed is None:
            raise ValueError(
                f"multi-launcher mode (local_ranks={local!r}) requires an "
                f"explicit seed_addr shared by every launcher "
                f"(backend opt or ${SEED_ADDR_ENV_VAR})"
            )
    return MeshPlan(
        hosts=tuple(range(world_size)),
        # No seed named: an ephemeral loopback one, exactly the process
        # backend's behaviour (a world of one never rendezvouses).
        seed_addr=None if seed is None or world_size == 1 else _parse_addr(seed),
        local_ranks=local,
        bind_host=bind_host,
    )


register_backend("tcp")(partial(ProcessBackend, "tcp", _tcp_plan))
