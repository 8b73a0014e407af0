"""Thread backend: spawn one thread per rank and run an SPMD function.

This plays the role of ``mpiexec -n P python script.py`` for the
in-process transport: :class:`ThreadBackend` (registered as
``"thread"`` in the :mod:`repro.comm.backend` registry) runs
``fn(comm, *args)`` on ``P`` threads, one per rank, and returns the
per-rank results.  Exceptions on any rank are collected and re-raised as
a :class:`~repro.comm.backend.WorldError` carrying all failures, so a
bug on rank 3 does not silently hang the remaining ranks: the router is
closed, which wakes every blocked receive.
"""

from __future__ import annotations

import threading
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.comm.backend import CommBackend, WorldError, register_backend
from repro.comm.communicator import DEFAULT_TIMEOUT, Communicator
from repro.comm.router import Channel, DEFAULT_CHANNELS, Router

__all__ = ["ThreadWorld", "ThreadBackend", "WorldError"]


@dataclass
class ThreadWorld:
    """A set of ranks sharing one router.

    Use as a context manager to guarantee the router is closed (unblocking
    any straggler threads) even when a rank fails.
    """

    world_size: int
    channels: Sequence[str] = DEFAULT_CHANNELS
    default_timeout: float = DEFAULT_TIMEOUT
    router: Router = field(init=False)

    def __post_init__(self) -> None:
        self.router = Router(self.world_size, channels=self.channels)

    def communicator(self, rank: int, channel: str = Channel.APP) -> Communicator:
        """Build the communicator for ``rank`` on ``channel``."""
        return Communicator(
            self.router, rank, channel=channel, default_timeout=self.default_timeout
        )

    def communicators(self, channel: str = Channel.APP) -> List[Communicator]:
        """Communicators for every rank (useful for single-threaded tests)."""
        return [self.communicator(r, channel) for r in range(self.world_size)]

    def close(self) -> None:
        self.router.close()

    def __enter__(self) -> "ThreadWorld":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@register_backend("thread")
class ThreadBackend(CommBackend):
    """One Python thread per rank inside this process.

    The fastest world to spawn and the reference semantics every other
    transport is held to (see ``tests/test_backend_conformance.py``);
    ranks share the GIL, so it measures scheduling and copy costs rather
    than true parallel compute.
    """

    name = "thread"

    def run(
        self,
        fn: Callable[..., Any],
        world_size: int,
        args: Tuple[Any, ...] = (),
        kwargs: Optional[Dict[str, Any]] = None,
        *,
        channels: Sequence[str] = DEFAULT_CHANNELS,
        channel: str = Channel.APP,
        timeout: Optional[float] = 300.0,
        default_recv_timeout: float = DEFAULT_TIMEOUT,
        thread_name_prefix: str = "rank",
        **opts: Any,
    ) -> List[Any]:
        kwargs = kwargs or {}
        world = ThreadWorld(
            world_size, channels=channels, default_timeout=default_recv_timeout
        )
        results: List[Any] = [None] * world_size
        failures: Dict[int, BaseException] = {}
        tracebacks: Dict[int, str] = {}
        lock = threading.Lock()

        def _target(rank: int) -> None:
            comm = world.communicator(rank, channel=channel)
            try:
                results[rank] = fn(comm, *args, **kwargs)
            except BaseException as exc:  # noqa: BLE001 - reported to the caller
                with lock:
                    failures[rank] = exc
                    tracebacks[rank] = traceback.format_exc()
                # Unblock every other rank: they would otherwise wait forever
                # for messages this rank will never send.
                world.close()

        threads = [
            threading.Thread(
                target=_target,
                args=(rank,),
                name=f"{thread_name_prefix}{rank}",
                daemon=True,
            )
            for rank in range(world_size)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=timeout)

        hung = [t.name for t in threads if t.is_alive()]
        world.close()
        if hung and not failures:
            raise WorldError(
                {-1: TimeoutError(f"ranks did not finish within {timeout}s: {hung}")},
                {-1: ""},
            )
        if failures:
            raise WorldError(failures, tracebacks)
        return results
