"""Pluggable communication backends.

This module is the seam between the SPMD layers of the library
(collectives, gradient exchanges, training, tuning) and the transport
that actually carries the messages.  Everything above this line talks to
two abstractions only:

* a :class:`CommunicatorLike` handle — the MPI-flavoured per-rank API
  (``send`` / ``isend`` / ``recv`` / ``recv_into`` / ``irecv`` / ``probe``
  / ``poll`` / ``barrier`` / ``next_collective_epoch`` / ``dup``) that
  both transports provide through the shared
  :class:`~repro.comm.communicator.Communicator` class;
* :func:`launch` — the ``mpiexec`` of the library: run an SPMD function
  on ``world_size`` ranks of the chosen backend and collect the per-rank
  results (or a :class:`WorldError` carrying every failure).

Backends register themselves in a name-keyed registry
(:func:`register_backend`); the built-ins are loaded lazily so that
importing :mod:`repro.comm` never pays for a transport it does not use:

``"thread"``
    One Python thread per rank inside this process
    (:class:`repro.comm.world.ThreadBackend`) — fast to spawn, shares
    the GIL, ideal for tests and functional validation.
``"process"``
    One OS process per rank over local TCP sockets
    (:class:`repro.comm.process_backend.ProcessBackend`) — true
    parallelism (no shared GIL), pickled control messages and zero-copy
    framed NumPy payloads.  The three names below are the same
    launcher, mesh builder and endpoint under another
    :class:`~repro.comm.process_backend.MeshPlan` (who serves the
    rendezvous, which link kind carries each rank pair).
``"shm"``
    One OS process per rank over shared-memory ring buffers
    (:mod:`repro.comm.shm_backend`) — the same process
    model without the loopback-TCP copies: payloads are written
    directly into per-pair rings.  Platform-gated: on systems without
    POSIX shared memory the name is omitted from
    :func:`available_backends` (see :func:`mark_backend_unavailable`)
    and resolving it raises :class:`BackendUnavailableError`.
``"tcp"``
    The socket mesh with an explicit *seed rendezvous*
    (:mod:`repro.comm.tcp_backend`): ranks meet at a
    caller-provided address (``backend_opts={"seed_addr": ...}`` /
    ``REPRO_SEED_ADDR``), so several launchers — on one machine or
    many — can contribute ranks to a single world.
``"hier"``
    The two-tier composite (:mod:`repro.comm.hier_backend`):
    intra-host frames ride shared-memory rings, inter-host frames ride
    sockets, and the endpoint exposes a ``host_topology`` the
    topology-aware collectives query to keep non-leader traffic off the
    slow links.  Gated like ``shm`` (it needs the ring transport).

Adding a transport is registering one subclass::

    from repro.comm.backend import CommBackend, register_backend

    @register_backend("myfabric")
    class MyFabricBackend(CommBackend):
        name = "myfabric"
        def run(self, fn, world_size, args, kwargs, *, channels, channel,
                timeout, default_recv_timeout, **opts):
            ...  # spawn ranks, hand each a Communicator, collect results

after which ``launch(fn, P, backend="myfabric")``, ``TrainingConfig``'s
``comm_backend`` field, ``--backend myfabric`` on the CLI and the tuning
profile cache all pick it up without further changes.

The process-wide default backend is ``"thread"``; the
``REPRO_COMM_BACKEND`` environment variable overrides it (useful for
running an existing benchmark or test file on another transport without
editing it).
"""

from __future__ import annotations

import importlib
import os
from abc import ABC, abstractmethod
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from repro.comm.communicator import DEFAULT_TIMEOUT, check_deadline
from repro.comm.router import Channel, DEFAULT_CHANNELS

#: Environment variable overriding the default backend name.
BACKEND_ENV_VAR = "REPRO_COMM_BACKEND"

#: Fallback default when the environment variable selects none.
FALLBACK_BACKEND = "thread"


class WorldError(RuntimeError):
    """One or more ranks raised an exception during :func:`launch`."""

    def __init__(self, failures: Dict[int, BaseException], tracebacks: Dict[int, str]):
        self.failures = failures
        self.tracebacks = tracebacks
        lines = [f"{len(failures)} rank(s) failed:"]
        for rank in sorted(failures):
            lines.append(f"--- rank {rank}: {failures[rank]!r}")
            lines.append(tracebacks.get(rank, ""))
        super().__init__("\n".join(lines))


class BackendUnavailableError(RuntimeError):
    """The requested backend cannot run on this platform."""


# ---------------------------------------------------------------------------
# protocols
# ---------------------------------------------------------------------------
@runtime_checkable
class RouterLike(Protocol):
    """Transport surface the shared :class:`Communicator` is built on.

    The thread backend's :class:`~repro.comm.router.Router` and the
    process backends' :class:`~repro.comm.process_backend.MeshEndpoint`
    both implement it; a new transport that does gets the whole
    point-to-point API (and every collective layered on it) for free.
    """

    world_size: int

    def mailbox(self, rank: int, channel: str):  # -> Mailbox
        """Mailbox of ``(rank, channel)`` (transports may restrict ``rank``)."""
        ...

    def deliver(self, message, channel: str) -> None:
        """Route one :class:`~repro.comm.message.Message` to its destination."""
        ...

    def close(self) -> None:
        """Tear the transport down, waking any blocked receivers."""
        ...


@runtime_checkable
class CommunicatorLike(Protocol):
    """The per-rank handle every backend hands to the SPMD function."""

    @property
    def rank(self) -> int: ...

    @property
    def size(self) -> int: ...

    @property
    def channel(self) -> str: ...

    #: Deadline, in seconds, of every blocking receive without its own.
    default_timeout: float

    def send(self, payload: Any, dest: int, tag: int = 0) -> None: ...

    def isend(self, payload: Any, dest: int, tag: int = 0): ...

    def recv(self, source: int = -1, tag: int = -1, timeout: Optional[float] = None): ...

    def recv_message(self, source: int = -1, tag: int = -1, timeout: Optional[float] = None): ...

    def recv_into(self, out, source: int, tag: int, op=None) -> None: ...

    def irecv(self, source: int = -1, tag: int = -1): ...

    def probe(self, source: int = -1, tag: int = -1) -> bool: ...

    def poll(self, source: int = -1, tag: int = -1) -> Optional[Any]: ...

    def barrier(self) -> None: ...

    def next_collective_epoch(self) -> int: ...

    def dup(self, channel: Optional[str] = None) -> "CommunicatorLike": ...


# ---------------------------------------------------------------------------
# the backend interface
# ---------------------------------------------------------------------------
class CommBackend(ABC):
    """A transport capable of running an SPMD function on ``P`` ranks.

    Subclasses implement :meth:`run`; everything else (resolution by
    name, CLI flags, config plumbing, profile-cache keys) is inherited
    behaviour of the registry.
    """

    #: Registry key and profile-cache key of this transport.
    name: str = "abstract"

    @abstractmethod
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
        **opts: Any,
    ) -> List[Any]:
        """Run ``fn(comm, *args, **kwargs)`` on every rank.

        Returns the per-rank results indexed by rank, or raises
        :class:`WorldError` carrying every rank's failure.  ``timeout``
        bounds the whole world; ``default_recv_timeout`` (already
        checked by :func:`launch`) is every rank's receive deadline.
        Backend-specific options arrive via ``opts``.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(name={self.name!r})"


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
_REGISTRY: Dict[str, CommBackend] = {}

#: Built-in backends, imported on first use so the registry never forces
#: a transport's dependencies on callers that do not select it.
_BUILTIN_MODULES: Dict[str, str] = {
    "thread": "repro.comm.world",
    "process": "repro.comm.process_backend",
    "shm": "repro.comm.shm_backend",
    "tcp": "repro.comm.tcp_backend",
    "hier": "repro.comm.hier_backend",
}

#: Built-ins whose capability probe failed on this platform, with the
#: reason.  Such names are *omitted* from :func:`available_backends`;
#: resolving them raises :class:`BackendUnavailableError` (not the
#: unknown-name :class:`ValueError`) so callers can distinguish a typo
#: from a platform limitation.
_UNAVAILABLE: Dict[str, str] = {}


def register_backend(
    name: str,
) -> Callable[[Callable[[], CommBackend]], Callable[[], CommBackend]]:
    """Class decorator adding a :class:`CommBackend` to the registry.

    The class (or any zero-argument factory of one) is instantiated
    once; re-registering a name replaces the previous instance (latest
    wins, which keeps reloads idempotent).
    """

    def decorator(cls: Callable[[], CommBackend]) -> Callable[[], CommBackend]:
        instance = cls()
        if not instance.name or instance.name == "abstract":
            instance.name = name
        _REGISTRY[name] = instance
        return cls

    return decorator


def mark_backend_unavailable(name: str, reason: str) -> None:
    """Record that a built-in backend cannot run on this platform.

    Called by a transport module whose import-time capability probe
    failed (e.g. :mod:`repro.comm.shm_backend` on platforms without
    POSIX shared memory) *instead of* registering the backend.  The name
    disappears from :func:`available_backends` and resolving it raises
    :class:`BackendUnavailableError` carrying ``reason``.
    """
    _UNAVAILABLE[name] = reason


def backend_unavailable_reason(name: str) -> Optional[str]:
    """Why ``name`` is unavailable on this platform (``None`` = it isn't)."""
    _load_builtins(name)
    return _UNAVAILABLE.get(name)


def _load_builtins(name: Optional[str] = None) -> None:
    wanted = [name] if name in _BUILTIN_MODULES else list(_BUILTIN_MODULES)
    for key in wanted:
        if key not in _REGISTRY and key not in _UNAVAILABLE:
            importlib.import_module(_BUILTIN_MODULES[key])


def available_backends() -> Tuple[str, ...]:
    """Names of every registered backend (built-ins included).

    Built-ins whose platform probe failed are omitted (the reason is
    logged at import time and queryable via
    :func:`backend_unavailable_reason`).
    """
    _load_builtins()
    return tuple(sorted(_REGISTRY))


def default_backend_name() -> str:
    """The name :func:`launch` uses when no backend is given.

    The ``REPRO_COMM_BACKEND`` environment variable, else ``"thread"``.
    """
    return os.environ.get(BACKEND_ENV_VAR) or FALLBACK_BACKEND


def get_backend(backend: Optional[str] = None) -> CommBackend:
    """Resolve a backend by name (``None`` → the process-wide default).

    The returned object is the *live handle*: its ``name`` attribute is
    what keys the tuning profile cache, so a profile calibrated on one
    transport can never be served to another.
    """
    if isinstance(backend, CommBackend):
        return backend
    name = backend or default_backend_name()
    _load_builtins(name)
    try:
        return _REGISTRY[name]
    except KeyError:
        if name in _UNAVAILABLE:
            raise BackendUnavailableError(
                f"comm backend {name!r} is unavailable on this platform: "
                f"{_UNAVAILABLE[name]}"
            ) from None
        raise ValueError(
            f"unknown comm backend {name!r}; available: {list(available_backends())}"
        ) from None


def launch(
    fn: Callable[..., Any],
    world_size: int,
    *args: Any,
    backend: Optional[str] = None,
    channels: Sequence[str] = DEFAULT_CHANNELS,
    channel: str = Channel.APP,
    timeout: Optional[float] = 300.0,
    default_recv_timeout: float = DEFAULT_TIMEOUT,
    backend_opts: Optional[Dict[str, Any]] = None,
    **kwargs: Any,
) -> List[Any]:
    """Run ``fn(comm, *args, **kwargs)`` on ``world_size`` ranks.

    Note the argument order: the SPMD function comes first, as with
    ``mpiexec <prog>``.

    Parameters
    ----------
    fn:
        The SPMD function; its first argument is the rank's
        communicator on ``channel``.
    world_size:
        Number of ranks to spawn.
    backend:
        Registered backend name; ``None`` uses the process-wide default
        (``"thread"`` unless ``REPRO_COMM_BACKEND`` names another).
    channels:
        Channel names created for every rank.
    timeout:
        Overall completion timeout for the world, in seconds; ``None``
        waits forever.  Otherwise it must be finite and positive
        (``ValueError`` before any rank starts).
    default_recv_timeout:
        The world's receive deadline, in seconds: every blocking receive
        of every rank — collectives, barriers and telemetry included —
        raises :class:`~repro.comm.communicator.CommTimeoutError` after
        it.  Must be finite and positive (``ValueError`` otherwise,
        before any rank starts).
    backend_opts:
        Backend-specific options forwarded to
        :meth:`CommBackend.run` (e.g. ``{"thread_name_prefix": "w"}``
        for the thread backend); every other keyword argument goes to
        ``fn``.

    Returns
    -------
    list
        ``fn``'s return value per rank, indexed by rank.

    Raises
    ------
    WorldError
        If any rank raised; carries per-rank exceptions and tracebacks.
    """
    if world_size < 1:
        raise ValueError(f"world_size must be >= 1, got {world_size}")
    default_recv_timeout = check_deadline(default_recv_timeout)
    if timeout is not None:
        timeout = check_deadline(timeout, "timeout")
    return get_backend(backend).run(
        fn,
        world_size,
        args,
        kwargs,
        channels=channels,
        channel=channel,
        timeout=timeout,
        default_recv_timeout=default_recv_timeout,
        **(backend_opts or {}),
    )
