"""Multiprocess transports: one OS process per rank, one launcher.

This module is the process-model :class:`~repro.comm.backend.CommBackend`
— true parallelism (no shared GIL), which makes wall-clock measurements
on it comparable to the paper's multi-node runs in kind, not just in
shape.  Four backend names run on it (``process``, ``shm``, ``tcp``,
``hier``); each is one :class:`MeshPlan` — who serves the rendezvous,
and which byte pipe (TCP socket or shared-memory ring) carries each
rank pair — read by the one launcher (:class:`ProcessBackend`), the one
mesh builder (:func:`_build_mesh`) and the one endpoint
(:class:`MeshEndpoint`) below.

Topology and rendezvous
-----------------------
The launcher spawns ``P`` rank processes (``fork`` start method by
default, so the SPMD function, closures included, never needs pickling;
``backend_opts={"start_method": "spawn"}`` selects the pickled entry
point instead, for macOS/Windows or CUDA-after-fork situations) and
keeps one control/result pipe pair per rank.  The launcher itself runs
a *rendezvous service* (:class:`_RendezvousService`) on a loopback
address; every rank connects to it, registers its own data-listener
address, and receives the full ``rank -> address`` map back.  Because
the service lives in the launcher, the worker arguments contain no live
sockets — they are pickle-clean, which is what makes both ``spawn`` and
cross-launcher operation (the ``tcp`` backend's seed rendezvous,
:mod:`repro.comm.tcp_backend`) possible with the same worker entry
point.  The data plane is then a full mesh.  Over a socket pair rank
``i`` dials ``j > i`` and accepts from ``j < i``, one socket per pair,
``TCP_NODELAY`` set; over a ring pair each side creates its inbound ring
before the rendezvous (which doubles as the "every segment exists"
barrier) and attaches the peer's afterwards.  The ``process`` plan is a
launcher-local seed and sockets everywhere.  Bring-up connects retry
with bounded backoff (:func:`_connect_with_retry`): a rank may dial a
peer whose listener is not bound yet, and across launchers the seed may
come up late — neither race should abort the world.

Wire format
-----------
Each message is one frame::

    uint32 header_len | pickle(header) | payload bytes

where ``header = (channel, source, dest, tag, seq, kind, dtype, shape,
payload_nbytes)``.  Small Python objects travel pickled (``kind="obj"``).
NumPy arrays travel as their raw buffer (``kind="nd"``): the sender
writes the array's memoryview straight to the socket and the receiver
reads with ``recv_into`` on a preallocated array — no pickling and no
intermediate copies of the payload on either side.

The framing (:func:`pack_frame` / :func:`payload_scratch` /
:func:`payload_finish`) is the same on both link kinds; the ring link
and the inbound-ring pump live in :mod:`repro.comm.shm_backend`.

Failure semantics
-----------------
Mirrors the thread backend's :class:`~repro.comm.backend.WorldError`
contract.  A rank that raises reports ``(exception, traceback)`` to the
launcher over its result pipe; the launcher then broadcasts an abort on
every control pipe, which closes the surviving ranks' mailboxes — their
blocked receives wake with :class:`~repro.comm.mailbox.MailboxClosed`
instead of hanging.  A rank that dies without reporting (hard crash) is
detected by process exit and triggers the same abort.  A rank that
*finishes* simply closes its transport: peers treat the EOF (or the
ring-closed flag, on a ring link) as a normal departure, exactly
like a finished thread whose mailbox outlives it.
"""

from __future__ import annotations

import errno
import itertools
import multiprocessing
import multiprocessing.connection
import pickle
import socket
import struct
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.comm.backend import (
    BackendUnavailableError,
    CommBackend,
    WorldError,
    register_backend,
)
from repro.comm.communicator import Communicator
from repro.comm.mailbox import Mailbox, MailboxClosed
from repro.comm.message import Message
from repro.comm.router import Channel, DEFAULT_CHANNELS, is_declared_channel

__all__ = [
    "MeshEndpoint",
    "MeshPlan",
    "ProcessBackend",
    "ProcessCrashError",
    "pack_frame",
    "payload_finish",
    "payload_scratch",
]

#: Payload kind markers of the wire frame.
_KIND_OBJ = 0
_KIND_ND = 1

_HEADER_LEN = struct.Struct("!I")
_RANK_ID = struct.Struct("!I")

#: Socket timeout applied during rendezvous and mesh establishment.
_SETUP_TIMEOUT = 60.0

#: Backoff schedule of the bring-up retry loops (seconds).
_RETRY_INITIAL_DELAY = 0.02
_RETRY_MAX_DELAY = 0.5

#: Transient bring-up errnos worth retrying: a listener not bound yet
#: (ECONNREFUSED), a backlog overflow (ECONNRESET/ECONNABORTED), a port
#: still in TIME_WAIT (EADDRINUSE) or ephemeral-port pressure
#: (EADDRNOTAVAIL).  Anything else is a real error and propagates.
_RETRYABLE_CONNECT_ERRNOS = frozenset(
    {
        errno.ECONNREFUSED,
        errno.ECONNRESET,
        errno.ECONNABORTED,
        errno.EADDRNOTAVAIL,
        errno.ETIMEDOUT,
        errno.EINTR,
    }
)


class ProcessCrashError(RuntimeError):
    """A rank process exited without reporting a result."""


# ---------------------------------------------------------------------------
# low-level framing helpers (shared by both link kinds)
# ---------------------------------------------------------------------------
def _read_exact_into(sock: socket.socket, view: memoryview) -> bool:
    """Fill ``view`` from the socket; False on EOF before the first byte.

    EOF *inside* a frame (after at least one byte) raises — a peer that
    vanishes mid-message is a crash, not a departure.
    """
    got = 0
    total = len(view)
    while got < total:
        n = sock.recv_into(view[got:], total - got)
        if n == 0:
            if got == 0:
                return False
            raise ConnectionResetError(
                f"peer closed the connection mid-frame ({got}/{total} bytes)"
            )
        got += n
    return True


def _read_exact(sock: socket.socket, nbytes: int) -> Optional[bytearray]:
    buf = bytearray(nbytes)
    if not _read_exact_into(sock, memoryview(buf)):
        return None
    return buf


def _send_obj(sock: socket.socket, obj: Any) -> None:
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(_HEADER_LEN.pack(len(data)) + data)


def _recv_obj(sock: socket.socket) -> Any:
    header = _read_exact(sock, _HEADER_LEN.size)
    if header is None:
        raise ConnectionResetError("connection closed during rendezvous")
    (length,) = _HEADER_LEN.unpack(header)
    body = _read_exact(sock, length)
    if body is None:
        raise ConnectionResetError("connection closed during rendezvous")
    return pickle.loads(bytes(body))


def _connect_with_retry(
    addr: Tuple[str, int], timeout: float = _SETUP_TIMEOUT, what: str = "peer"
) -> socket.socket:
    """Dial ``addr``, retrying transient bring-up failures with backoff.

    During mesh establishment every connect races the peer's bind: a
    rank may dial a listener that is not up yet (``ECONNREFUSED``), and
    across launchers the seed service may start seconds later.  Those
    races used to abort the whole world; now they retry on a bounded
    exponential backoff until ``timeout`` expires.
    """
    deadline = time.monotonic() + timeout
    delay = _RETRY_INITIAL_DELAY
    last: Optional[OSError] = None
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError(
                f"could not connect to {what} at {addr} within {timeout}s"
                + (f" (last error: {last})" if last is not None else "")
            ) from last
        try:
            return socket.create_connection(addr, timeout=remaining)
        except OSError as exc:
            if (
                exc.errno not in _RETRYABLE_CONNECT_ERRNOS
                and not isinstance(exc, (ConnectionError, socket.timeout))
            ):
                raise
            last = exc
        time.sleep(min(delay, max(0.0, deadline - time.monotonic())))
        delay = min(delay * 2, _RETRY_MAX_DELAY)


def _bind_listener(
    addr: Tuple[str, int], backlog: int, timeout: float = _SETUP_TIMEOUT
) -> socket.socket:
    """Bind a listener at ``addr``, retrying ``EADDRINUSE`` with backoff.

    A fixed seed port may still sit in ``TIME_WAIT`` from the previous
    run (``SO_REUSEADDR`` covers that case directly) or be held for a
    moment by a launcher shutting down; both deserve a bounded wait, not
    an abort.  Ephemeral binds (port 0) never collide and return on the
    first attempt.
    """
    deadline = time.monotonic() + timeout
    delay = _RETRY_INITIAL_DELAY
    while True:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            sock.bind(addr)
            sock.listen(backlog)
            return sock
        except OSError as exc:
            sock.close()
            if exc.errno != errno.EADDRINUSE or time.monotonic() + delay >= deadline:
                raise
        time.sleep(delay)
        delay = min(delay * 2, _RETRY_MAX_DELAY)


def pack_frame(message: Message, channel: str) -> Tuple[bytes, Any]:
    """``(pickled header, body)`` of one wire frame.

    The header is ``(channel, source, dest, tag, seq, kind, dtype,
    shape, payload_nbytes)``.  NumPy arrays (plain dtypes only) return
    their raw buffer as the body (``kind="nd"`` — written to the wire
    without pickling); everything else is pickled (``kind="obj"``).
    """
    payload = message.payload
    if (
        isinstance(payload, np.ndarray)
        and not payload.dtype.hasobject
        and payload.dtype.names is None  # dtype.str drops record fields
    ):
        # ascontiguousarray would promote 0-d to 1-d; the header keeps
        # the true shape so the receiver reconstructs it exactly.
        arr = payload if payload.flags.c_contiguous else np.ascontiguousarray(payload)
        header = (
            channel, message.source, message.dest, message.tag, message.seq,
            _KIND_ND, arr.dtype.str, payload.shape, int(arr.nbytes),
        )
        body: Any = memoryview(arr.reshape(-1)).cast("B")
    else:
        body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        header = (
            channel, message.source, message.dest, message.tag, message.seq,
            _KIND_OBJ, "", (), len(body),
        )
    return pickle.dumps(header, protocol=pickle.HIGHEST_PROTOCOL), body


def payload_scratch(kind: int, dtype: str, nbytes: int) -> Tuple[Any, memoryview]:
    """Receive-side buffer for one frame's payload.

    Returns ``(scratch, byte view)``: the transport fills the view with
    the frame's payload bytes (zero-copy for arrays — the view aliases
    the array's own buffer) and hands the scratch to
    :func:`payload_finish`.
    """
    if kind == _KIND_ND:
        dt = np.dtype(dtype)
        flat = np.empty(nbytes // dt.itemsize if dt.itemsize else 0, dtype=dt)
        return flat, memoryview(flat.view(np.uint8)) if nbytes else memoryview(b"")
    buf = bytearray(nbytes)
    return buf, memoryview(buf)


def payload_finish(kind: int, shape: Tuple[int, ...], scratch: Any) -> Any:
    """Turn a filled :func:`payload_scratch` buffer into the payload."""
    if kind == _KIND_ND:
        return scratch.reshape(shape)
    return pickle.loads(bytes(scratch))


# ---------------------------------------------------------------------------
# the per-process endpoint and its socket link
# ---------------------------------------------------------------------------
class MeshEndpoint:
    """One rank's view of a multiprocess mesh.

    Implements the :class:`~repro.comm.backend.RouterLike` surface the
    shared :class:`~repro.comm.communicator.Communicator` is built on:
    local mailboxes per channel (dynamic ``"<base>.<suffix>"``
    sub-channels included, mirroring
    :meth:`repro.comm.router.Router.mailbox`), delivery bookkeeping, the
    abort/close state machine, and a ``peer -> link`` table.  A link is
    the byte pipe to one peer — a :class:`_SocketLink` or a
    :class:`repro.comm.shm_backend._RingLink` — and answers ``send``
    (write one frame), ``shutdown`` and ``join``.  A rank with at least
    one ring peer also owns the inbound-ring pump
    (:class:`repro.comm.shm_backend._RingPump`); its mailboxes are then
    the work-stealing kind whose blocked receivers drain the rings
    themselves, otherwise the plain kind (socket receiver threads
    already block in the kernel, which is as direct as a socket wake-up
    gets).
    """

    #: Remote payloads are framed (copied onto the wire) synchronously
    #: inside :meth:`deliver`, so the communicator may skip its
    #: defensive pre-send copy for remote destinations.
    remote_payloads_framed = True

    def __init__(
        self,
        rank: int,
        world_size: int,
        channels: Sequence[str] = DEFAULT_CHANNELS,
        rings: Any = None,
        host_topology: Any = None,
    ) -> None:
        if world_size < 1:
            raise ValueError(f"world_size must be >= 1, got {world_size}")
        self.rank = int(rank)
        self.world_size = int(world_size)
        self.channels: Tuple[str, ...] = tuple(channels)
        if not self.channels:
            raise ValueError(f"at least one channel is required, got {channels!r}")
        #: The rank -> host map of this world when the plan carries one
        #: (queried by the topology-aware collectives).
        self.host_topology = host_topology
        self._links: Dict[int, Any] = {}
        #: The inbound-ring component; ``rings`` is the world's ring
        #: session, given iff this rank has a ring peer.
        self._pump = None if rings is None else rings.pump(self)
        self._mailboxes: Dict[str, Mailbox] = {
            ch: self._make_mailbox(ch) for ch in self.channels
        }
        self._departed: set[int] = set()
        self._seq = itertools.count()
        self._lock = threading.Lock()
        self._message_count = 0
        self._byte_count = 0
        self._closed = False
        self._abort_reason: Optional[str] = None

    # ----------------------------------------------------------- plumbing
    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.world_size:
            raise ValueError(
                f"rank {rank} out of range for world of size {self.world_size}"
            )

    def _make_mailbox(self, channel: str) -> Mailbox:
        if self._pump is None:
            return Mailbox(self.rank, channel)
        return self._pump.make_mailbox(channel)

    def attach(self, peer: int, link: Any) -> None:
        """Register the byte pipe that carries frames to ``peer``."""
        self._links[peer] = link

    # ------------------------------------------------------------- access
    def mailbox(self, rank: int, channel: str) -> Mailbox:
        """Local mailbox for ``(rank, channel)``; only this rank's are held here."""
        self._check_rank(rank)
        if rank != self.rank:
            raise ValueError(
                f"rank {self.rank} cannot open rank {rank}'s mailbox: a "
                "multiprocess transport only holds local mailboxes"
            )
        mailbox = self._mailboxes.get(channel)
        if mailbox is None:
            with self._lock:
                mailbox = self._mailboxes.get(channel)
                if mailbox is None:
                    is_declared_channel(self.channels, channel)  # raises on a typo
                    mailbox = self._make_mailbox(channel)
                    if self._closed:
                        # Born closed, mirroring Router.close() semantics:
                        # a straggler blocked on a late-created channel is
                        # woken instead of hanging until its timeout.
                        mailbox.close()
                    self._mailboxes[channel] = mailbox
                    self.channels = self.channels + (channel,)
        return mailbox

    # ------------------------------------------------------------ deliver
    def deliver(self, message: Message, channel: str) -> None:
        """Route ``message`` to its destination (local put or wire frame)."""
        self._check_rank(message.dest)
        self._check_rank(message.source)
        is_declared_channel(self.channels, channel)  # raises on a typo
        if self._closed:
            raise MailboxClosed(
                f"rank {self.rank}: endpoint is closed"
                + (f" ({self._abort_reason})" if self._abort_reason else "")
            )
        message.seq = next(self._seq)
        with self._lock:
            self._message_count += 1
            self._byte_count += message.nbytes()
        if message.dest == self.rank:
            self.mailbox(self.rank, channel).put(message)
            return
        # A departed peer already finished and tore its transport down;
        # like a thread world's mailbox-to-nobody, the send evaporates.
        link = self._links.get(message.dest)
        if link is not None and message.dest not in self._departed:
            link.send(message, channel)

    # ------------------------------------------------------------- stats
    @property
    def message_count(self) -> int:
        """Messages this endpoint has delivered (sent) so far."""
        with self._lock:
            return self._message_count

    @property
    def byte_count(self) -> int:
        """Array payload bytes this endpoint has delivered (sent) so far."""
        with self._lock:
            return self._byte_count

    def pending_messages(self) -> int:
        """Delivered-but-unreceived messages across this rank's mailboxes."""
        with self._lock:
            mailboxes = list(self._mailboxes.values())
        return sum(mb.pending() for mb in mailboxes)

    # -------------------------------------------------------------- close
    def abort(self, reason: str) -> None:
        """Wake every blocked receive on this rank (world failure path)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._abort_reason = reason
            mailboxes = list(self._mailboxes.values())
        for mb in mailboxes:
            mb.close()
        self._shutdown_transport()

    def close(self) -> None:
        """Orderly teardown after the SPMD function returned.

        Mailboxes stay readable (matching a finished thread rank whose
        queued messages remain inspectable); only the transport goes
        down, which peers observe as a normal departure.  Safe after an
        abort: the transport is already down, but receiver threads are
        still joined (and ring mappings released) exactly once.
        """
        with self._lock:
            already_closed = self._closed
            self._closed = True
        if not already_closed:
            self._shutdown_transport()
        for link in self._links.values():
            link.join()
        if self._pump is not None:
            self._pump.release()

    def _shutdown_transport(self) -> None:
        for link in self._links.values():
            link.shutdown()
        if self._pump is not None:
            self._pump.shutdown()


class _SocketLink:
    """The byte pipe to one socket peer.

    Holds the pair's socket, its send lock and its receiver thread.
    ``EPIPE`` on send and EOF on receive (mid-frame included) mean the
    peer *departed*; only an unreadable stream aborts the local rank.
    """

    def __init__(self, endpoint: MeshEndpoint, peer: int, sock: socket.socket) -> None:
        sock.settimeout(None)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._endpoint = endpoint
        self._peer = peer
        self._sock = sock
        self._send_lock = threading.Lock()
        self._receiver = threading.Thread(
            target=self._recv_loop,
            name=f"sockrecv-r{endpoint.rank}-p{peer}",
            daemon=True,
        )
        self._receiver.start()

    # --------------------------------------------------------------- send
    def send(self, message: Message, channel: str) -> None:
        head, body = pack_frame(message, channel)
        try:
            with self._send_lock:
                self._sock.sendall(_HEADER_LEN.pack(len(head)) + head)
                if len(body):
                    self._sock.sendall(body)
        except OSError:
            # EPIPE/ECONNRESET: the peer departed between our check and the
            # write.  Same no-op semantics as a departed peer; a *crash* is
            # handled by the launcher's abort broadcast, not the send path.
            self._endpoint._departed.add(self._peer)

    # ----------------------------------------------------------- receive
    def _recv_loop(self) -> None:
        endpoint, sock = self._endpoint, self._sock
        try:
            while True:
                head_len_buf = _read_exact(sock, _HEADER_LEN.size)
                if head_len_buf is None:
                    break  # orderly EOF at a frame boundary: peer departed
                (head_len,) = _HEADER_LEN.unpack(head_len_buf)
                head = _read_exact(sock, head_len)
                if head is None:
                    raise ConnectionResetError("EOF inside a frame header")
                channel, source, dest, tag, seq, kind, dtype, shape, nbytes = (
                    pickle.loads(bytes(head))
                )
                scratch, view = payload_scratch(kind, dtype, nbytes)
                if nbytes:
                    # Zero-copy receive: the socket fills the array's
                    # own buffer, no intermediate bytes object.
                    if not _read_exact_into(sock, view):
                        raise ConnectionResetError("EOF inside a frame payload")
                payload = payload_finish(kind, shape, scratch)
                msg = Message(source=source, dest=dest, tag=tag, payload=payload, seq=seq)
                try:
                    endpoint.mailbox(endpoint.rank, channel).put(msg)
                except MailboxClosed:
                    return  # aborted while delivering; drop and exit
                if endpoint._pump is not None:
                    # A consumer blocked in recv may be parked on the ring
                    # doorbell (not the mailbox condition); ring it so
                    # socket arrivals have socket latency, not park-slice
                    # latency.
                    endpoint._pump.notify()
        except OSError:
            # Reset/teardown on the peer socket (including mid-frame EOF,
            # which _read_exact_into raises as ConnectionResetError).  A
            # peer may answer its own close() with RST while our frame is
            # in flight, so a socket error here is *departure*, never a
            # world failure: genuine crashes are detected by the
            # launcher's liveness check, which aborts every rank through
            # the control pipes.  Mirrors the send path's handling.
            pass
        except (EOFError, pickle.UnpicklingError) as exc:
            # Both processes are alive but the stream is unreadable — the
            # launcher cannot see this, so wake the local rank ourselves.
            if not endpoint._closed:
                endpoint.abort(f"corrupted stream from rank {self._peer}: {exc}")
        finally:
            endpoint._departed.add(self._peer)
            try:
                sock.close()
            except OSError:
                pass

    # -------------------------------------------------------------- close
    def shutdown(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def join(self) -> None:
        """Wait briefly for the receiver thread after an orderly close."""
        self._receiver.join(timeout=2.0)


# ---------------------------------------------------------------------------
# rendezvous service (launcher side) + mesh establishment (rank side)
# ---------------------------------------------------------------------------
class _RendezvousService:
    """Launcher-side seed server: collect every rank's payload, broadcast
    the map.

    Serving the rendezvous from the launcher (instead of a fork-inherited
    listener inside rank 0) keeps the worker arguments free of live
    sockets — pickle-clean, so the ``spawn`` start method and the ``tcp``
    backend's cross-launcher seed use the same worker entry point.  For
    multi-launcher worlds only the launcher owning the seed address runs
    a service; every rank of every launcher connects to it as a client.
    """

    def __init__(self, world_size: int, addr: Tuple[str, int]) -> None:
        self._world_size = world_size
        self._listener = _bind_listener(addr, backlog=world_size)
        #: The address ranks dial (concrete port even for ephemeral binds).
        self.addr: Tuple[str, int] = self._listener.getsockname()[:2]
        self._thread = threading.Thread(
            target=self._serve, name="rendezvous-seed", daemon=True
        )
        self._thread.start()

    def _serve(self) -> None:
        listener = self._listener
        listener.settimeout(_SETUP_TIMEOUT)
        payload_map: Dict[int, Any] = {}
        conns: List[socket.socket] = []
        try:
            while len(conns) < self._world_size:
                conn, _ = listener.accept()
                conn.settimeout(_SETUP_TIMEOUT)
                peer_rank, peer_payload = _recv_obj(conn)
                payload_map[int(peer_rank)] = peer_payload
                conns.append(conn)
            for conn in conns:
                _send_obj(conn, payload_map)
        except OSError:
            # Listener closed during teardown, or the accept timed out
            # because some rank never dialled in; the ranks observe their
            # own rendezvous failures and report through the launcher.
            pass
        finally:
            for conn in conns:
                try:
                    conn.close()
                except OSError:
                    pass

    def close(self) -> None:
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - already closed
            pass
        self._thread.join(timeout=1.0)


def _rendezvous(
    rank: int,
    world_size: int,
    rendezvous_addr: Tuple[str, int],
    my_payload: Any,
) -> Dict[int, Any]:
    """Register with the seed service, receive the full payload map back.

    Payloads are data-listener addresses (``None`` for a rank without a
    socket peer); the broadcast doubles as the "all ring segments exist"
    barrier.  The dial retries: across launchers the seed may not be
    bound yet.
    """
    conn = _connect_with_retry(rendezvous_addr, _SETUP_TIMEOUT, what="rendezvous seed")
    conn.settimeout(_SETUP_TIMEOUT)
    try:
        _send_obj(conn, (rank, my_payload))
        payload_map = _recv_obj(conn)
    finally:
        conn.close()
    if len(payload_map) != world_size:
        raise RuntimeError(
            f"rendezvous returned {len(payload_map)} registrations for a "
            f"world of {world_size}"
        )
    return payload_map


@dataclass
class MeshPlan:
    """Which byte pipe carries each rank pair, and who serves the rendezvous.

    The one description of a world's fabric: every registered name
    supplies a function ``(world_size, opts) -> MeshPlan`` that pops the
    ``backend_opts`` it understands, and the launcher, the mesh builder
    and the endpoint read the result instead of re-deriving it.
    """

    #: rank -> host label.  A pair on one label rides a shared-memory
    #: ring, any other pair a TCP socket.
    hosts: Tuple[int, ...]
    #: Launcher-side ring resources (session namespace, doorbells; a
    #: :class:`repro.comm.shm_backend._RingSession`), allocated iff some
    #: pair rides a ring and closed by the launcher when the world ends.
    rings: Any = None
    #: Exposed as ``comm.router.host_topology`` (the ``hier`` backend).
    host_topology: Any = None
    #: Where the ranks rendezvous; ``None`` = an ephemeral loopback seed
    #: served by this launcher.  A named seed is served by the launcher
    #: that owns rank 0.
    seed_addr: Optional[Tuple[str, int]] = None
    #: The global ranks this launcher spawns (``None`` = all of them).
    local_ranks: Optional[List[int]] = None
    #: Interface the rank data listeners bind to and advertise.
    bind_host: str = "127.0.0.1"


def reject_unknown_opts(name: str, opts: Dict[str, Any]) -> None:
    """Fail on ``backend_opts`` keys the ``name`` backend's plan did not pop."""
    if opts:
        raise TypeError(f"{name} backend got unexpected options {sorted(opts)}")


def _socket_plan(world_size: int, opts: Dict[str, Any]) -> MeshPlan:
    """``process``: launcher-local seed, a socket for every pair."""
    reject_unknown_opts("process", opts)
    return MeshPlan(hosts=tuple(range(world_size)))


def _build_mesh(
    rank: int, world_size: int, channels: Sequence[str], plan: MeshPlan
) -> MeshEndpoint:
    peers = [p for p in range(world_size) if p != rank]
    ring_peers = [p for p in peers if plan.hosts[p] == plan.hosts[rank]]
    socket_peers = [p for p in peers if plan.hosts[p] != plan.hosts[rank]]
    endpoint = MeshEndpoint(
        rank, world_size, channels,
        rings=plan.rings if ring_peers else None,
        host_topology=plan.host_topology,
    )
    if not peers:
        return endpoint

    # Create this rank's inbound rings and bind its data listener, then
    # rendezvous: the seed's collect-and-broadcast is simultaneously the
    # "every segment exists" barrier (attaching below can never race a
    # missing segment) and the data-address exchange.
    pump = endpoint._pump  # present iff there is a ring peer
    for peer in ring_peers:
        pump.create_inbound(peer)
    data_listener = None
    my_addr: Optional[Tuple[str, int]] = None
    if socket_peers:
        data_listener = _bind_listener((plan.bind_host, 0), backlog=world_size)
        data_listener.settimeout(_SETUP_TIMEOUT)
        my_addr = data_listener.getsockname()[:2]

    addr_map = _rendezvous(rank, world_size, plan.seed_addr, my_addr)

    for peer in ring_peers:
        endpoint.attach(peer, pump.connect(peer))
    # Socket pairs: dial the higher ranks, accept the lower ones.
    for peer in (p for p in socket_peers if p > rank):
        sock = _connect_with_retry(
            tuple(addr_map[peer]), _SETUP_TIMEOUT, what=f"rank {peer}"
        )
        sock.sendall(_RANK_ID.pack(rank))
        endpoint.attach(peer, _SocketLink(endpoint, peer, sock))
    for _ in (p for p in socket_peers if p < rank):
        sock, _ = data_listener.accept()
        sock.settimeout(_SETUP_TIMEOUT)
        raw = _read_exact(sock, _RANK_ID.size)
        if raw is None:
            raise ConnectionResetError("mesh peer closed during handshake")
        (peer,) = _RANK_ID.unpack(raw)
        endpoint.attach(peer, _SocketLink(endpoint, peer, sock))
    if data_listener is not None:
        data_listener.close()
    return endpoint


# ---------------------------------------------------------------------------
# rank worker (child process)
# ---------------------------------------------------------------------------
def _pickle_safe_exception(exc: BaseException) -> BaseException:
    """Return ``exc`` if it survives a pickle round-trip, else a stand-in."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:  # noqa: BLE001 - any pickling failure takes the fallback
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _abort_listener(control, endpoint: MeshEndpoint, done: threading.Event) -> None:
    while not done.is_set():
        try:
            if control.poll(0.1):
                control.recv()
                endpoint.abort("aborted by launcher: another rank failed")
                return
        except (EOFError, OSError):
            return


def _worker_main(
    rank: int,
    world_size: int,
    fn: Callable[..., Any],
    args: Tuple[Any, ...],
    kwargs: Dict[str, Any],
    plan: MeshPlan,
    channels: Sequence[str],
    channel: str,
    default_recv_timeout: Optional[float],
    result_conn,
    control_conn,
) -> None:
    endpoint: Optional[MeshEndpoint] = None
    done = threading.Event()
    try:
        endpoint = _build_mesh(rank, world_size, channels, plan)
        listener = threading.Thread(
            target=_abort_listener,
            args=(control_conn, endpoint, done),
            name=f"abort-listener-r{rank}",
            daemon=True,
        )
        listener.start()
        comm = Communicator(
            endpoint, rank, channel=channel, default_timeout=default_recv_timeout
        )
        result = fn(comm, *args, **kwargs)
        try:
            result_conn.send(("ok", result))
        except Exception as exc:  # noqa: BLE001 - unpicklable result
            result_conn.send(
                (
                    "err",
                    RuntimeError(
                        f"rank {rank} returned an unpicklable result "
                        f"({type(result).__name__}): {exc}"
                    ),
                    traceback.format_exc(),
                )
            )
    except BaseException as exc:  # noqa: BLE001 - reported to the launcher
        try:
            result_conn.send(("err", _pickle_safe_exception(exc), traceback.format_exc()))
        except (OSError, ValueError, EOFError):
            pass
    finally:
        done.set()
        if endpoint is not None:
            endpoint.close()
        try:
            result_conn.close()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# the backend (launcher side)
# ---------------------------------------------------------------------------
@register_backend("process")
class ProcessBackend(CommBackend):
    """One OS process per rank over the mesh its plan describes.

    The launcher below — spawn, result collection, liveness checks, the
    abort broadcast, the hang/timeout handling — is the same for every
    process-model name; ``plan`` (``(world_size, opts) -> MeshPlan``) is
    what a name contributes.  The default is ``process`` itself: a
    launcher-local seed and a TCP socket for every pair.
    """

    #: Grace period for surviving ranks to drain after an abort broadcast.
    abort_grace: float = 10.0

    #: Start methods tried (in order) when the caller does not pick one.
    _START_METHOD_PREFERENCE: Tuple[str, ...] = ("fork", "spawn")

    def __init__(
        self,
        name: str = "process",
        plan: Callable[[int, Dict[str, Any]], MeshPlan] = _socket_plan,
    ) -> None:
        self.name = name
        self._plan = plan

    def _context(self, start_method: Optional[str] = None):
        if start_method is not None:
            try:
                return multiprocessing.get_context(start_method)
            except ValueError as exc:
                raise ValueError(
                    f"unknown multiprocessing start method {start_method!r}; "
                    f"available: {multiprocessing.get_all_start_methods()}"
                ) from exc
        for method in self._START_METHOD_PREFERENCE:
            try:
                return multiprocessing.get_context(method)
            except ValueError:  # pragma: no cover - non-POSIX platforms
                continue
        raise BackendUnavailableError(  # pragma: no cover - spawn always exists
            f"the {self.name} backend found no usable start method; "
            "use backend='thread' on this platform"
        )

    # -------------------------------------------------------------- launch
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
        default_recv_timeout: Optional[float] = 120.0,
        **opts: Any,
    ) -> List[Any]:
        kwargs = kwargs or {}
        ctx = self._context(opts.pop("start_method", None))
        plan = self._plan(world_size, opts)
        # A launcher may own only a subset of the ranks (the tcp backend's
        # multi-launcher mode); by default it spawns and monitors them all.
        local_ranks = plan.local_ranks or list(range(world_size))
        service = None
        try:
            if world_size > 1 and (plan.seed_addr is None or 0 in local_ranks):
                # Serving the rendezvous here keeps everything handed to
                # the workers picklable: they only ever see its address.
                # A named seed belongs to the launcher owning rank 0.
                service = _RendezvousService(
                    world_size, plan.seed_addr or ("127.0.0.1", 0)
                )
                plan.seed_addr = service.addr
            result_pipes = {rank: ctx.Pipe(duplex=False) for rank in local_ranks}
            control_pipes = {rank: ctx.Pipe(duplex=False) for rank in local_ranks}
            procs: Dict[int, Any] = {}
            for rank in local_ranks:
                proc = ctx.Process(
                    target=_worker_main,
                    args=(
                        rank,
                        world_size,
                        fn,
                        args,
                        kwargs,
                        plan,
                        tuple(channels),
                        channel,
                        default_recv_timeout,
                        result_pipes[rank][1],
                        control_pipes[rank][0],
                    ),
                    name=f"rank{rank}",
                    daemon=True,
                )
                procs[rank] = proc
                proc.start()
            # The children hold their ends now; release the parent's copies.
            for recv_end, send_end in result_pipes.values():
                send_end.close()
            for recv_end, send_end in control_pipes.values():
                recv_end.close()
            return self._monitor(procs, result_pipes, control_pipes, world_size, timeout)
        finally:
            if service is not None:
                service.close()
            if plan.rings is not None:
                plan.rings.close()

    # ------------------------------------------------------------- monitor
    def _monitor(
        self,
        procs: Dict[int, Any],
        result_pipes: Dict[int, Any],
        control_pipes: Dict[int, Any],
        world_size: int,
        timeout: Optional[float],
    ) -> List[Any]:
        """Collect results from this launcher's ranks (keys of ``procs``).

        Returns a list indexed by *global* rank; positions owned by
        another launcher stay ``None``.  Failure semantics are per
        launcher: each launcher aborts and reports its own ranks, a
        remote launcher's crash surfaces here as peer departures (or a
        timeout) on the local ranks.
        """
        results: List[Any] = [None] * world_size
        reported: Dict[int, bool] = {}
        failures: Dict[int, BaseException] = {}
        tracebacks: Dict[int, str] = {}
        aborted = False

        def _broadcast_abort() -> None:
            nonlocal aborted
            if aborted:
                return
            aborted = True
            for rank in procs:
                if rank not in reported:
                    try:
                        control_pipes[rank][1].send("abort")
                    except (OSError, ValueError, BrokenPipeError):
                        pass

        def _drain(rank: int) -> None:
            conn = result_pipes[rank][0]
            try:
                if conn.poll(0):
                    outcome = conn.recv()
                    reported[rank] = True
                    if outcome[0] == "ok":
                        results[rank] = outcome[1]
                    else:
                        failures[rank] = outcome[1]
                        tracebacks[rank] = outcome[2]
            except (EOFError, OSError):
                pass  # handled by the liveness check below

        deadline = None if timeout is None else time.monotonic() + timeout
        grace_deadline: Optional[float] = None
        timed_out = False
        while len(reported) < len(procs):
            for rank in procs:
                if rank not in reported:
                    _drain(rank)
            for rank, proc in procs.items():
                if rank not in reported and not proc.is_alive():
                    _drain(rank)  # result may have raced the exit
                    if rank not in reported:
                        reported[rank] = True
                        failures[rank] = ProcessCrashError(
                            f"rank {rank} exited with code {proc.exitcode} "
                            "without reporting a result"
                        )
                        tracebacks[rank] = ""
            if failures:
                _broadcast_abort()
                if grace_deadline is None:
                    grace_deadline = time.monotonic() + self.abort_grace
            if len(reported) >= len(procs):
                break
            now = time.monotonic()
            if grace_deadline is not None and now >= grace_deadline:
                break
            if deadline is not None and now >= deadline:
                timed_out = True
                _broadcast_abort()
                # Short grace only: a rank blocked in communication wakes
                # on the abort, one stuck in compute needs terminate().
                grace_deadline = now + min(2.0, self.abort_grace)
                deadline = None
            # Block until a result arrives or a child exits — no busy
            # polling.  A drained-but-alive rank's pipe never re-signals,
            # so only unreported ranks' handles are waited on.
            pending = [r for r in procs if r not in reported]
            handles: List[Any] = [result_pipes[r][0] for r in pending]
            handles += [procs[r].sentinel for r in pending]
            wait_bounds = [
                b - time.monotonic()
                for b in (deadline, grace_deadline)
                if b is not None
            ]
            multiprocessing.connection.wait(
                handles, timeout=max(0.0, min(wait_bounds)) if wait_bounds else None
            )

        hung = []
        for rank, proc in procs.items():
            proc.join(timeout=0.5)
            if proc.is_alive():
                hung.append(proc.name)
                proc.terminate()
                proc.join(timeout=2.0)
                if proc.is_alive():  # pragma: no cover - terminate() sufficed so far
                    proc.kill()
                    proc.join(timeout=1.0)
        for rank in procs:
            for conn in (result_pipes[rank][0], control_pipes[rank][1]):
                try:
                    conn.close()
                except OSError:
                    pass

        if (timed_out or hung) and not failures:
            raise WorldError(
                {-1: TimeoutError(f"ranks did not finish within {timeout}s: {hung}")},
                {-1: ""},
            )
        if failures:
            raise WorldError(failures, tracebacks)
        return results
