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

    uint32 header_len | header | body
    header = struct(kind, dtype code, ndim, source, dest, tag, seq,
                    body bytes) | ndim x uint64 dims | channel (UTF-8)

A fixed ``struct`` envelope, no pickle: NumPy arrays of the listed
dtypes travel as their raw buffer (``kind="nd"``, the sender writes the
array's memoryview straight to the link); any other payload is a
pickled body (``kind="obj"``).  The framing (:func:`pack_frame`,
:func:`_frames`) is the same on both link kinds.  Prefix and header are
read through a small read-ahead buffer — one ``read_some`` when the
bytes are there — and a body straight into its destination.

Progress
--------
There is one inbound engine (:class:`_Pump`) and no transport thread:
a rank's inbound bytes — from rings and from non-blocking sockets alike
— are read and parsed *in the context of whichever thread would
otherwise idle*: a blocked receiver (:class:`_PumpingMailbox`), a sender
waiting out a full ring or a full kernel socket buffer (which is also
what keeps two ranks flooding each other from deadlocking), and
``poll`` callers.  As with MPI's posted and unexpected
queues, a thread blocked in ``recv_into`` posts its receive
(:class:`_Receive`) while it pumps: the frame whose header matches it
(channel, source, tag, dtype, size) is *expected* — its body is read
straight into the caller's array (with a reduce op: into a scratch
buffer per link, then combined) and the pump stops at that frame's
end.  Every other frame is *staged*: read into a fresh array for its
mailbox, where ``recv`` takes it or ``recv_into`` copies it out.  A
receive writes only into memory its caller gave it.  A thread
with nothing to drain parks in one ``select`` on the endpoint's wake
source (the rank's ring doorbell, or a local ``socket.socketpair()`` in
a world without rings) plus every live socket.  The back-pressure
contract follows, for both link kinds: **a rank that neither sends,
receives nor polls does not drain its inbound links** — a peer sending
to it blocks once the ring, or the kernel's socket buffers, are full,
until the rank next communicates.  The ring link and the launcher-side
ring resources live in :mod:`repro.comm.shm_backend`.  CI exercises
Linux only; nothing here is POSIX-specific for a socket-only world
(``select`` on sockets, no pipes).

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
like a finished thread whose mailbox outlives it.  EOF or a reset in
the middle of a frame is a departure too (the launcher owns crash
detection); only a stream that cannot be parsed aborts the local rank.
"""

from __future__ import annotations

import errno
import itertools
import math
import multiprocessing
import multiprocessing.connection
import pickle
import select
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
from repro.comm.communicator import DEFAULT_TIMEOUT, Communicator
from repro.comm.mailbox import Mailbox, MailboxClosed, land
from repro.comm.message import Message
from repro.comm.router import Channel, DEFAULT_CHANNELS, is_declared_channel

__all__ = [
    "MeshEndpoint",
    "MeshPlan",
    "ProcessBackend",
    "ProcessCrashError",
    "pack_frame",
]

#: Payload kind markers of the wire frame.
_KIND_OBJ = 0
_KIND_ND = 1

_HEADER_LEN = struct.Struct("!I")
_RANK_ID = struct.Struct("!I")
#: A frame up to its dims: prefix, kind, dtype code, ndim, source, dest, tag, seq, nbytes.
_HEAD = struct.Struct("!IBBBxIIqQQ")
#: The dims of an ``ndim``-dimensional array body, by ``ndim``.
_DIMS = tuple(struct.Struct(f"!{ndim}Q") for ndim in range(65))
#: The dtypes an array body may have, by wire code; an array of any other
#: dtype travels pickled.
_DTYPES = tuple(map(np.dtype, (
    "<f8", "<f4", "<f2", "<u2", "<i8", "<i4", "<u4", "<u8", "<i2", "|i1", "|u1", "|b1",
)))
_DTYPE_CODES = {dtype: code for code, dtype in enumerate(_DTYPES)}

#: Socket timeout applied during rendezvous and mesh establishment.
_SETUP_TIMEOUT = 60.0

#: Longest sleep of a parked or send-stalled thread; bounds the reaction
#: time to aborts and crashes.
_WAIT_SLICE = 0.05

#: A frame header is tens of bytes; a length prefix beyond this is a
#: corrupted stream, not a header worth waiting for.
_MAX_HEADER_BYTES = 1 << 10

#: What a frame parser asks its link for while it needs a header: small
#: frames arrive whole, and at most this much of a body is copied twice.
_READ_AHEAD = 1 << 12

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
def _read_exact(sock: socket.socket, nbytes: int) -> bytes:
    """Read exactly ``nbytes`` from a blocking bring-up socket."""
    buf = bytearray(nbytes)
    view = memoryview(buf)
    got = 0
    while got < nbytes:
        n = sock.recv_into(view[got:])
        if n == 0:
            raise ConnectionResetError(
                f"connection closed during mesh bring-up ({got}/{nbytes} bytes)"
            )
        got += n
    return bytes(buf)


def _send_obj(sock: socket.socket, obj: Any) -> None:
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(_HEADER_LEN.pack(len(data)) + data)


def _recv_obj(sock: socket.socket) -> Any:
    (length,) = _HEADER_LEN.unpack(_read_exact(sock, _HEADER_LEN.size))
    return pickle.loads(_read_exact(sock, length))


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
    """``(prefix and header, body)`` of one wire frame (see *Wire format*).

    An array of a listed dtype is its own body, written without a copy
    (``kind="nd"``); any other payload is pickled (``kind="obj"``).
    """
    payload = message.payload
    code = _DTYPE_CODES.get(payload.dtype) if isinstance(payload, np.ndarray) else None
    if code is None:
        body: Any = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        kind, code, shape, nbytes = _KIND_OBJ, 0, (), len(body)
    else:
        # ascontiguousarray would promote 0-d to 1-d; the header keeps
        # the true shape so the receiver reconstructs it exactly.
        arr = payload if payload.flags.c_contiguous else np.ascontiguousarray(payload)
        body = memoryview(arr.reshape(-1)).cast("B")
        kind, shape, nbytes = _KIND_ND, payload.shape, arr.nbytes
    name = channel.encode()
    need = _HEAD.size - _HEADER_LEN.size + 8 * len(shape) + len(name)
    if need > _MAX_HEADER_BYTES:
        raise ValueError(f"frame header of {need} bytes for channel {channel!r}")
    head = _HEAD.pack(need, kind, code, len(shape), message.source, message.dest,
                      message.tag, message.seq, nbytes)
    return head + _DIMS[len(shape)].pack(*shape) + name, body


# ---------------------------------------------------------------------------
# the inbound engine: posted receive, frame parser, doorbell, mailbox, pump
# ---------------------------------------------------------------------------
class _Receive:
    """A ``recv_into`` posted by a blocked thread (see *Progress*).

    ``key`` is what a header must say to be its frame; ``into`` is
    ``out``'s own bytes, or ``None`` when the body goes through the
    parser's scratch first (a reduce ``op``, or a non-contiguous ``out``).
    ``claimed``: a header matched; ``done``: the body landed;
    ``abandoned``: the owner gave up mid-body, the rest goes nowhere.
    """

    __slots__ = ("mailbox", "key", "out", "op", "into", "claimed", "done", "abandoned")

    def __init__(self, mailbox: Mailbox, out: np.ndarray, source: int, tag: int, op: Any):
        if not out.flags.writeable:
            raise ValueError(f"recv_into needs a writable out, got a read-only {out.shape} array")
        self.mailbox, self.out, self.op = mailbox, out, op
        self.key = (mailbox.channel, source, tag, out.dtype, out.nbytes)
        direct = op is None and out.flags.c_contiguous
        self.into = memoryview(out.reshape(-1)).cast("B") if direct else None
        self.claimed = self.done = self.abandoned = False


def _frames(link: Any, pump: Any):
    """Generator over the frames arriving on ``link``, in arbitrary pieces.

    Each ``next()`` parses what ``link.read_some`` yields and returns
    ``None`` when the link ran dry mid-frame (the next call resumes there),
    ``pump.want`` once a frame landed in it, or ``(message, channel)`` for
    a staged frame.  An unparseable stream raises ``ValueError`` naming
    the offending value.
    """
    buf = bytearray(_READ_AHEAD)
    view = memoryview(buf)
    lo = hi = 0
    scratch = np.empty(0, np.uint8)

    def buffered(need: int):
        nonlocal lo, hi
        if lo + need > len(buf):
            view[: hi - lo] = view[lo:hi]
            lo, hi = 0, hi - lo
        while hi - lo < need:
            hi += link.read_some(view[hi:])
            if hi - lo < need:
                yield None  # starved mid-header

    def body(target: memoryview, receive: Optional[_Receive] = None):
        nonlocal lo
        got = min(len(target), hi - lo)
        target[:got] = view[lo : lo + got]
        lo += got
        while got < len(target):
            got += link.read_some(target[got:])
            if got < len(target):
                yield None  # starved mid-body
                if receive is not None and receive.abandoned:
                    target = memoryview(bytearray(len(target)))

    while True:
        if lo == hi:
            lo, hi = 0, link.read_some(view)
            while not hi:  # an idle link costs one read per pass, nothing more
                yield None
                hi = link.read_some(view)
        if hi - lo < _HEADER_LEN.size:
            yield from buffered(_HEADER_LEN.size)
        (need,) = _HEADER_LEN.unpack_from(buf, lo)
        if not _HEAD.size - _HEADER_LEN.size <= need <= _MAX_HEADER_BYTES:
            raise ValueError(f"frame header of {need} bytes")
        end = lo + _HEADER_LEN.size + need
        if hi < end:
            yield from buffered(end - lo)
            end = lo + _HEADER_LEN.size + need
        _, kind, code, ndim, source, dest, tag, seq, nbytes = _HEAD.unpack_from(buf, lo)
        dims_end = lo + _HEAD.size + 8 * ndim
        if kind > _KIND_ND or code >= len(_DTYPES) or ndim >= len(_DIMS) or dims_end > end:
            raise ValueError(
                f"frame header of {need} bytes with kind {kind}, dtype code {code}, ndim {ndim}"
            )
        shape = _DIMS[ndim].unpack_from(buf, lo + _HEAD.size)
        channel = buf[dims_end:end].decode()
        lo = end
        if kind == _KIND_OBJ:
            pickled = bytearray(nbytes)
            yield from body(memoryview(pickled))
            payload = pickle.loads(pickled)
        else:
            dtype = _DTYPES[code]
            if nbytes != dtype.itemsize * math.prod(shape):
                raise ValueError(f"array body of {nbytes} bytes for {dtype} x {shape}")
            receive = pump.want
            if receive is not None and receive.key == (channel, source, tag, dtype, nbytes):
                receive.claimed = True
                if receive.into is None and scratch.size < nbytes:
                    scratch = np.empty(nbytes, np.uint8)
                into = receive.into
                yield from body(memoryview(scratch[:nbytes]) if into is None else into, receive)
                if not receive.abandoned:
                    if into is None:
                        land(receive.out, scratch[:nbytes].view(dtype), receive.op)
                    receive.done = True
                yield receive
                continue
            flat = np.empty(nbytes // dtype.itemsize, dtype)
            yield from body(memoryview(flat).cast("B"))
            payload = flat.reshape(shape)
        yield Message(source=source, dest=dest, tag=tag, payload=payload, seq=seq), channel


class _Doorbell:
    """A one-byte wake-up signal a thread can ``select`` on.

    The event half of every sleep in the transport: a waiter that found
    nothing to do arms a flag, re-checks and sleeps in ``select``;
    whoever changes the condition *and sees the flag* sends one byte.
    One syscall to ring, one ``select`` plus one draining ``recv`` to
    wake — cheaper than ``multiprocessing.Event`` (several semaphore
    operations per transition), and with the flag unarmed the fast path
    touches the kernel not at all.  A ``socket.socketpair()`` rather
    than a pipe, because sockets are what ``select`` accepts on every
    platform the ``spawn`` start method serves.  Both ends are
    non-blocking: a full buffer just means wake-ups are already pending.
    A world with rings creates its doorbells in the launcher (fork
    inherits them; under spawn multiprocessing pickles the two sockets
    as duplicated fds); an endpoint without a ring peer makes its own.
    """

    def __init__(self) -> None:
        self._rx, self._tx = socket.socketpair()
        self._rx.setblocking(False)
        self._tx.setblocking(False)

    def fileno(self) -> int:
        return self._rx.fileno()

    def ring(self) -> None:
        try:
            self._tx.send(b"\0")
        except OSError:
            pass  # enough wake-ups queued already, or closing down

    def drain(self) -> None:
        try:
            while self._rx.recv(4096):
                pass
        except OSError:
            pass  # drained, or closing down

    def wait(self, timeout: float) -> None:
        try:
            ready, _, _ = select.select([self._rx], [], [], timeout)
        except (OSError, ValueError):
            return  # closing down
        if ready:
            self.drain()

    def close(self) -> None:
        """Only the launcher closes its doorbells, once every rank has been
        joined: a rank closing its own would turn a late wake-up into an
        EBADF race, and the OS reclaims a rank's at exit anyway."""
        self._rx.close()
        self._tx.close()


class _PumpingMailbox(Mailbox):
    """Mailbox whose blocked receivers drive inbound progress themselves
    (see *Progress* in the module docstring): ``get`` steals the pump
    instead of waiting for a progress thread's notification, and
    :meth:`poll` pumps opportunistically, so poll loops
    observe arrivals without a background drainer."""

    def __init__(self, owner_rank: int, channel: str, pump: "_Pump") -> None:
        super().__init__(owner_rank, channel)
        self._pump = pump

    def get(self, source: int = -1, tag: int = -1, *, timeout: float, receive=None):
        """:meth:`Mailbox.get`; with a posted ``receive``, ``None`` once a
        frame landed in it in place."""
        deadline = time.monotonic() + timeout
        while True:
            with self._cond:
                if receive is None or not receive.claimed:
                    msg = self._find(source, tag)
                    if msg is not None:
                        return msg
                elif receive.done:
                    return None
                remaining = self._remaining(deadline, source, tag)
            self._pump._progress_or_wait(self, source, tag, remaining, receive)

    def get_into(self, out, source: int, tag: int, op=None, *, timeout: float) -> None:
        receive = _Receive(self, out, source, tag, op)
        try:
            msg = self.get(source, tag, timeout=timeout, receive=receive)
        finally:
            if receive.claimed and not receive.done:  # gave up mid-body
                with self._pump._pump_lock:  # noqa: SLF001 - cooperating classes
                    receive.abandoned = True
        if msg is not None:  # staged before its receive came
            land(out, msg.payload, op)

    def poll(self, source: int = -1, tag: int = -1):
        msg = super().poll(source, tag)
        if msg is None and self._pump._try_pump():
            msg = super().poll(source, tag)
        return msg


class _Pump:
    """The one inbound progress engine of an endpoint.

    Drains the inbound half of every live link in the context of
    whichever thread holds the *pump lock*; ``want`` is that thread's
    posted receive, if it has one.  What it needs of a link:

    ``read_some(view)``
        copy what is there, never block, return the byte count;
    ``eof``
        the peer departed and everything it sent has been read;
    ``arm()`` / ``disarm()``
        bracket a sleep: ``arm`` tells the producer to signal and
        returns ``False`` if bytes arrived meanwhile (the re-check that
        closes the publish/park race); a socket needs neither, its
        ``fileno()`` sits in the ``select`` instead.
    """

    def __init__(self, endpoint: "MeshEndpoint", wake: _Doorbell) -> None:
        self._endpoint = endpoint
        #: What a parked thread sleeps on besides its sockets: peers'
        #: ring doorbell writes, local deliveries, shutdown.
        self._wake = wake
        #: Serialises link consumption, parser state and parking.
        self._pump_lock = threading.Lock()
        #: peer -> (link, its frame parser), until the peer departs.
        self._live: Dict[int, Tuple[Any, Any]] = {}
        self._waitable: List[Any] = [wake]
        #: Set while a thread may be asleep in :meth:`_park`; local
        #: deliveries ring the wake source only then.
        self._parked = False
        self._released = False
        #: The posted receive of the thread holding the pump lock.
        self.want: Optional[_Receive] = None
        self.frames = 0
        self.frames_in_place = 0
        self.frames_staged = 0
        self.parks = 0

    def add(self, peer: int, link: Any) -> None:
        self._live[peer] = (link, _frames(link, self))
        if hasattr(link, "fileno"):
            self._waitable.append(link)

    # ----------------------------------------------------------- receive
    def _pump_once(self) -> bool:
        """One draining pass over every live link (pump lock held).

        Parses and delivers every complete frame currently available —
        except that once ``want`` is satisfied the pass ends at that
        frame's boundary; returns whether anything moved.
        """
        endpoint, want = self._endpoint, self.want
        progressed = False
        departed = ()
        for peer, (link, frames) in self._live.items():
            try:
                while True:
                    outcome = next(frames)
                    if outcome is None:
                        if link.eof:
                            # A departure, also with a partial frame left in the
                            # parser: that peer crashed, and the launcher aborts.
                            departed += (peer,)
                        break
                    progressed = True
                    self.frames += 1
                    if type(outcome) is _Receive:
                        self.frames_in_place += 1
                        if outcome is want:
                            break
                        # Its owner started this frame and may sleep on its mailbox.
                        with outcome.mailbox._cond:  # noqa: SLF001 - cooperating classes
                            outcome.mailbox._cond.notify_all()  # noqa: SLF001
                        continue
                    message, channel = outcome
                    self.frames_staged += isinstance(message.payload, np.ndarray)
                    try:
                        endpoint.mailbox(endpoint.rank, channel).put(message)
                    except MailboxClosed:
                        return progressed  # aborted while delivering
            except (pickle.UnpicklingError, EOFError, ValueError) as exc:
                # The stream is unreadable but both processes live — the
                # launcher cannot see this, so wake the local rank ourselves.
                if not endpoint._closed:
                    endpoint.abort(f"corrupted stream from rank {peer}: {exc}")
                departed += (peer,)  # its parser is spent
                break
            if want is not None and want.done:
                break
        for peer in departed:
            link, _ = self._live.pop(peer)
            endpoint._departed.add(peer)
            if link in self._waitable:
                self._waitable.remove(link)
        return progressed

    def _park(self, mailbox: Mailbox, source: int, tag: int, seconds: float) -> None:
        """Sleep until a link or the wake source has news (pump lock held,
        so at most one thread parks at a time).

        Arm first, then re-check rings and mailbox, then sleep: a
        producer that publishes, or a local ``deliver`` that puts, after
        the re-check sees the armed flag and signals.
        """
        live = self._live.values()
        self._parked = True
        try:
            # all() over a list, not a generator: every link must arm.
            if all([link.arm() for link, _ in live]) and not Mailbox.probe(
                mailbox, source, tag
            ):
                self.parks += 1
                try:
                    ready, _, _ = select.select(self._waitable, [], [], seconds)
                except (OSError, ValueError):
                    return  # closing down
                if self._wake in ready:
                    self._wake.drain()
        finally:
            self._parked = False
            for link, _ in live:
                link.disarm()

    def _try_pump(self) -> bool:
        """Nonblocking pump: drain the links if nobody else is.

        Returns whether anything moved (``False`` also when another
        thread holds the pump — its progress counts as progress for
        retry loops, but callers must not assume their message arrived).
        """
        if not self._pump_lock.acquire(blocking=False):
            return False
        try:
            return self._pump_once()
        finally:
            self._pump_lock.release()

    def _progress_or_wait(
        self, mailbox: Mailbox, source: int, tag: int, remaining: float,
        receive: Optional[_Receive] = None,
    ) -> None:
        """One blocked-receiver iteration: steal the pump or wait briefly.

        Called by :class:`_PumpingMailbox` with the mailbox lock
        released.  Either drains the links in this thread's context, with
        ``receive`` as ``want`` (parking when they are dry), or — when
        another thread is already pumping — waits for its notification
        on the mailbox condition.  Returns with no verdict; the caller
        re-checks its mailbox, its receive and its deadline.
        """
        slice_seconds = min(remaining, _WAIT_SLICE)
        if self._pump_lock.acquire(blocking=False):
            try:
                # A match staged meanwhile comes before any later frame.
                if (
                    receive is not None and not receive.claimed and mailbox._messages
                    and Mailbox.probe(mailbox, source, tag)
                ):
                    return
                self.want = receive
                try:
                    progressed = self._pump_once()
                finally:
                    self.want = None
                if not progressed:
                    self._park(mailbox, source, tag, slice_seconds)
            finally:
                self._pump_lock.release()
        else:
            # Someone else pumps; their put() will notify this condition.
            with mailbox._cond:  # noqa: SLF001 - cooperating classes
                if not (mailbox._messages or mailbox._closed or (receive and receive.done)):
                    mailbox._cond.wait(min(slice_seconds, 0.002))

    # -------------------------------------------------------------- close
    def release(self) -> None:
        """Close the sockets and unmap the rings, exactly once.

        Taking the pump lock and every send lock first guarantees no
        thread is mid-access on a link; late pump attempts find no live
        link and no-op, late sends see ``_closed`` and raise.
        """
        links = list(self._endpoint._links.values())
        locks = [self._pump_lock, *(link._send_lock for link in links)]
        for lock in locks:
            lock.acquire()
        try:
            if self._released:
                return
            self._released = True
            self._live.clear()
            del self._waitable[1:]
            for link in links:
                link.release()
        finally:
            for lock in reversed(locks):
                lock.release()


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
    the byte pipe to one peer, both directions — a :class:`_SocketLink`
    or a :class:`repro.comm.shm_backend._RingLink` — and answers
    ``send`` (write one frame), the inbound surface :class:`_Pump`
    drains, ``shutdown`` and ``release``.
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
        #: ``rings`` is the world's ring session, given iff this rank
        #: has a ring peer; its doorbell for this rank is then the wake
        #: source, because that is what ring producers write to.
        self._pump = _Pump(
            self, _Doorbell() if rings is None else rings.data_events[self.rank]
        )
        self._mailboxes: Dict[str, Mailbox] = {
            ch: _PumpingMailbox(self.rank, ch, self._pump) for ch in self.channels
        }
        self._departed: set[int] = set()
        self._seq = itertools.count()
        self._lock = threading.Lock()
        self._closed = False
        self._abort_reason: Optional[str] = None

    # ----------------------------------------------------------- plumbing
    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.world_size:
            raise ValueError(
                f"rank {rank} out of range for world of size {self.world_size}"
            )

    def attach(self, peer: int, link: Any) -> None:
        """Register the byte pipe that carries frames to and from ``peer``."""
        self._links[peer] = link
        self._pump.add(peer, link)

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
                    mailbox = _PumpingMailbox(self.rank, channel, self._pump)
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
        if message.dest == self.rank:
            self.mailbox(self.rank, channel).put(message)
            # The receiver may be another thread of this rank, asleep on
            # the wake source rather than on the mailbox condition.
            if self._pump._parked:
                self._pump._wake.ring()
            return
        # A departed peer already finished and tore its transport down;
        # like a thread world's mailbox-to-nobody, the send evaporates.
        link = self._links.get(message.dest)
        if link is not None and message.dest not in self._departed:
            link.send(message, channel)

    def _send_stalled(self, link: Any, peer: int) -> bool:
        """A link found no room for ``peer``'s frame: the peer is not
        reading — perhaps because it is stuck sending to us.  Drain our
        own inbound before waiting (two ranks flooding each other would
        otherwise deadlock); returns whether that moved anything."""
        if self._closed:
            raise MailboxClosed(
                f"rank {self.rank}: endpoint closed while sending to {peer}"
                + (f" ({self._abort_reason})" if self._abort_reason else "")
            )
        link.stalls += 1
        return self._pump._try_pump()

    # ------------------------------------------------------------- stats
    def stats(self) -> Dict[str, int]:
        """The transport's otherwise silent events, as running totals."""
        return {
            "frames_parsed": self._pump.frames,
            # Array frames landed in a recv_into's out / staged for a mailbox.
            "frames_in_place": self._pump.frames_in_place,
            "frames_staged": self._pump.frames_staged,
            "parks": self._pump.parks,
            # A sendmsg / ring write that found no room and had to wait.
            "send_stalls": sum(link.stalls for link in self._links.values()),
            "departed_peers": len(self._departed),
        }

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
        abort: the transport is already down, but sockets are still
        closed (and ring mappings released) exactly once.
        """
        with self._lock:
            already_closed = self._closed
            self._closed = True
        if not already_closed:
            self._shutdown_transport()
        self._pump.release()

    def _shutdown_transport(self) -> None:
        for link in self._links.values():
            link.shutdown()
        self._pump._wake.ring()  # a parked thread re-checks its mailbox


class _SocketLink:
    """The byte pipe to one socket peer: one non-blocking TCP socket.

    A frame is one ``sendmsg([prefix, body])`` repeated until the kernel
    has all of it — ``send`` returns only then, which is what
    ``remote_payloads_framed`` promises.  ``EPIPE`` on send and EOF or a
    reset on receive (mid-frame included) mean the peer *departed*: a
    crash is the launcher's to detect, and a peer may answer its own
    ``close()`` with RST while our frame is in flight.
    """

    def __init__(self, endpoint: MeshEndpoint, peer: int, sock: socket.socket) -> None:
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._endpoint = endpoint
        self._peer = peer
        self._sock = sock
        self._send_lock = threading.Lock()
        self.stalls = 0
        self.eof = False

    # --------------------------------------------------------------- send
    def send(self, message: Message, channel: str) -> None:
        head, body = pack_frame(message, channel)
        parts = [memoryview(head)]
        if len(body):
            parts.append(memoryview(body))
        endpoint, sock = self._endpoint, self._sock
        with self._send_lock:
            while parts:
                try:
                    sent = sock.sendmsg(parts)
                except BlockingIOError:  # the kernel buffer is full
                    if not endpoint._send_stalled(self, self._peer):
                        select.select([], [sock], [], _WAIT_SLICE)
                    continue
                except OSError:
                    # EPIPE/ECONNRESET: the peer departed between our check
                    # and the write; the rest of the frame evaporates.
                    endpoint._departed.add(self._peer)
                    return
                while sent:
                    first = len(parts[0])
                    if sent >= first:
                        sent -= first
                        del parts[0]
                    else:
                        parts[0] = parts[0][sent:]
                        sent = 0

    # ----------------------------------------------------------- receive
    def fileno(self) -> int:
        return self._sock.fileno()

    def read_some(self, view: memoryview) -> int:
        try:
            got = self._sock.recv_into(view)
        except BlockingIOError:
            return 0
        except OSError:
            got = 0  # reset, or torn down under us
        if got == 0:
            self.eof = True
        return got

    def arm(self) -> bool:
        return True

    def disarm(self) -> None:
        pass

    # -------------------------------------------------------------- close
    def shutdown(self) -> None:
        """Stop both directions; wakes every thread blocked on the socket.
        The descriptor itself stays open until :meth:`release`."""
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass

    def release(self) -> None:
        """Close the socket — after reading off what arrived and nobody
        received: ``close()`` over unread bytes answers RST instead of
        FIN, and a reset discards what this rank sent and the peer has
        not read yet."""
        scratch = bytearray(1 << 16)
        try:
            while self._sock.recv_into(scratch):
                pass
        except OSError:
            pass  # dry (BlockingIOError), or already reset
        try:
            self._sock.close()
        except OSError:
            pass


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
    ring_links = {peer: plan.rings.link(endpoint, peer) for peer in ring_peers}
    data_listener = None
    my_addr: Optional[Tuple[str, int]] = None
    if socket_peers:
        data_listener = _bind_listener((plan.bind_host, 0), backlog=world_size)
        data_listener.settimeout(_SETUP_TIMEOUT)
        my_addr = data_listener.getsockname()[:2]

    addr_map = _rendezvous(rank, world_size, plan.seed_addr, my_addr)

    for peer, link in ring_links.items():
        link.connect()
        endpoint.attach(peer, link)
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
        (peer,) = _RANK_ID.unpack(_read_exact(sock, _RANK_ID.size))
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
    default_recv_timeout: float,
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
        default_recv_timeout: float = DEFAULT_TIMEOUT,
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

        # A rank that reported is exiting, not hung (its interpreter may
        # still be joining a non-daemon thread): all of them share one
        # ``abort_grace`` to exit.  One that never reported had its grace.
        exit_deadline = time.monotonic() + self.abort_grace
        hung = []
        for rank, proc in procs.items():
            if rank in reported:
                proc.join(timeout=max(0.0, exit_deadline - time.monotonic()))
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
