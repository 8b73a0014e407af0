"""Zero-copy shared-memory link: per-pair SPSC ring buffers.

The ring is the second link kind of the process-model launcher
(:mod:`repro.comm.process_backend`): same execution model — one OS
process per rank, seed rendezvous, launcher-mediated abort broadcast,
identical :class:`~repro.comm.backend.WorldError` semantics — and
another byte pipe.  Instead of loopback TCP (one copy into the kernel
socket buffer, one copy out, a syscall per chunk on both sides), every
ordered rank pair ``(i -> j)`` that shares a host owns a
single-producer/single-consumer ring
buffer in a ``multiprocessing.shared_memory`` segment.  A send writes
the frame — and the NumPy payload's raw buffer — directly into the
ring; the receive copies straight from the ring into the destination
array.  No pickling of array bytes, no kernel data copies, no data-path
syscalls.

Segment layout
--------------
One segment per directed pair, created by the *consumer* rank::

    offset   0  uint64  head      bytes consumed   (written by consumer)
    offset   8  uint32  cwait     consumer may be sleeping on its event
    offset  12  uint32  cclosed   consumer departed (writes now evaporate)
    offset  64  uint64  tail      bytes produced   (written by producer)
    offset  72  uint32  pwait     producer may be sleeping on its event
    offset  76  uint32  pclosed   producer departed (drained ring = EOF)
    offset 128  byte[]  data      ``ring_bytes`` capacity, wraps mod size

``head`` and ``tail`` are free-running 64-bit byte counters on separate
cache lines (seqlock style: ``tail - head`` is the readable span,
``capacity - (tail - head)`` the writable one).  The producer copies
payload bytes first and publishes ``tail`` after; the consumer reads
``tail`` before touching data — on total-store-order machines (x86)
that ordering makes the fast path correct without any lock, futex or
syscall.  Pure Python cannot emit memory fences, so the capability
probe refuses weakly ordered architectures outright (the backend is
then absent from ``available_backends()`` rather than silently racy).

Progress is **spin-then-event**: a starved side yields the CPU a few
times (zero times on oversubscribed machines, where spinning starves
the very peer it waits for), then raises its ``*wait`` flag, re-checks,
and sleeps briefly on a per-rank pipe doorbell (:class:`_Doorbell`).
The peer only rings when it observes the flag, so the streaming fast
path never enters the kernel.  There is no background progress thread:
whichever thread would otherwise idle drains the rings itself — blocked
receivers (:class:`_PumpingMailbox`), senders waiting out a full ring,
and ``poll``/``probe`` callers — so the lockstep hot path runs
producer-to-consumer with a single wake-up and no GIL handoffs.

Frames larger than the ring (or than the free span) stream through it:
the producer writes as space appears, the consumer's incremental parser
consumes partial frames, so a 64 MB payload flows through a 4 MB ring
with producer and consumer pipelined.

Wire format, failure semantics, channels, endpoint and launcher are
those of :mod:`repro.comm.process_backend` (the frames are
byte-identical); this module contributes the outbound half of a ring
pair (:class:`_RingLink`), the inbound half of all of a rank's ring
pairs (:class:`_RingPump`), the launcher-side resources
(:class:`_RingSession`) and the ``shm`` plan: a ring for every pair.
A rank that *finishes* sets ``pclosed`` on its outbound rings — the
drained-ring analogue of a socket EOF; a rank that crashes is detected
by the launcher, which aborts the world through the control pipes.

Hygiene: segments are unlinked by the launcher in a ``finally`` sweep
(backed by ``atexit``), and every ``run()`` first sweeps segments leaked
by *crashed* earlier runs (names embed the creating PID; a dead owner
means the segment is garbage), so no crash can poison the next run or
leak ``/dev/shm`` pages.
"""

from __future__ import annotations

import atexit
import errno
import logging
import os
import pickle
import secrets
import select
import struct
import threading
import time
from functools import partial
from typing import Any, Dict, List, Optional, Tuple

from repro.comm.backend import mark_backend_unavailable, register_backend
from repro.comm.mailbox import Mailbox, MailboxClosed
from repro.comm.message import Message
from repro.comm.process_backend import (
    _HEADER_LEN,
    MeshEndpoint,
    MeshPlan,
    ProcessBackend,
    pack_frame,
    payload_finish,
    payload_scratch,
    reject_unknown_opts,
)

__all__ = ["DEFAULT_RING_BYTES", "ring_plan", "segment_name"]

logger = logging.getLogger(__name__)

#: Ring capacity per directed pair (overridable via
#: ``backend_opts={"ring_bytes": ...}`` on :func:`repro.comm.launch`).
DEFAULT_RING_BYTES = 1 << 22
#: Smallest permitted ring (must comfortably hold a frame header).
MIN_RING_BYTES = 1 << 12

#: Prefix of every segment name; the stale-segment sweep keys on it.
_NAME_PREFIX = "repro-shm"
#: Where POSIX shared memory appears as files (used only by the sweep).
_SHM_DIR = "/dev/shm"

#: Header field offsets (bytes) inside a ring segment.
_RING_HEADER_BYTES = 128
_OFF_HEAD = 0
_OFF_CWAIT = 8
_OFF_CCLOSED = 12
_OFF_TAIL = 64
_OFF_PWAIT = 72
_OFF_PCLOSED = 76

#: Event-wait slice; bounds the reaction time to aborts and crashes.
_WAIT_SLICE = 0.05

#: Serialises the pre-3.13 resource-tracker monkeypatch: two threads
#: interleaving save/patch/restore could otherwise leave the no-op
#: lambda installed permanently, silently untracking every later
#: multiprocessing resource in the process.
_TRACKER_PATCH_LOCK = threading.Lock()


def _spin_iterations(world_size: int) -> int:
    """Yield-spin budget before arming the event fallback.

    Spinning only pays when every rank (plus a progress thread) can own
    a core; on an oversubscribed machine each spin iteration steals the
    CPU from the very peer being waited for, so the starved side should
    go straight to its doorbell.  Single-core CI boxes land at 0.
    """
    cpus = os.cpu_count() or 1
    return 64 if cpus > world_size else 0


class _Doorbell:
    """A one-byte pipe used as a cross-process wakeup signal.

    The event half of the rings' spin-then-event fallback.  A waiter
    that found its rings starved arms its flag and sleeps in
    ``select``; the peer that changes the starved condition *and sees
    the flag* writes one byte.  One syscall to ring, one ``select`` plus
    one drain ``read`` to wake — cheaper than ``multiprocessing.Event``
    (several semaphore operations per transition), and the fast path
    (flag unarmed) touches the kernel not at all.  Both ends are
    non-blocking: a full pipe just means wakeups are already pending.
    """

    def __init__(self) -> None:
        self._read_fd, self._write_fd = os.pipe()
        os.set_blocking(self._read_fd, False)
        os.set_blocking(self._write_fd, False)

    def __reduce__(self):
        # Under the spawn start method the worker arguments are pickled;
        # raw fd numbers would be meaningless in the child, so ship
        # duplicates through multiprocessing's fd-passing machinery
        # (DupFd detaches to a valid fd on the receiving side).  Fork
        # never pickles, so the fast path is unchanged.
        from multiprocessing.reduction import DupFd

        return (_rebuild_doorbell, (DupFd(self._read_fd), DupFd(self._write_fd)))

    def ring(self) -> None:
        try:
            os.write(self._write_fd, b"\0")
        except (BlockingIOError, InterruptedError):
            pass  # enough wakeups queued already
        except OSError:
            pass  # closing down

    def wait(self, timeout: float) -> None:
        try:
            ready, _, _ = select.select([self._read_fd], [], [], timeout)
            if ready:
                while os.read(self._read_fd, 4096):
                    pass
        except (BlockingIOError, InterruptedError):
            pass  # drained
        except (OSError, ValueError):
            pass  # closing down

    def close(self) -> None:
        """Release the launcher's fds after the world has ended.

        Only the launcher calls this (:meth:`_RingSession.close`, once
        every rank has been joined) — rank processes never close their forked
        duplicates, because a half-closed doorbell would turn a late
        wakeup into an EBADF race; the OS reclaims theirs at exit.
        """
        for fd in (self._read_fd, self._write_fd):
            try:
                os.close(fd)
            except OSError:  # pragma: no cover - already closed
                pass


def _rebuild_doorbell(read_dup, write_dup) -> "_Doorbell":
    """Reconstruct a :class:`_Doorbell` from pickled fd duplicates."""
    bell = _Doorbell.__new__(_Doorbell)
    bell._read_fd = read_dup.detach()
    bell._write_fd = write_dup.detach()
    os.set_blocking(bell._read_fd, False)
    os.set_blocking(bell._write_fd, False)
    return bell


# ---------------------------------------------------------------------------
# capability probe
# ---------------------------------------------------------------------------
#: Architectures whose hardware memory model is total-store-order.  The
#: rings publish data with plain stores (copy payload, then write the
#: tail counter) and have no portable way to emit fences from pure
#: Python, so the ordering guarantee comes from TSO; on weakly ordered
#: machines (aarch64, ppc64le) a consumer could observe a published tail
#: before the payload bytes and silently read torn frames.
_TSO_MACHINES = frozenset({"x86_64", "amd64", "i686", "i586", "i486", "i386"})


def _probe() -> Optional[str]:
    """Why this platform cannot run the shm transport (``None`` = it can)."""
    import platform

    machine = platform.machine().lower()
    if machine not in _TSO_MACHINES:
        return (
            f"the ring buffers' lock-free cursor publication relies on "
            f"total-store-order (x86) and this machine is {machine!r}"
        )
    try:
        from multiprocessing import shared_memory
    except ImportError as exc:  # pragma: no cover - py>=3.8 always has it
        return f"multiprocessing.shared_memory is unavailable ({exc})"
    try:
        import multiprocessing

        multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return "the fork start method is unavailable (POSIX only)"
    # Probe with a name as long as a real ring's: some platforms cap
    # segment names well below Linux's (macOS: 31 bytes), and a backend
    # that probes available but fails at mesh build would be worse than
    # one that is cleanly absent.
    probe_name = segment_name(_session_name(), 9999, 9999)
    try:
        segment = shared_memory.SharedMemory(
            name=probe_name, create=True, size=MIN_RING_BYTES
        )
    except (OSError, ValueError) as exc:  # pragma: no cover - no /dev/shm
        return f"cannot create shared-memory segments: {exc}"
    try:
        segment.close()
        segment.unlink()
    except OSError:  # pragma: no cover - unlink race is harmless
        pass
    return None


def _open_segment(name: str, create: bool, size: int = 0):
    """Open a segment without enrolling it in the resource tracker.

    Segment lifetime is owned explicitly here — the launcher unlinks
    every segment in its ``finally`` sweep (plus ``atexit``), and
    :func:`sweep_stale_segments` covers crashed launchers.  The default
    tracker bookkeeping is wrong for this ownership model: before
    Python 3.13 *attaching* registers too, and since the tracker's
    cache is a set shared by creator and attacher, the paired
    registrations collapse and teardown prints spurious KeyError /
    leaked-object noise.  Python 3.13+ exposes ``track=False`` for
    exactly this; older versions get the no-op-register equivalent.
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(
            name=name, create=create, size=size, track=False
        )
    except TypeError:  # pragma: no cover - Python < 3.13
        pass
    from multiprocessing import resource_tracker

    with _TRACKER_PATCH_LOCK:
        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name, create=create, size=size)
        finally:
            resource_tracker.register = original


def _unlink_segment(segment) -> None:
    """Unlink a segment opened by :func:`_open_segment`.

    Pre-3.13 ``unlink()`` unconditionally tells the resource tracker to
    forget a registration :func:`_open_segment` never made; suppress the
    unpaired unregister the same way (3.13+ ``track=False`` segments
    skip it natively).
    """
    from multiprocessing import resource_tracker

    with _TRACKER_PATCH_LOCK:
        original = resource_tracker.unregister
        resource_tracker.unregister = lambda *args, **kwargs: None
        try:
            segment.unlink()
        finally:
            resource_tracker.unregister = original


def segment_name(session: str, source: int, dest: int) -> str:
    """Shared-memory segment name of the ``source -> dest`` ring."""
    return f"{session}-{source}to{dest}"


def _session_name() -> str:
    """Per-run namespace for segment names; embeds the launcher PID.

    The PID is what lets :func:`sweep_stale_segments` distinguish a
    segment belonging to a live concurrent run from garbage left by a
    crashed one.
    """
    return f"{_NAME_PREFIX}-{os.getpid()}-{secrets.token_hex(4)}"


def sweep_stale_segments(shm_dir: str = _SHM_DIR) -> List[str]:
    """Unlink ring segments whose creating process is gone.

    A crashed launcher (SIGKILL, OOM) cannot run its ``finally`` sweep;
    its segments would pin ``/dev/shm`` pages forever and, across many
    crashes, poison later runs with exhausted shared memory.  Segment
    names embed the launcher PID, so any segment whose owner is no
    longer alive is garbage by construction.  Returns the names removed.
    """
    removed: List[str] = []
    try:
        entries = os.listdir(shm_dir)
    except OSError:
        return removed
    for entry in entries:
        if not entry.startswith(_NAME_PREFIX + "-"):
            continue
        parts = entry.split("-")
        try:
            pid = int(parts[2])
        except (IndexError, ValueError):
            continue
        if pid == os.getpid() or _pid_alive(pid):
            continue
        try:
            os.unlink(os.path.join(shm_dir, entry))
            removed.append(entry)
        except OSError:
            pass
    if removed:
        logger.info("swept %d stale shm ring segment(s)", len(removed))
    return removed


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - someone else's live pid
        return True
    except OSError as exc:  # pragma: no cover - exotic errnos
        return exc.errno != errno.ESRCH
    return True


# ---------------------------------------------------------------------------
# the ring
# ---------------------------------------------------------------------------
#: Bound structs for header-cell access: ~3x faster per access than
#: numpy scalar indexing, which sits on every message's critical path.
_U64 = struct.Struct("<Q")
_U32 = struct.Struct("<I")


class _Ring:
    """One single-producer/single-consumer byte ring in shared memory.

    Each side constructs its own view of the same segment (the consumer
    creates it, the producer attaches).  All cursor arithmetic uses the
    free-running 64-bit counters described in the module docstring;
    data moves with raw ``memoryview`` slice assignment (C memcpy).
    """

    def __init__(self, shm, capacity: int) -> None:
        self._shm = shm
        self.capacity = int(capacity)
        self._buf = shm.buf
        self._data = shm.buf[_RING_HEADER_BYTES : _RING_HEADER_BYTES + self.capacity]

    # ------------------------------------------------------------ lifecycle
    @classmethod
    def create(cls, name: str, ring_bytes: int) -> "_Ring":
        shm = _open_segment(name, create=True, size=_RING_HEADER_BYTES + ring_bytes)
        shm.buf[:_RING_HEADER_BYTES] = bytes(_RING_HEADER_BYTES)
        return cls(shm, ring_bytes)

    @classmethod
    def attach(cls, name: str, ring_bytes: int) -> "_Ring":
        return cls(_open_segment(name, create=False), ring_bytes)

    def detach(self) -> None:
        # Views alias shm.buf; drop them before closing the mapping or
        # SharedMemory.close() raises BufferError on exported pointers.
        data, self._data, self._buf = self._data, None, None
        if data is not None:
            data.release()
        try:
            self._shm.close()
        except (OSError, BufferError):  # pragma: no cover - teardown race
            pass

    # ------------------------------------------------------------- cursors
    @property
    def head(self) -> int:
        return _U64.unpack_from(self._buf, _OFF_HEAD)[0]

    @property
    def tail(self) -> int:
        return _U64.unpack_from(self._buf, _OFF_TAIL)[0]

    def readable(self) -> int:
        buf = self._buf
        return _U64.unpack_from(buf, _OFF_TAIL)[0] - _U64.unpack_from(buf, _OFF_HEAD)[0]

    def writable(self) -> int:
        return self.capacity - self.readable()

    # --------------------------------------------------------------- flags
    def _flag(self, offset: int) -> bool:
        return _U32.unpack_from(self._buf, offset)[0] != 0

    def _set_flag(self, offset: int, value: bool) -> None:
        _U32.pack_into(self._buf, offset, 1 if value else 0)

    @property
    def consumer_closed(self) -> bool:
        return self._flag(_OFF_CCLOSED)

    @property
    def producer_closed(self) -> bool:
        return self._flag(_OFF_PCLOSED)

    def close_consumer(self) -> None:
        self._set_flag(_OFF_CCLOSED, True)

    def close_producer(self) -> None:
        self._set_flag(_OFF_PCLOSED, True)

    def set_consumer_waiting(self, value: bool) -> None:
        self._set_flag(_OFF_CWAIT, value)

    def set_producer_waiting(self, value: bool) -> None:
        self._set_flag(_OFF_PWAIT, value)

    @property
    def consumer_waiting(self) -> bool:
        return self._flag(_OFF_CWAIT)

    @property
    def producer_waiting(self) -> bool:
        return self._flag(_OFF_PWAIT)

    # ------------------------------------------------------------- produce
    def write_some(self, view: memoryview) -> int:
        """Copy as much of ``view`` as currently fits; returns bytes written.

        Data is copied *before* the tail is published, so the consumer
        can never observe unwritten bytes.
        """
        buf = self._buf
        tail = _U64.unpack_from(buf, _OFF_TAIL)[0]
        span = min(
            self.capacity - (tail - _U64.unpack_from(buf, _OFF_HEAD)[0]), len(view)
        )
        if span <= 0:
            return 0
        pos = tail % self.capacity
        first = min(span, self.capacity - pos)
        data = self._data
        data[pos : pos + first] = view[:first]
        if span > first:
            data[: span - first] = view[first:span]
        _U64.pack_into(buf, _OFF_TAIL, tail + span)
        return span

    # ------------------------------------------------------------- consume
    def read_some(self, view: memoryview) -> int:
        """Fill ``view`` with up to ``len(view)`` ring bytes; returns count."""
        buf = self._buf
        head = _U64.unpack_from(buf, _OFF_HEAD)[0]
        span = min(_U64.unpack_from(buf, _OFF_TAIL)[0] - head, len(view))
        if span <= 0:
            return 0
        pos = head % self.capacity
        first = min(span, self.capacity - pos)
        data = self._data
        view[:first] = data[pos : pos + first]
        if span > first:
            view[first:span] = data[: span - first]
        _U64.pack_into(buf, _OFF_HEAD, head + span)
        return span


# ---------------------------------------------------------------------------
# incremental frame parsing (consumer side)
# ---------------------------------------------------------------------------
class _FrameParser:
    """Per-ring reassembly state: frames may arrive in arbitrary pieces."""

    def __init__(self) -> None:
        self._reset()

    def _reset(self) -> None:
        self.stage = "len"
        self.scratch: Any = bytearray(_HEADER_LEN.size)
        self.view = memoryview(self.scratch)
        self.got = 0
        self.header: Optional[Tuple] = None

    @property
    def idle(self) -> bool:
        """Whether the parser sits at a frame boundary (nothing buffered)."""
        return self.stage == "len" and self.got == 0

    def feed(self, ring: _Ring) -> Optional[Tuple[Message, str]]:
        """Advance parsing with whatever the ring holds.

        Returns one completed ``(message, channel)`` per call, or
        ``None`` when the ring ran dry mid-frame (state is kept; the
        next call resumes exactly where this one starved)."""
        while True:
            if self.got < len(self.view):
                self.got += ring.read_some(self.view[self.got :])
                if self.got < len(self.view):
                    return None  # starved mid-field; resume on next pump
            if self.stage == "len":
                (need,) = _HEADER_LEN.unpack(bytes(self.scratch))
                self.stage = "head"
                self.scratch = bytearray(need)
                self.view = memoryview(self.scratch)
                self.got = 0
            elif self.stage == "head":
                self.header = pickle.loads(bytes(self.scratch))
                _channel, _src, _dst, _tag, _seq, kind, dtype, _shape, nbytes = (
                    self.header
                )
                self.stage = "payload"
                self.scratch, self.view = payload_scratch(kind, dtype, nbytes)
                self.got = 0
            else:
                channel, source, dest, tag, seq, kind, _dtype, shape, _n = self.header
                payload = payload_finish(kind, shape, self.scratch)
                message = Message(
                    source=source, dest=dest, tag=tag, payload=payload, seq=seq
                )
                self._reset()
                return message, channel


# ---------------------------------------------------------------------------
# the ring link, the inbound pump and their mailbox
# ---------------------------------------------------------------------------
class _PumpingMailbox(Mailbox):
    """Mailbox whose blocked receivers drive ring progress themselves.

    The naive layering — producer rings a doorbell, a progress thread
    wakes, parses, puts, notifies the application thread — costs two
    thread wake-ups (and two GIL handoffs) per message; the raw ring
    round-trips in ~10 us, the layered path in ~150.  Work stealing
    removes the middleman: a receiver that would block first tries to
    take the pump lock and drain the rings *in its own context*, so the
    common lockstep pattern (every rank blocked in ``recv``) runs
    producer-to-consumer with a single wake-up.  The transport has no
    progress thread at all: every place a thread would otherwise idle
    pumps instead — blocked receives here, blocked sends in
    :meth:`_RingLink._write_all` (which also breaks the
    mutual-full-ring deadlock of two ranks sending at once), and
    :meth:`poll` / :meth:`probe` opportunistically, so poll loops
    observe arrivals without a background drainer.
    """

    def __init__(self, owner_rank: int, channel: str, pump: "_RingPump") -> None:
        super().__init__(owner_rank, channel)
        self._pump = pump

    def get(self, source: int = -1, tag: int = -1, timeout: Optional[float] = None):
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._cond:
                msg = self._find(source, tag)
                if msg is not None:
                    return msg
                if self._closed:
                    raise MailboxClosed(
                        f"mailbox rank={self.owner_rank} channel={self.channel} "
                        "closed while waiting for a message"
                    )
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                raise TimeoutError(
                    f"rank {self.owner_rank}/{self.channel}: timed out waiting "
                    f"for message from source={source} tag={tag}"
                )
            self._pump._progress_or_wait(self, source, tag, remaining)

    def poll(self, source: int = -1, tag: int = -1):
        msg = super().poll(source, tag)
        if msg is None and self._pump._try_pump():
            msg = super().poll(source, tag)
        return msg

    def probe(self, source: int = -1, tag: int = -1) -> bool:
        if super().probe(source, tag):
            return True
        return self._pump._try_pump() and super().probe(source, tag)


class _RingLink:
    """The byte pipe to one same-host peer: the outbound ring.

    Written directly by whichever thread calls
    :meth:`MeshEndpoint.deliver`, serialised by the send lock (the rings
    are SPSC — the lock makes this *process* the single producer even
    when the app, library and activation threads send concurrently).
    Ring capacity bounds the in-flight bytes per pair: a sender
    outrunning a never-receiving peer eventually blocks on its ring, the
    same backpressure a socket link gets from full kernel buffers.
    """

    def __init__(self, pump: "_RingPump", peer: int, ring: _Ring) -> None:
        self._pump = pump
        self._peer = peer
        self._ring = ring
        self._send_lock = threading.Lock()

    # --------------------------------------------------------------- send
    def send(self, message: Message, channel: str) -> None:
        head, body = pack_frame(message, channel)
        # One buffer for length prefix + header, and exactly ONE doorbell
        # per frame, after the last byte: ringing per chunk would wake
        # (and, on a loaded machine, preempt into) the consumer up to
        # three times per message — mid-frame, with nothing parseable.
        prefix = _HEADER_LEN.pack(len(head)) + head
        with self._send_lock:
            delivered = self._write_all(memoryview(prefix))
            if delivered and len(body):
                delivered = self._write_all(
                    body if isinstance(body, memoryview) else memoryview(body)
                )
            if delivered and self._ring.consumer_waiting:
                self._pump._data_events[self._peer].ring()

    def _write_all(self, view: memoryview) -> bool:
        """Stream ``view`` into the ring, spin-then-event on a full ring.

        Returns ``False`` when the peer departed (the remainder of the
        frame evaporates, mirroring a socket send hitting EPIPE) and
        raises :class:`MailboxClosed` when the endpoint was aborted
        while blocked.
        """
        pump, ring, dest = self._pump, self._ring, self._peer
        endpoint = pump._endpoint
        offset = 0
        total = len(view)
        spins = 0
        while offset < total:
            if ring.consumer_closed:
                endpoint._departed.add(dest)
                return False
            wrote = ring.write_some(view[offset:])
            if wrote:
                offset += wrote
                spins = 0
                continue
            if endpoint._closed:
                raise MailboxClosed(
                    f"rank {endpoint.rank}: endpoint closed while sending to {dest}"
                    + (f" ({endpoint._abort_reason})" if endpoint._abort_reason else "")
                )
            # The ring is full: the consumer must drain before more fits,
            # so this is the one mid-frame point that must wake it.
            if ring.consumer_waiting:
                pump._data_events[dest].ring()
            # Pump our own inbound rings while starved: two ranks
            # flooding each other would otherwise deadlock on two full
            # rings with both app threads stuck in send.
            if pump._try_pump():
                continue
            spins += 1
            if spins <= pump._spin:
                time.sleep(0)  # yield: the consumer needs this CPU
                continue
            # Event fallback: flag, re-check, sleep a bounded slice.
            ring.set_producer_waiting(True)
            try:
                if ring.writable() == 0 and not ring.consumer_closed and not endpoint._closed:
                    pump._space_events[endpoint.rank].wait(_WAIT_SLICE)
            finally:
                ring.set_producer_waiting(False)
        return True

    # -------------------------------------------------------------- close
    def shutdown(self) -> None:
        """Set ``pclosed`` (the drained-ring EOF) and wake a parked consumer."""
        try:
            self._ring.close_producer()
            if self._ring.consumer_waiting:
                self._pump._data_events[self._peer].ring()
        except TypeError:  # pragma: no cover - already detached
            pass

    def join(self) -> None:
        """Nothing to wait for: a ring has no receiver thread, and its
        mapping is released with all the others (:meth:`_RingPump.release`)."""


class _RingPump:
    """The inbound half of a rank's ring pairs (present iff it has one).

    Inbound rings (one per ring peer, created by this rank) are drained
    by whichever thread holds the *pump lock* — a blocked receiver, a
    sender waiting out a full ring, or a ``poll``/``probe`` caller (see
    :class:`_PumpingMailbox`; there is no background progress thread to
    wake or hand the GIL to).
    """

    def __init__(self, endpoint: MeshEndpoint, session: "_RingSession") -> None:
        self._endpoint = endpoint
        self._session = session
        #: Serialises ring consumption, parser state and parking across
        #: stealing receivers.
        self._pump_lock = threading.Lock()
        self._finished: set[int] = set()
        self._detached = False
        #: ``data_events[r]`` wakes rank ``r``'s parked consumers when
        #: its rings gain data; ours is ``data_events[rank]``.
        self._data_events = session.data_events
        self._data_event = session.data_events[endpoint.rank]
        #: ``space_events[r]`` wakes rank ``r`` blocked on a full ring.
        self._space_events = session.space_events
        self._spin = _spin_iterations(endpoint.world_size)
        self._inbound: Dict[int, _Ring] = {}
        self._parsers: Dict[int, _FrameParser] = {}

    # ----------------------------------------------------------- plumbing
    def make_mailbox(self, channel: str) -> Mailbox:
        return _PumpingMailbox(self._endpoint.rank, channel, self)

    def create_inbound(self, peer: int) -> None:
        """Create the ring ``peer`` will send to this rank through."""
        session, rank = self._session, self._endpoint.rank
        ring = _Ring.create(segment_name(session.name, peer, rank), session.ring_bytes)
        self._inbound[peer] = ring
        self._parsers[peer] = _FrameParser()

    def connect(self, peer: int) -> _RingLink:
        """Attach ``peer``'s inbound ring (it exists: the rendezvous
        barrier has passed) as this rank's outbound link."""
        session, rank = self._session, self._endpoint.rank
        ring = _Ring.attach(segment_name(session.name, rank, peer), session.ring_bytes)
        return _RingLink(self, peer, ring)

    def notify(self) -> None:
        """Wake a consumer parked on the data doorbell (a socket
        receiver thread delivered a frame)."""
        self._data_event.ring()

    # ----------------------------------------------------------- receive
    def _pump_once(self) -> bool:
        """One draining pass over every inbound ring (pump lock held).

        Parses and delivers every complete frame currently available;
        returns whether anything moved.
        """
        progressed = False
        if self._detached:
            return False
        endpoint = self._endpoint
        unpack = _U64.unpack_from
        for peer, ring in self._inbound.items():
            if peer in self._finished:
                continue
            # Inline emptiness test (the common case for most rings of a
            # pass): one pair of header reads instead of a parser call
            # chain per idle ring.
            buf = ring._buf  # noqa: SLF001 - same-module hot path
            if unpack(buf, _OFF_TAIL)[0] == unpack(buf, _OFF_HEAD)[0]:
                if _U32.unpack_from(buf, _OFF_PCLOSED)[0]:
                    # Drained ring + closed producer = socket EOF.  A
                    # partial frame left in the parser mirrors a reset
                    # mid-frame: the peer crashed; the launcher aborts
                    # the world, we just stop reading this ring.
                    self._finished.add(peer)
                    endpoint._departed.add(peer)
                continue
            parser = self._parsers[peer]
            try:
                while True:
                    outcome = parser.feed(ring)
                    if outcome is None:
                        break
                    message, channel = outcome
                    progressed = True
                    try:
                        endpoint.mailbox(endpoint.rank, channel).put(message)
                    except MailboxClosed:
                        return progressed  # aborted while delivering
            except (pickle.UnpicklingError, EOFError, ValueError) as exc:
                # The stream is unreadable but both processes live — the
                # launcher cannot see this, so wake the local rank ourselves.
                if not endpoint._closed:
                    endpoint.abort(f"corrupted stream from rank {peer}: {exc}")
                return progressed
            if _U32.unpack_from(buf, _OFF_PWAIT)[0]:
                self._space_events[peer].ring()
        return progressed

    def _park(self, seconds: float) -> None:
        """Sleep on the data doorbell until a producer has news.

        Callers hold the pump lock, so at most one thread parks at a
        time.  Arm the consumer-waiting flags (so producers start
        ringing), re-check — the readable re-check between arming and
        sleeping closes the publish/park race — then sleep and disarm.
        """
        pack, unpack = _U32.pack_into, _U64.unpack_from
        rings = list(self._inbound.values())
        for ring in rings:
            pack(ring._buf, _OFF_CWAIT, 1)  # noqa: SLF001
        try:
            if not self._endpoint._closed and not any(
                unpack(ring._buf, _OFF_TAIL)[0] != unpack(ring._buf, _OFF_HEAD)[0]
                for ring in rings
            ):
                self._data_event.wait(min(seconds, _WAIT_SLICE))
        finally:
            for ring in rings:
                pack(ring._buf, _OFF_CWAIT, 0)  # noqa: SLF001

    def _try_pump(self) -> bool:
        """Nonblocking pump: drain the rings if nobody else is.

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
        self, mailbox: Mailbox, source: int, tag: int, remaining: Optional[float]
    ) -> None:
        """One blocked-receiver iteration: steal the pump or wait briefly.

        Called by :class:`_PumpingMailbox` with the mailbox lock
        released.  Either drains the rings in this thread's context or —
        when another thread is already pumping — waits for its
        ``put``-notification on the mailbox condition.  Returns with no
        verdict; the caller re-checks its mailbox and deadline.
        """
        slice_seconds = _WAIT_SLICE if remaining is None else min(remaining, _WAIT_SLICE)
        rings_drained = False
        if self._pump_lock.acquire(blocking=False):
            try:
                if self._pump_once():
                    return
                if self._endpoint._closed or len(self._finished) == len(self._inbound):
                    # Nothing will ever arrive from the rings (every
                    # peer departed, or P=1); wait below, off the lock.
                    rings_drained = True
                else:
                    # A pumper that ran between our mailbox check and
                    # the lock acquisition may have delivered the wanted
                    # message already; never park over an unread match.
                    if Mailbox.probe(mailbox, source, tag):
                        return
                    self._park(slice_seconds)
            finally:
                self._pump_lock.release()
            if rings_drained:
                # Local same-rank deliveries still notify the mailbox
                # condition; sleep on it instead of burning the CPU
                # down the caller's deadline.
                with mailbox._cond:  # noqa: SLF001 - cooperating classes
                    if not mailbox._messages and not mailbox._closed:
                        mailbox._cond.wait(slice_seconds)
        else:
            # Someone else pumps; their put() will notify this condition.
            with mailbox._cond:  # noqa: SLF001 - cooperating classes
                if not mailbox._messages and not mailbox._closed:
                    mailbox._cond.wait(min(slice_seconds, 0.002))

    # -------------------------------------------------------------- close
    def shutdown(self) -> None:
        """Set ``cclosed`` on the inbound rings (writes to this rank now
        evaporate) and wake everything sleeping on them."""
        for ring in self._inbound.values():
            try:
                ring.close_consumer()
            except TypeError:  # pragma: no cover - already detached
                pass
        # Wake anything sleeping on our events so teardown is prompt.
        self._data_event.ring()
        self._space_events[self._endpoint.rank].ring()
        for peer, ring in self._inbound.items():
            if ring.producer_waiting:
                self._space_events[peer].ring()

    def release(self) -> None:
        """Release the shared-memory mappings exactly once.

        Taking the pump lock and every send lock first guarantees no
        thread is mid-access on a ring; late pump attempts see
        ``_detached`` and no-op, late sends see ``_closed`` and raise.
        """
        links = [
            link for link in self._endpoint._links.values() if isinstance(link, _RingLink)
        ]
        locks = [self._pump_lock, *(link._send_lock for link in links)]
        for lock in locks:
            lock.acquire()
        try:
            if self._detached:
                return
            self._detached = True
            for ring in [*self._inbound.values(), *(link._ring for link in links)]:
                ring.detach()
        finally:
            for lock in reversed(locks):
                lock.release()


# ---------------------------------------------------------------------------
# launcher side: the session's resources and the plan
# ---------------------------------------------------------------------------
class _RingSession:
    """Launcher-side resources of a world in which some pair rides a ring.

    The session namespace of the segment names, one data and one space
    doorbell per rank, and the segment hygiene: :meth:`__init__` first
    sweeps what crashed earlier runs leaked, :meth:`close` — called from
    the ``finally`` of :meth:`ProcessBackend.run` on every exit path —
    unlinks every segment of this world and closes the doorbell fds.
    Handed to the rank processes inside the plan (fork inherits the
    doorbell fds, spawn ships duplicates, see :class:`_Doorbell`).
    """

    def __init__(self, world_size: int, ring_bytes: int) -> None:
        sweep_stale_segments()
        self.name = _session_name()
        self.world_size = world_size
        self.ring_bytes = ring_bytes
        self.data_events = [_Doorbell() for _ in range(world_size)]
        self.space_events = [_Doorbell() for _ in range(world_size)]
        # Covers the launcher dying between segment creation and the
        # ``finally`` that calls close() (e.g. a KeyboardInterrupt in a
        # signal-unsafe spot).
        atexit.register(self.sweep)

    def pump(self, endpoint: MeshEndpoint) -> _RingPump:
        """The inbound-ring component of one rank of this world."""
        return _RingPump(endpoint, self)

    def sweep(self) -> None:
        """Unlink every segment of this session (idempotent)."""
        for source in range(self.world_size):
            for dest in range(self.world_size):
                if source == dest:
                    continue
                try:
                    segment = _open_segment(
                        segment_name(self.name, source, dest), create=False
                    )
                except (FileNotFoundError, OSError):
                    continue
                try:
                    segment.close()
                    _unlink_segment(segment)
                except OSError:  # pragma: no cover - concurrent unlink
                    pass

    def close(self) -> None:
        self.sweep()
        atexit.unregister(self.sweep)
        # Close the launcher's doorbell fds (4 per rank): every rank has
        # exited by now, and without this each run() would leak them.
        for bell in self.data_events + self.space_events:
            bell.close()


def ring_plan(
    name: str, hosts: Tuple[int, ...], opts: Dict[str, Any], **fields: Any
) -> MeshPlan:
    """The ``name`` backend's plan: pairs on one ``hosts`` label ride rings.

    Pops ``ring_bytes``, rejects what is left of ``opts``, and allocates
    the launcher-side :class:`_RingSession` iff some pair shares a label.
    """
    ring_bytes = int(opts.pop("ring_bytes", DEFAULT_RING_BYTES))
    if ring_bytes < MIN_RING_BYTES:
        raise ValueError(
            f"ring_bytes must be >= {MIN_RING_BYTES}, got {ring_bytes}"
        )
    reject_unknown_opts(name, opts)
    has_ring_pair = len(set(hosts)) < len(hosts)
    rings = _RingSession(len(hosts), ring_bytes) if has_ring_pair else None
    return MeshPlan(hosts=hosts, rings=rings, **fields)


def _shm_plan(world_size: int, opts: Dict[str, Any]) -> MeshPlan:
    """``shm``: launcher-local seed, a ring for every pair."""
    return ring_plan("shm", (0,) * world_size, opts)


# ---------------------------------------------------------------------------
# registration (capability-gated)
# ---------------------------------------------------------------------------
_UNAVAILABLE_REASON = _probe()
if _UNAVAILABLE_REASON is None:
    register_backend("shm")(partial(ProcessBackend, "shm", _shm_plan))
else:  # pragma: no cover - exercised only on platforms without shm
    logger.info(
        "shm comm backend disabled on this platform: %s", _UNAVAILABLE_REASON
    )
    mark_backend_unavailable("shm", _UNAVAILABLE_REASON)
