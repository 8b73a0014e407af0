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

    offset   0  uint64  head      bytes consumed   (written by consumer;
                                  by producer only while the ring is empty)
    offset   8  uint32  cwait     consumer may be sleeping on its event
    offset  12  uint32  cclosed   consumer departed (writes now evaporate)
    offset  64  uint64  tail      bytes produced   (written by producer)
    offset  72  uint32  pwait     producer may be sleeping on its event
    offset  76  uint32  pclosed   producer departed (drained ring = EOF)
    offset 128  byte[]  data      ``ring_bytes`` capacity, wraps mod size

``head`` and ``tail`` are 64-bit byte counters on separate cache lines
(seqlock style: ``tail - head`` is the readable span,
``capacity - (tail - head)`` the writable one).  The producer copies
payload bytes first and publishes ``tail`` after; the consumer reads
``tail`` before touching data — on total-store-order machines (x86)
that ordering makes the fast path correct without any lock, futex or
syscall.  Pure Python cannot emit memory fences, so the capability
probe refuses weakly ordered architectures outright (the backend is
then absent from ``available_backends()`` rather than silently racy).

**Rewind.**  A producer that finds its ring empty (``head == tail``) at
an offset other than 0 first moves both cursors to the next multiple of
the capacity — ``head``, then ``tail`` — and writes from offset 0.  The
consumer loads ``tail`` before ``head`` wherever it computes a span, so
a rewind between its two loads reads as an empty ring, never as a span
over the skipped bytes (:mod:`repro.analysis.ring_model` checks both
orders, and that swapping either one tears a frame).  A ring's resident
pages are therefore its largest burst — the bytes written between two
moments it is empty — not its capacity; ``ring_bytes`` still bounds
what is in flight.  The rewind moves a cursor by up to the whole
capacity, so every cursor load and store must be one 8-byte access:
the cursors are a ``memoryview.cast("Q")`` of the header (one aligned
``mov``), since ``struct``'s ``"<Q"`` pack/unpack goes a byte at a time
and tore about one read in six in a two-process probe on a 2-vCPU
x86-64 host (the cast view: none of millions).

Progress is **spin-then-event**: a starved side yields the CPU a few
times (zero times on oversubscribed machines, where spinning starves
the very peer it waits for), then raises its ``*wait`` flag, re-checks,
and sleeps briefly on a per-rank doorbell
(:class:`repro.comm.process_backend._Doorbell`).
The peer only rings when it observes the flag, so the streaming fast
path never enters the kernel.  Inbound rings are drained by the
endpoint's one progress engine
(:class:`repro.comm.process_backend._Pump`, shared with the socket
link) in the context of whichever thread would otherwise idle, so the
lockstep hot path runs producer-to-consumer with a single wake-up and
no GIL handoffs.  A rank's data doorbell is also what its parked thread
sleeps on (next to any sockets it has): ring producers, local
deliveries and shutdown all wake it the same way.

Frames larger than the ring (or than the free span) stream through it:
the producer writes as space appears, the consumer's incremental parser
consumes partial frames, so a 64 MB payload flows through a 4 MB ring
with producer and consumer pipelined.

Wire format, failure semantics, channels, endpoint, progress engine and
launcher are those of :mod:`repro.comm.process_backend` (the frames are
byte-identical); this module contributes the ring pair between two
ranks (:class:`_RingLink`: the outbound ring's write loop, the inbound
ring as a pump source), the launcher-side resources
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
import secrets
import threading
import time
from functools import partial
from typing import Any, Dict, List, Optional, Tuple

from repro.comm.backend import mark_backend_unavailable, register_backend
from repro.comm.message import Message
from repro.comm.process_backend import (
    _WAIT_SLICE,
    _Doorbell,
    MeshEndpoint,
    MeshPlan,
    ProcessBackend,
    pack_frame,
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

#: Header size (bytes) of a ring segment; the layout is in the module
#: docstring.  Cells are addressed through two typed views of the header:
#: ``cursors`` (8-byte cells, byte offset ``8 * i``) and ``flags``
#: (4-byte cells, byte offset ``4 * i``).
_RING_HEADER_BYTES = 128
_HEAD = 0  # cursors[0], byte 0
_TAIL = 8  # cursors[8], byte 64
_CWAIT = 2  # flags[2], byte 8
_CCLOSED = 3  # flags[3], byte 12
_PWAIT = 18  # flags[18], byte 72
_PCLOSED = 19  # flags[19], byte 76

#: Serialises the pre-3.13 resource-tracker monkeypatch: two threads
#: interleaving save/patch/restore could otherwise leave the no-op
#: lambda installed permanently, silently untracking every later
#: multiprocessing resource in the process.
_TRACKER_PATCH_LOCK = threading.Lock()


def _spin_iterations(world_size: int) -> int:
    """Yield-spin budget before arming the event fallback.

    Spinning only pays when every rank can own a core; on an
    oversubscribed machine each spin iteration steals the CPU from the
    very peer being waited for, so the starved side should go straight
    to its doorbell.  Single-core CI boxes land at 0.
    """
    cpus = os.cpu_count() or 1
    return 64 if cpus > world_size else 0


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
class _Ring:
    """One single-producer/single-consumer byte ring in shared memory.

    Each side constructs its own view of the same segment (the consumer
    creates it, the producer attaches).  All cursor arithmetic uses the
    64-bit counters described in the module docstring; each cursor load
    or store is one aligned 8-byte access through a ``memoryview`` cast,
    and data moves with raw ``memoryview`` slice assignment (C memcpy).
    """

    def __init__(self, shm, capacity: int) -> None:
        self._shm = shm
        self.capacity = int(capacity)
        header = shm.buf[:_RING_HEADER_BYTES]
        self._cursors = header.cast("Q")
        self._flags = header.cast("I")
        header.release()
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
        views = (self._data, self._cursors, self._flags)
        self._data = self._cursors = self._flags = None
        for view in views:
            if view is not None:
                view.release()
        try:
            self._shm.close()
        except (OSError, BufferError):  # pragma: no cover - teardown race
            pass

    # ------------------------------------------------------------- cursors
    def readable(self) -> int:
        # Tail before head: see read_some.
        cursors = self._cursors
        return cursors[_TAIL] - cursors[_HEAD]

    def writable(self) -> int:
        return self.capacity - self.readable()

    # --------------------------------------------------------------- flags
    @property
    def consumer_closed(self) -> bool:
        return self._flags[_CCLOSED] != 0

    @property
    def producer_closed(self) -> bool:
        return self._flags[_PCLOSED] != 0

    def close_consumer(self) -> None:
        self._flags[_CCLOSED] = 1

    def close_producer(self) -> None:
        self._flags[_PCLOSED] = 1

    def set_consumer_waiting(self, value: bool) -> None:
        self._flags[_CWAIT] = int(value)

    def set_producer_waiting(self, value: bool) -> None:
        self._flags[_PWAIT] = int(value)

    @property
    def consumer_waiting(self) -> bool:
        return self._flags[_CWAIT] != 0

    @property
    def producer_waiting(self) -> bool:
        return self._flags[_PWAIT] != 0

    # ------------------------------------------------------------- produce
    def write_some(self, view: memoryview) -> int:
        """Copy as much of ``view`` as currently fits; returns bytes written.

        An empty ring is first rewound: both cursors move to the next
        multiple of the capacity, head first, so the write starts at
        offset 0 and the pages a ring touches are its largest burst in
        flight.  Data is copied *before* the tail is published, so the
        consumer can never observe unwritten bytes.
        """
        cursors = self._cursors
        capacity = self.capacity
        tail = cursors[_TAIL]
        head = cursors[_HEAD]
        if head == tail and tail % capacity:
            # Only the producer moves a cursor of an empty ring.  Head
            # first: a consumer that loads tail, then head, sees either
            # the old tail or a head at or past it — never a span over
            # the skipped bytes.
            tail = head = tail - tail % capacity + capacity
            cursors[_HEAD] = head
            cursors[_TAIL] = tail
        span = min(capacity - (tail - head), len(view))
        if span <= 0:
            return 0
        pos = tail % capacity
        first = min(span, capacity - pos)
        data = self._data
        data[pos : pos + first] = view[:first]
        if span > first:
            data[: span - first] = view[first:span]
        cursors[_TAIL] = tail + span
        return span

    # ------------------------------------------------------------- consume
    def read_some(self, view: memoryview) -> int:
        """Fill ``view`` with up to ``len(view)`` ring bytes; returns count.

        Tail is loaded before head: a rewind that lands between the two
        loads leaves ``head`` past the loaded tail, an empty span.
        """
        cursors = self._cursors
        tail = cursors[_TAIL]
        head = cursors[_HEAD]
        span = min(tail - head, len(view))
        if span <= 0:
            return 0
        pos = head % self.capacity
        first = min(span, self.capacity - pos)
        data = self._data
        view[:first] = data[pos : pos + first]
        if span > first:
            view[first:span] = data[: span - first]
        cursors[_HEAD] = head + span
        return span


# ---------------------------------------------------------------------------
# the ring link
# ---------------------------------------------------------------------------
class _RingLink:
    """The byte pipe to one same-host peer: an outbound and an inbound ring.

    The outbound ring is written directly by whichever thread calls
    :meth:`MeshEndpoint.deliver`, serialised by the send lock (the rings
    are SPSC — the lock makes this *process* the single producer even
    when the app, library and activation threads send concurrently).
    Ring capacity bounds the in-flight bytes per pair: a sender
    outrunning a never-receiving peer eventually blocks on its ring, the
    same backpressure a socket link gets from full kernel buffers.  The
    inbound ring (created here, by its consumer) is a source of the
    endpoint's pump (:class:`repro.comm.process_backend._Pump`, which
    documents the surface).
    """

    def __init__(self, endpoint: MeshEndpoint, session: "_RingSession", peer: int) -> None:
        self._endpoint = endpoint
        self._session = session
        self._peer = peer
        #: Wakes the peer's parked consumer / the peer blocked on its
        #: full outbound ring / this rank blocked on a full ring.
        self._peer_data_bell = session.data_events[peer]
        self._peer_space_bell = session.space_events[peer]
        self._space_bell = session.space_events[endpoint.rank]
        self._spin = _spin_iterations(endpoint.world_size)
        self._inbound = _Ring.create(
            segment_name(session.name, peer, endpoint.rank), session.ring_bytes
        )
        self._ring: Optional[_Ring] = None
        self._send_lock = threading.Lock()
        self.stalls = 0

    def connect(self) -> None:
        """Attach ``peer``'s inbound ring (it exists: the rendezvous
        barrier has passed) as this rank's outbound one."""
        session = self._session
        self._ring = _Ring.attach(
            segment_name(session.name, self._endpoint.rank, self._peer),
            session.ring_bytes,
        )

    # --------------------------------------------------------------- send
    def send(self, message: Message, channel: str) -> None:
        head, body = pack_frame(message, channel)
        # Exactly ONE doorbell per frame, after the last byte: ringing per
        # chunk would wake (and, on a loaded machine, preempt into) the
        # consumer up to three times per message — mid-frame, with nothing
        # parseable.
        with self._send_lock:
            delivered = self._write_all(memoryview(head))
            if delivered and len(body):
                delivered = self._write_all(memoryview(body))
            if delivered and self._ring.consumer_waiting:
                self._peer_data_bell.ring()

    def _write_all(self, view: memoryview) -> bool:
        """Stream ``view`` into the ring, spin-then-event on a full ring.

        Returns ``False`` when the peer departed (the remainder of the
        frame evaporates, mirroring a socket send hitting EPIPE) and
        raises ``MailboxClosed`` when the endpoint was aborted while
        blocked.
        """
        endpoint, ring, dest = self._endpoint, self._ring, self._peer
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
            # The ring is full: the consumer must drain before more fits,
            # so this is the one mid-frame point that must wake it.
            if ring.consumer_waiting:
                self._peer_data_bell.ring()
            if endpoint._send_stalled(self, dest):
                continue
            spins += 1
            if spins <= self._spin:
                time.sleep(0)  # yield: the consumer needs this CPU
                continue
            # Event fallback: flag, re-check, sleep a bounded slice.
            ring.set_producer_waiting(True)
            try:
                if ring.writable() == 0 and not ring.consumer_closed and not endpoint._closed:
                    self._space_bell.wait(_WAIT_SLICE)
            finally:
                ring.set_producer_waiting(False)
        return True

    # ----------------------------------------------------------- receive
    # Header cells are read inline: these three run on every pump pass.
    def readable(self) -> bool:
        cursors = self._inbound._cursors  # noqa: SLF001 - same-module hot path
        return cursors[_TAIL] - cursors[_HEAD] > 0  # tail first: see _Ring.read_some

    def read_some(self, view: memoryview) -> int:
        ring = self._inbound
        got = ring.read_some(view)
        if got and ring._flags[_PWAIT]:  # noqa: SLF001
            self._peer_space_bell.ring()
        return got

    @property
    def eof(self) -> bool:
        """Closed producer + drained ring = socket EOF.  The flag is read
        first: the producer publishes its last bytes before it sets it."""
        closed = self._inbound._flags[_PCLOSED]  # noqa: SLF001
        return bool(closed) and not self.readable()

    def arm(self) -> bool:
        self._inbound.set_consumer_waiting(True)
        return not self.readable()

    def disarm(self) -> None:
        self._inbound.set_consumer_waiting(False)

    # -------------------------------------------------------------- close
    def shutdown(self) -> None:
        """Set ``pclosed`` outbound (the drained-ring EOF) and ``cclosed``
        inbound (writes to this rank now evaporate), and wake whoever
        sleeps on either ring."""
        try:
            self._ring.close_producer()
            if self._ring.consumer_waiting:
                self._peer_data_bell.ring()
            self._inbound.close_consumer()
            if self._inbound.producer_waiting:
                self._peer_space_bell.ring()
        except TypeError:  # pragma: no cover - already detached
            pass
        self._space_bell.ring()  # our own sender, asleep on a full ring

    def release(self) -> None:
        self._ring.detach()
        self._inbound.detach()


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
    doorbell fds, spawn ships duplicates).
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

    def link(self, endpoint: MeshEndpoint, peer: int) -> _RingLink:
        """The ring pair between ``endpoint``'s rank and ``peer``; creates
        the inbound ring, :meth:`_RingLink.connect` attaches the other."""
        return _RingLink(endpoint, self, peer)

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
