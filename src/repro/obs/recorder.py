"""Per-rank flight recorder: a preallocated ring buffer of trace events.

Design constraints, in order:

1. **Near-zero cost when disabled.**  Every instrumentation site calls
   :func:`current`, a thread-local attribute lookup that returns ``None``
   unless :func:`bind` installed a recorder on that thread.  No recorder
   bound → one function call and one ``getattr`` per site, no
   allocation, no branch on module state.
2. **Bounded memory when enabled.**  Events land in a list preallocated
   to ``capacity`` slots; once full, the newest event overwrites the
   oldest (**drop-oldest**) and ``dropped`` counts every overwritten
   event, so a truncated trace is always detectable.
3. **Monotonic timestamps.**  Events are stamped with
   :func:`time.perf_counter_ns` (``CLOCK_MONOTONIC``), never
   ``time.time()`` — wall clocks step and smear, which would shear span
   nesting.  Cross-process alignment is the collection layer's job
   (:mod:`repro.obs.collect` estimates per-process offsets).

Threading model
---------------
A recorder belongs to one *rank* but may receive events from several of
that rank's threads (the partial-collective progress thread, the serving
dispatcher/collector); a small lock serialises appends and a per-thread
id is recorded so the exporter can reconstruct per-thread tracks.
Binding is **thread-local** on purpose: the thread backend runs several
ranks inside one process, and a process-global recorder would attribute
their events to whichever rank bound last.  Helper threads therefore
re-``bind`` the recorder captured by their owning rank at construction
time (see e.g. ``PartialAllreduce`` and the serving frontend).

Event kinds mirror the Chrome trace-event phases they export to
(:mod:`repro.obs.trace`): ``"X"`` complete spans, ``"i"`` instants,
``"C"`` counters, ``"s"``/``"f"`` flow start/finish (used to draw
send→recv arrows between rank tracks).
"""

from __future__ import annotations

import threading
import zlib
from time import perf_counter_ns
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "DEFAULT_CAPACITY",
    "FlightRecorder",
    "bind",
    "current",
    "span",
    "instant",
    "counter",
    "flow_id",
    "payload_nbytes",
    "record_send",
    "record_recv",
    "record_timeout",
]

#: Default ring capacity: 64Ki events ≈ a few MB of tuples — enough for
#: thousands of training steps at ~tens of events per step.
DEFAULT_CAPACITY = 65536

# Event kinds (chosen to match the Chrome trace-event "ph" field so the
# exporter does no translation).
KIND_SPAN = "X"
KIND_INSTANT = "i"
KIND_COUNTER = "C"
KIND_FLOW_OUT = "s"
KIND_FLOW_IN = "f"

_tls = threading.local()


def bind(recorder: Optional["FlightRecorder"]) -> Optional["FlightRecorder"]:
    """Install ``recorder`` as this thread's recorder (``None`` clears)."""
    _tls.recorder = recorder
    return recorder


def current() -> Optional["FlightRecorder"]:
    """The recorder bound to the calling thread, or ``None``."""
    return getattr(_tls, "recorder", None)


class _NullSpan:
    """Shared no-op context manager returned when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """Context manager that appends one complete ("X") event on exit."""

    __slots__ = ("_recorder", "_name", "_cat", "_args", "_t0")

    def __init__(
        self,
        recorder: "FlightRecorder",
        name: str,
        cat: str,
        args: Optional[Dict[str, Any]],
    ) -> None:
        self._recorder = recorder
        self._name = name
        self._cat = cat
        self._args = args

    def __enter__(self) -> "_Span":
        self._t0 = perf_counter_ns()
        return self

    def __exit__(self, *exc: Any) -> bool:
        t1 = perf_counter_ns()
        self._recorder._append(
            KIND_SPAN, self._name, self._cat, self._t0, t1 - self._t0, self._args
        )
        return False


class FlightRecorder:
    """Fixed-capacity ring buffer of trace events for one rank."""

    def __init__(self, rank: int = 0, capacity: int = DEFAULT_CAPACITY) -> None:
        capacity = int(capacity)
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.rank = int(rank)
        self.capacity = capacity
        # Preallocated ring: _total counts appends ever, the slot is
        # _total % capacity, and once _total exceeds capacity every
        # append evicts the oldest surviving event.
        self._ring: List[Optional[Tuple]] = [None] * capacity
        self._total = 0
        self.dropped = 0
        self._lock = threading.Lock()
        self._thread_names: Dict[int, str] = {}

    # ---- core append -------------------------------------------------
    def _append(
        self,
        kind: str,
        name: str,
        cat: str,
        ts_ns: int,
        dur_ns: int,
        args: Optional[Dict[str, Any]],
    ) -> None:
        ident = threading.get_ident()
        with self._lock:
            if ident not in self._thread_names:
                self._thread_names[ident] = threading.current_thread().name
            if self._total >= self.capacity:
                self.dropped += 1
            self._ring[self._total % self.capacity] = (
                kind, name, cat, ts_ns, dur_ns, args, ident,
            )
            self._total += 1

    # ---- recording API ----------------------------------------------
    def span(self, name: str, cat: str = "", **args: Any) -> _Span:
        """Context manager measuring a complete span."""
        return _Span(self, name, cat, args or None)

    def instant(self, name: str, cat: str = "", **args: Any) -> None:
        self._append(KIND_INSTANT, name, cat, perf_counter_ns(), 0, args or None)

    def counter(self, name: str, value: float, cat: str = "metrics") -> None:
        self._append(
            KIND_COUNTER, name, cat, perf_counter_ns(), 0, {"value": float(value)}
        )

    def flow_out(self, flow: int, ts_ns: Optional[int] = None, cat: str = "comm") -> None:
        self._append(
            KIND_FLOW_OUT, "msg", cat,
            perf_counter_ns() if ts_ns is None else ts_ns, 0, {"id": int(flow)},
        )

    def flow_in(self, flow: int, ts_ns: Optional[int] = None, cat: str = "comm") -> None:
        self._append(
            KIND_FLOW_IN, "msg", cat,
            perf_counter_ns() if ts_ns is None else ts_ns, 0, {"id": int(flow)},
        )

    # ---- inspection / export ----------------------------------------
    def __len__(self) -> int:
        return min(self._total, self.capacity)

    @property
    def total_recorded(self) -> int:
        """Events ever appended, including those since overwritten."""
        return self._total

    def events(self) -> List[Tuple]:
        """Surviving events in append order (oldest first)."""
        with self._lock:
            if self._total <= self.capacity:
                return [ev for ev in self._ring[: self._total]]
            head = self._total % self.capacity
            return [ev for ev in self._ring[head:] + self._ring[:head]]

    def dump(self) -> Dict[str, Any]:
        """Plain-data snapshot, picklable for shipment over the fabric."""
        events = self.events()
        with self._lock:
            return {
                "rank": self.rank,
                "capacity": self.capacity,
                "dropped": self.dropped,
                "total_recorded": self._total,
                "threads": dict(self._thread_names),
                "events": [list(ev) for ev in events],
            }


# ---- module-level conveniences (no-ops when no recorder is bound) -----
def span(name: str, cat: str = "", **args: Any):
    """Span on the current thread's recorder; no-op context if unbound."""
    rec = getattr(_tls, "recorder", None)
    if rec is None:
        return _NULL_SPAN
    return _Span(rec, name, cat, args or None)


def instant(name: str, cat: str = "", **args: Any) -> None:
    rec = getattr(_tls, "recorder", None)
    if rec is not None:
        rec.instant(name, cat, **args)


def counter(name: str, value: float, cat: str = "metrics") -> None:
    rec = getattr(_tls, "recorder", None)
    if rec is not None:
        rec.counter(name, value, cat)


# ---- comm-path helpers -----------------------------------------------
def flow_id(channel: str, source: int, dest: int, tag: int) -> int:
    """Stable id linking a send event to its matching recv event.

    Both endpoints can compute it locally — no extra bytes on the wire —
    because a message is identified by ``(channel, source, dest, tag)``
    on this substrate.  Tags are unique per logical message within a run
    for the collective/serving schedules (epoch/round/chunk or sequence
    numbers are minted into them), so collisions only arise for
    intentionally reused tags and merely merge those arrows in the UI.
    """
    # A str's hash is salted per interpreter; a spawned rank's differs.
    return hash((zlib.crc32(channel.encode()), source, dest, tag)) & 0x7FFFFFFFFFFFFFFF


def payload_nbytes(payload: Any) -> int:
    """Best-effort payload size: ndarray ``nbytes``, summed over a tuple's
    items (e.g. a serving message's tuples); 0 for other types."""
    if isinstance(payload, tuple):
        return sum(payload_nbytes(item) for item in payload)
    nbytes = getattr(payload, "nbytes", 0)
    return int(nbytes) if isinstance(nbytes, int) else 0


def _comm_args(channel: str, peer: int, tag: int, payload: Any) -> Dict[str, Any]:
    """A send or receive span's args: ``elements`` is an array payload's
    size, else 0."""
    return {
        "peer": peer, "tag": tag, "nbytes": payload_nbytes(payload),
        "channel": channel,
        "elements": int(payload.size) if isinstance(payload, np.ndarray) else 0,
    }


def record_send(
    rec: FlightRecorder,
    channel: str,
    source: int,
    dest: int,
    tag: int,
    payload: Any,
    t0_ns: int,
) -> None:
    """One send = a short "send" span over the deliver + a flow start."""
    t1 = perf_counter_ns()
    rec._append(
        KIND_SPAN, "send", "comm", t0_ns, t1 - t0_ns,
        _comm_args(channel, dest, tag, payload),
    )
    rec.flow_out(flow_id(channel, source, dest, tag), ts_ns=t0_ns)


def record_recv(
    rec: FlightRecorder,
    channel: str,
    source: int,
    dest: int,
    tag: int,
    payload: Any,
    t0_ns: int,
) -> None:
    """One recv = a "recv" span covering the mailbox wait + a flow end."""
    t1 = perf_counter_ns()
    rec._append(
        KIND_SPAN, "recv", "comm", t0_ns, t1 - t0_ns,
        _comm_args(channel, source, tag, payload),
    )
    rec.flow_in(flow_id(channel, source, dest, tag), ts_ns=t1)


def record_timeout(
    rec: FlightRecorder, channel: str, source: int, tag: int, t0_ns: int
) -> None:
    """A receive that ran out the world's deadline = a "recv-timeout" span
    naming the awaited ``source`` (``-1``: any), ``tag`` and ``channel``."""
    rec._append(
        KIND_SPAN, "recv-timeout", "comm", t0_ns, perf_counter_ns() - t0_ns,
        {"peer": source, "tag": tag, "channel": channel},
    )
