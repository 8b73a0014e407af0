"""Benchmark-side tracing: spans around calls into each layer, send counts.

The spans live in the benchmark's own files, around the public functions
of each layer; nothing inside ``src/repro`` is instrumented by them.  They
are kept in memory and written out once, when the layer run ends.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Container, Dict, Iterator, List, Optional


class SpanRecorder:
    """In-memory span list for one rank (single-threaded use)."""

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self.spans: List[dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, step: Optional[int] = None) -> Iterator[dict]:
        """Record one span; spans opened inside it become its children."""
        span = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "step": step,
            "rank": self.rank,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str, steps: Optional[Container[int]] = None) -> List[float]:
        """Durations (seconds) of the closed spans called ``name``."""
        return [
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name
            and s["end"] is not None
            and (steps is None or s["step"] in steps)
        ]


def payload_nbytes(data) -> int:
    """Bytes of the array payload(s) in one send (0 for scalars/metadata)."""
    nbytes = getattr(data, "nbytes", None)
    if isinstance(nbytes, int):
        return nbytes
    if isinstance(data, (tuple, list)):
        return sum(payload_nbytes(item) for item in data)
    return 0


class CountingComm:
    """Pass-through communicator proxy counting this rank's sends and bytes.

    Communicators derived with :meth:`dup` share the counters, so the
    partial collectives' library and activation channels are counted too
    (their progress thread sends concurrently, hence the lock).
    """

    def __init__(self, comm, counters: Optional[Dict[str, int]] = None, lock=None) -> None:
        self._comm = comm
        self.counters = {"sends": 0, "bytes": 0} if counters is None else counters
        self._lock = lock or threading.Lock()

    def __getattr__(self, name):
        return getattr(self._comm, name)

    def _count(self, data) -> None:
        nbytes = payload_nbytes(data)
        with self._lock:
            self.counters["sends"] += 1
            self.counters["bytes"] += nbytes

    def send(self, data, dest: int, tag: int = 0) -> None:
        self._count(data)
        self._comm.send(data, dest, tag=tag)

    def isend(self, data, dest: int, tag: int = 0):
        self._count(data)
        return self._comm.isend(data, dest, tag=tag)

    def dup(self, channel: Optional[str] = None) -> "CountingComm":
        return CountingComm(self._comm.dup(channel), self.counters, self._lock)

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return dict(self.counters)
