"""Tracing is a switch: :func:`session` traces every world launched inside it.

While a session is active, :func:`repro.comm.backend.launch` runs each
rank's SPMD function inside :func:`trace_rank`, which travels with the
launch arguments (forked and spawned ranks alike run it): it binds a
:class:`~repro.obs.recorder.FlightRecorder`, runs the function, records
the transport's ``transport.*`` counters, takes a barrier and ships the
buffer to rank 0 with :func:`~repro.obs.collect.gather_traces`, which
aligns the ranks' clocks.  The launcher returns the function's results
unchanged and hands the buffers to the session; the training runner's
in-process P = 1 path does the same (:func:`run_in_process`).  On exit the
session writes one Chrome trace (Perfetto, ``chrome://tracing``) with a
labelled track per rank of every world, and keeps its :func:`trace_report`,
computed from the trace alone.  ``python -m repro ROW --trace PATH`` is a
session around any row (:func:`repro.cli.main`).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.obs import recorder as _obs
from repro.obs.collect import gather_traces
from repro.obs.metrics import LogHistogram, straggler_attribution
from repro.obs.recorder import DEFAULT_CAPACITY, FlightRecorder
from repro.obs.trace import to_chrome_trace, write_chrome_trace

__all__ = ["Session", "session", "trace_report", "format_summary"]

#: The session :func:`launch <repro.comm.backend.launch>` traces into, if any.
_ACTIVE: Optional["Session"] = None


class Session:
    """The worlds traced inside one :func:`session`: per world a label,
    every rank's recorder dump and the clock offsets onto its rank 0."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.worlds: List[Tuple[str, List[Dict[str, Any]], Dict[int, int]]] = []
        #: :func:`trace_report` of the written trace (``None``: nothing traced).
        self.report: Optional[Dict[str, Any]] = None

    def collect(self, fn: Callable, backend: str, results: List[Any]) -> List[Any]:
        """Keep the buffers :func:`trace_rank` gathered on rank 0 of a world
        that ran ``fn`` on ``backend``; return ``fn``'s results per rank."""
        # Rank 0 of a multi-launcher world may belong to another launcher,
        # which then holds the buffers.
        if results[0] is not None:
            self.worlds.append((f"{fn.__name__} on {backend}", *results[0][1]))
        return [None if out is None else out[0] for out in results]

    def trace(self) -> Dict[str, Any]:
        """One Chrome trace of every world: world ``w``'s rank ``r`` is
        track ``first + r``, named ``"<label> #w rank r"``."""
        dumps: List[Dict[str, Any]] = []
        offsets: Dict[int, int] = {}
        worlds: List[Dict[str, Any]] = []
        for index, (label, world_dumps, world_offsets) in enumerate(self.worlds):
            first = len(dumps)
            worlds.append({"label": label, "first_track": first, "ranks": len(world_dumps)})
            # Every world mints the same flow ids; salt them so no arrow
            # joins two worlds.
            salt = index << 48
            for dump in world_dumps:
                rank = dump["rank"]
                offsets[first + rank] = world_offsets.get(rank, 0)
                dumps.append({
                    **dump,
                    "rank": first + rank,
                    "label": f"{label} #{index} rank {rank}",
                    "events": [
                        event if event[0] not in "sf"
                        else [*event[:5], {"id": event[5]["id"] ^ salt}, event[6]]
                        for event in dump["events"]
                    ],
                })
        return to_chrome_trace(dumps, offsets, {"worlds": worlds})


def trace_rank(comm, fn: Callable, capacity: int, *args: Any, **kwargs: Any):
    """SPMD entry of a traced world: ``fn(comm, *args, **kwargs)`` under a
    recorder, then every rank's buffer gathered on rank 0.  Returns
    ``(result, (dumps, offsets))`` on rank 0 and ``(result, None)`` elsewhere."""
    previous = _obs.current()
    recorder = _obs.bind(FlightRecorder(rank=comm.rank, capacity=capacity))
    try:
        result = fn(comm, *args, **kwargs)
        # The transport's otherwise silent events; none on "thread".
        for name, value in getattr(comm.router, "stats", dict)().items():
            recorder.counter(f"transport.{name}", value, cat="comm")
        comm.barrier()
    finally:
        _obs.bind(previous)
    return result, gather_traces(comm, recorder.dump())


def active() -> Optional[Session]:
    """The active :func:`session`, or ``None``."""
    return _ACTIVE


def run_in_process(fn: Callable, comm, *args: Any) -> Any:
    """``fn(comm, *args)`` on a world of one run by this thread, traced as
    a world of its own when a session is active."""
    if _ACTIVE is None:
        return fn(comm, *args)
    return _ACTIVE.collect(fn, "in-process", [trace_rank(comm, fn, _ACTIVE.capacity, *args)])[0]


@contextmanager
def session(path: str, capacity: int = DEFAULT_CAPACITY) -> Iterator[Session]:
    """Trace every world launched inside the ``with`` block, each rank in a
    ``capacity``-event recorder, and on a clean exit write them to ``path``
    as one Chrome trace.  A block that launched no world writes nothing and
    leaves the session's ``report`` ``None``."""
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("a tracing session is already active")
    traced = _ACTIVE = Session(capacity)
    try:
        yield traced
    finally:
        _ACTIVE = None
    if traced.worlds:
        trace = traced.trace()
        write_chrome_trace(path, trace)
        traced.report = trace_report(trace)


def trace_report(trace: Dict[str, Any]) -> Dict[str, Any]:
    """The report of a traced session, computed from its Chrome trace alone.

    ``trace`` is the object :func:`session` writes, or its JSON loaded back
    (both give the same report).  Per track: the straggler attribution
    (:func:`~repro.obs.metrics.straggler_attribution`), what the training
    runner records — its ``run`` instant (mode, sharding), its
    ``optimizer-state-bytes`` counter and its ``final-model`` instant (the
    model hash) — and the count of ``recv-timeout`` spans, the receives
    that ran out the world's deadline.  Over every track's ``exchange``
    spans: p50 / p99 seconds.
    """
    exchange = LogHistogram()
    state_bytes: Dict[int, int] = {}
    timeouts: Dict[int, int] = {}
    runs: Dict[int, Dict[str, Any]] = {}
    hashes: Dict[int, str] = {}
    for event in trace["traceEvents"]:
        kind = (event["ph"], event.get("cat"), event["name"])
        if kind == ("X", "step", "exchange"):
            exchange.push(event["dur"] / 1e6)
        elif kind == ("C", "metrics", "optimizer-state-bytes"):
            state_bytes[event["pid"]] = int(event["args"]["value"])
        elif kind == ("i", "train", "run"):
            runs[event["pid"]] = event["args"]
        elif kind == ("i", "train", "final-model"):
            hashes[event["pid"]] = event["args"]["hash"]
        elif kind == ("X", "comm", "recv-timeout"):
            timeouts[event["pid"]] = timeouts.get(event["pid"], 0) + 1
    other = trace["otherData"]
    return {
        "worlds": other["worlds"],
        "events": len(trace["traceEvents"]),
        "dropped_events": other["dropped_events"],
        "clock_offsets_ns": other["clock_offsets_ns"],
        "straggler": straggler_attribution(trace),
        "runs": runs,
        "optimizer_state_bytes": state_bytes,
        "model_hashes": hashes,
        "recv_timeouts": timeouts,
        "exchanges": exchange.count,
        "exchange_p50_s": exchange.quantile(0.50) if exchange.count else None,
        "exchange_p99_s": exchange.quantile(0.99) if exchange.count else None,
    }


def models_line(hashes: Dict[int, str]) -> str:
    """``models : <verdict> (r0=<hash>, ...)`` of one world's final models."""
    verdict = "all ranks agree" if len(set(hashes.values())) == 1 else "ranks differ"
    per_rank = ", ".join(f"r{rank}={h}" for rank, h in sorted(hashes.items()))
    return f"models     : {verdict} ({per_rank})"


def format_summary(report: Dict[str, Any], path: str) -> str:
    """Human-readable :func:`trace_report` of the trace written to ``path``."""
    lines = [
        f"trace report (wrote {path}, load in https://ui.perfetto.dev)",
        f"  trace      : {report['events']} events, "
        f"{sum(report['dropped_events'].values())} dropped, {len(report['worlds'])} world(s)",
    ]
    straggler = {record["rank"]: record for record in report["straggler"]}
    for index, world in enumerate(report["worlds"]):
        first = world["first_track"]
        tracks = {rank: first + rank for rank in range(world["ranks"])}
        run = "".join(f", {k} {v}" for k, v in report["runs"].get(first, {}).items())
        lines.append(f"  world {index:<5}: {world['label']}, {world['ranks']} rank(s){run}")
        for rank, track in tracks.items():
            line = f"    rank {rank:>3} : clock offset {report['clock_offsets_ns'][str(track)]} ns"
            if track in straggler:
                r = straggler[track]
                line += (f", {100 * r['compute_share']:5.1f}% compute, "
                         f"{100 * r['collective_share']:5.1f}% collective, "
                         f"{100 * r['overhead_share']:5.1f}% exchange overhead "
                         f"over {r['steps']} step(s)")
            if track in report["optimizer_state_bytes"]:
                line += f", opt state {report['optimizer_state_bytes'][track]} bytes"
            lines.append(line)
        hashes = {
            rank: report["model_hashes"][t] for rank, t in tracks.items()
            if t in report["model_hashes"]
        }
        if hashes:
            lines.append("    " + models_line(hashes))
    timeouts = sum(report["recv_timeouts"].values())
    if timeouts:
        lines.append(f"  timeouts   : {timeouts} receive(s) ran out the world's deadline")
    if report["exchanges"]:
        lines.append(
            f"  exchange   : p50 {1e3 * report['exchange_p50_s']:.3f} ms, p99 "
            f"{1e3 * report['exchange_p99_s']:.3f} ms over {report['exchanges']} exchange(s)"
        )
    return "\n".join(lines)
