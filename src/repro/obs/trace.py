"""Chrome trace-event export for flight-recorder dumps.

The exported object follows the Trace Event Format's "JSON Object
Format" (``{"traceEvents": [...], ...}``), which both Perfetto
(https://ui.perfetto.dev) and the legacy ``chrome://tracing`` load
directly:

* one **process track per rank** (``pid = rank``, named via ``M``
  metadata events) so a P-rank world renders as P aligned timelines;
* recorder threads become named thread tracks (``tid``);
* ``"X"`` complete events carry span start/duration in microseconds;
* ``"i"`` instants and ``"C"`` counters pass through unchanged;
* ``"s"``/``"f"`` flow events with matching ids draw the send→recv
  arrows between rank tracks (``"f"`` binds to its enclosing slice).

Timestamps are ``perf_counter_ns`` readings, which on separate processes
have unrelated epochs; the caller supplies per-rank ``clock_offsets_ns``
(estimated by :mod:`repro.obs.collect`) and the exporter rebases
everything to the earliest aligned event so traces start near t=0.

:func:`validate_chrome_trace` is the structural schema check used by the
tests and :func:`write_chrome_trace` — it returns a list of
problems (empty = valid) rather than raising, so CI can print all of
them at once.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence

__all__ = ["to_chrome_trace", "validate_chrome_trace", "write_chrome_trace"]

_VALID_PHASES = frozenset({"X", "i", "I", "C", "s", "f", "t", "M", "B", "E"})


def _region_name(tag: int) -> Optional[str]:
    # Lazy import: the recorder layer stays dependency-free and the
    # region lookup only runs at export time, never on the hot path.
    from repro.comm import tags as tag_table

    region = tag_table.region_of(int(tag))
    return None if region is None else region.name


def to_chrome_trace(
    dumps: Sequence[Dict[str, Any]],
    clock_offsets_ns: Optional[Dict[int, int]] = None,
    metadata: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Convert per-rank recorder dumps into one Chrome trace object.

    Parameters
    ----------
    dumps:
        :meth:`repro.obs.recorder.FlightRecorder.dump` snapshots, one
        per rank; a dump's optional ``label`` names its track (default
        ``"rank <rank>"``).
    clock_offsets_ns:
        ``rank -> offset`` such that ``local_ts + offset`` lands on rank
        0's clock; missing ranks default to 0 (correct for same-process
        ranks, which share ``CLOCK_MONOTONIC``).
    metadata:
        Extra entries for the top-level trace object (Perfetto shows
        them in the trace info dialog).
    """
    offsets = clock_offsets_ns or {}
    # Earliest aligned timestamp across all ranks anchors t=0.
    base_ns = min(
        (
            int(event[3]) + int(offsets.get(dump["rank"], 0))
            for dump in dumps for event in dump["events"]
        ),
        default=0,
    )

    trace_events: List[Dict[str, Any]] = []
    for dump in dumps:
        rank = int(dump["rank"])
        offset = int(offsets.get(rank, 0))
        threads = {int(ident): str(name) for ident, name in dump["threads"].items()}
        # Stable small tids per rank: the dump's thread idents in sorted
        # order (idents themselves are opaque 64-bit values).
        tid_of = {ident: i for i, ident in enumerate(sorted(threads))}
        trace_events.append({
            "ph": "M", "name": "process_name", "pid": rank, "tid": 0,
            "args": {"name": dump.get("label", f"rank {rank}")},
        })
        trace_events.extend(
            {"ph": "M", "name": "thread_name", "pid": rank, "tid": tid,
             "args": {"name": threads[ident]}}
            for ident, tid in tid_of.items()
        )
        for kind, name, cat, ts_ns, dur_ns, args, ident in dump["events"]:
            event: Dict[str, Any] = {
                "ph": kind,
                "name": name,
                "cat": cat or "repro",
                "pid": rank,
                "tid": tid_of.get(int(ident), 0),
                "ts": (int(ts_ns) + offset - base_ns) / 1000.0,
            }
            if kind in ("s", "f"):
                event["id"] = int((args or {}).get("id", 0))
                if kind == "f":
                    event["bp"] = "e"
            elif args or kind == "C":
                event["args"] = args = dict(args or {"value": 0})
                region = _region_name(args["tag"]) if "tag" in args else None
                if region is not None:
                    args["region"] = region
            if kind == "X":
                event["dur"] = int(dur_ns) / 1000.0
            elif kind == "i":
                event["s"] = "t"
            trace_events.append(event)

    trace: Dict[str, Any] = {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "ranks": len(dumps),
            "dropped_events": {
                str(d["rank"]): int(d.get("dropped", 0)) for d in dumps
            },
            "clock_offsets_ns": {str(r): int(o) for r, o in offsets.items()},
        },
    }
    if metadata:
        trace["otherData"].update(metadata)
    return trace


def validate_chrome_trace(trace: Any) -> List[str]:
    """Structural schema check; returns a list of problems (empty = OK)."""
    problems: List[str] = []
    if not isinstance(trace, dict):
        return [f"trace must be a JSON object, got {type(trace).__name__}"]
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["trace lacks a 'traceEvents' list"]
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph not in _VALID_PHASES:
            problems.append(f"{where}: unknown phase {ph!r}")
            continue
        if not isinstance(event.get("name"), str) or not event["name"]:
            problems.append(f"{where}: missing event name")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                problems.append(f"{where}: missing integer {key!r}")
        if ph != "M":
            ts = event.get("ts")
            if not isinstance(ts, (int, float)):
                problems.append(f"{where}: missing numeric 'ts'")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: complete event needs dur >= 0")
        if ph in ("s", "f", "t") and not isinstance(event.get("id"), int):
            problems.append(f"{where}: flow event needs an integer 'id'")
        if ph == "C" and not isinstance(event.get("args"), dict):
            problems.append(f"{where}: counter event needs an 'args' object")
    try:
        json.dumps(trace)
    except (TypeError, ValueError) as exc:
        problems.append(f"trace is not JSON-serialisable: {exc}")
    return problems


def write_chrome_trace(path: str, trace: Dict[str, Any]) -> None:
    problems = validate_chrome_trace(trace)
    if problems:
        raise ValueError(
            "refusing to write an invalid trace: " + "; ".join(problems[:5])
        )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace, fh)
