"""Pure estimators behind the benchmark's numbers (no NumPy, no I/O)."""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence, Tuple


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (0..100), linearly interpolated between ranks."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def summarise(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles (``statistics.quantiles(n=4)``) and sample count."""
    if len(values) < 2:
        return {"median": median(values), "q1": values[0], "q3": values[0], "n": len(values)}
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return {"median": median(values), "q1": q1, "q3": q3, "n": len(values)}


def time_to_target(
    times: Sequence[float], losses: Sequence[float], target: float
) -> Optional[float]:
    """Seconds until the loss curve first reaches ``target``.

    ``losses[k]`` is the loss observed at ``times[k]``; ``times[0]`` is the
    clock's origin (the loss the timed region starts from).  The crossing
    is linearly interpolated between the two observations that bracket
    it.  ``None`` when the curve never gets there.
    """
    if len(times) != len(losses) or not times:
        raise ValueError("times and losses must be equally long and non-empty")
    if losses[0] <= target:
        return times[0]
    for k in range(1, len(losses)):
        if losses[k] <= target:
            share = (losses[k - 1] - target) / (losses[k - 1] - losses[k])
            return times[k - 1] + share * (times[k] - times[k - 1])
    return None


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    reach = float("-inf")
    for lo, hi in sorted(intervals):
        if hi > reach:
            total += hi - max(lo, reach)
            reach = hi
    return total


def span_self_times(spans: Sequence[dict]) -> Dict[int, float]:
    """Self time per span id: its duration minus what its children cover.

    ``spans`` are dicts with ``id``, ``parent`` (id or ``None``), ``start``
    and ``end``.  Children are clipped to the parent's interval and
    overlapping children are counted once.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None:
            lo = max(s["start"], parent["start"])
            hi = min(s["end"], parent["end"])
            if hi > lo:
                children.setdefault(parent["id"], []).append((lo, hi))
    return {
        s["id"]: (s["end"] - s["start"]) - _covered(children.get(s["id"], []))
        for s in spans
    }
