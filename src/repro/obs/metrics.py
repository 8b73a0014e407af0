"""Log-bucketed streaming histograms, and straggler attribution from a trace.

Built on the same streaming philosophy as :mod:`repro.utils.stats`
(:class:`~repro.utils.stats.RunningStat` is embedded in every
histogram for exact mean/min/max): a histogram is O(1) per update and
bounded in memory under sustained load, so the serving tier can account
for millions of requests without keeping a raw latency list around.

Log-bucketed histogram
----------------------
:class:`LogHistogram` buckets values geometrically: value ``v`` lands in
bucket ``floor(log(v / min_value) / log(growth))``.  With the default
``growth = 1.015`` adjacent bucket edges are 1.5% apart, so any quantile
read off the bucket (geometric) midpoints is within ±0.75% of the exact
sample quantile — comfortably inside the 1% tolerance the serving tests
assert against ``np.percentile``.  Buckets are held sparsely in a dict;
covering twelve decades (1 ns … 1000 s) costs at most ~1860 occupied
buckets, usually far fewer.

Cross-rank merge
----------------
Histograms merge by adding bucket counts (:meth:`LogHistogram.merge`),
so per-rank histograms shipped as :meth:`LogHistogram.to_dict` merge on
rank 0 into the pooled distribution.

Straggler attribution
---------------------
:func:`straggler_attribution` reads a Chrome trace (the object
:func:`repro.obs.trace.to_chrome_trace` builds, or its JSON) and splits
each rank's step time into compute, the fusion buckets' collectives and
the exchange's overhead around them — the "where does the slow rank's
time go" report the paper's imbalance argument calls for.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Dict, Iterable, List

from repro.utils.stats import RunningStat

__all__ = ["LogHistogram", "straggler_attribution"]

#: The complete spans :func:`straggler_attribution` sums, by (category,
#: name).  Each ``exchange``-category bucket span is one fusion bucket's
#: collective: waiting for peers *and* moving and reducing its bytes.
_ATTRIBUTED = {
    ("step", "compute"): "compute_s",
    ("step", "exchange"): "exchange_s",
    ("exchange", "bucket-wait"): "collective_s",
    ("exchange", "shard-scatter"): "collective_s",
    ("exchange", "shard-gather"): "collective_s",
}


class LogHistogram:
    """Streaming histogram with geometrically spaced buckets.

    Parameters
    ----------
    growth:
        Ratio between adjacent bucket edges.  Quantile error from the
        bucket midpoint is at most ``±(sqrt(growth) - 1)``.
    min_value:
        Smallest resolvable positive value; everything in
        ``[0, min_value]`` shares bucket 0.  Negative values are
        rejected — the histogram tracks durations and sizes.
    """

    def __init__(self, growth: float = 1.015, min_value: float = 1e-9) -> None:
        if growth <= 1.0:
            raise ValueError(f"growth must exceed 1, got {growth}")
        if min_value <= 0.0:
            raise ValueError(f"min_value must be positive, got {min_value}")
        self.growth = float(growth)
        self.min_value = float(min_value)
        self._log_growth = math.log(self.growth)
        self._buckets: Dict[int, int] = {}
        self._stat = RunningStat()
        self._lock = threading.Lock()

    # ---- ingest ------------------------------------------------------
    def _bucket_index(self, value: float) -> int:
        if value <= self.min_value:
            return 0
        return 1 + int(math.floor(math.log(value / self.min_value) / self._log_growth))

    def push(self, value: float) -> None:
        value = float(value)
        if value < 0 or math.isnan(value):
            raise ValueError(f"LogHistogram takes non-negative values, got {value}")
        idx = self._bucket_index(value)
        with self._lock:
            self._buckets[idx] = self._buckets.get(idx, 0) + 1
            self._stat.push(value)

    def extend(self, values: Iterable[float]) -> None:
        for v in values:
            self.push(v)

    # ---- read --------------------------------------------------------
    @property
    def count(self) -> int:
        return self._stat.count

    @property
    def mean(self) -> float:
        return self._stat.mean

    @property
    def min(self) -> float:
        return self._stat.min

    @property
    def max(self) -> float:
        return self._stat.max

    def _bucket_mid(self, idx: int) -> float:
        if idx <= 0:
            return self.min_value
        # Geometric midpoint of [min * g^(i-1), min * g^i).
        return self.min_value * self.growth ** (idx - 0.5)

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile (``q`` in [0, 1])."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            n = self._stat.count
            if n == 0:
                return float("nan")
            # Rank convention matching np.percentile's default linear
            # interpolation target index, resolved to the owning bucket.
            rank = q * (n - 1)
            cumulative = 0
            value = self._stat.max
            for idx in sorted(self._buckets):
                cumulative += self._buckets[idx]
                if cumulative > rank:
                    value = self._bucket_mid(idx)
                    break
            # The sample extrema are tracked exactly; clamping removes
            # midpoint bias at the tails (and makes single-valued
            # distributions exact).
            return min(max(value, self._stat.min), self._stat.max)

    def percentile(self, p: float) -> float:
        """Approximate ``p``-th percentile (``p`` in [0, 100])."""
        return self.quantile(p / 100.0)

    # ---- merge / serialise -------------------------------------------
    def merge(self, other: "LogHistogram") -> "LogHistogram":
        if (other.growth, other.min_value) != (self.growth, self.min_value):
            raise ValueError(
                "cannot merge histograms with different bucket layouts: "
                f"growth {self.growth} vs {other.growth}, "
                f"min_value {self.min_value} vs {other.min_value}"
            )
        with self._lock:
            for idx, n in other._buckets.items():
                self._buckets[idx] = self._buckets.get(idx, 0) + n
            stat = self._stat
            ostat = other._stat
            if ostat.count:
                merged = RunningStat()
                merged.count = stat.count + ostat.count
                total = stat.mean * stat.count + ostat.mean * ostat.count
                merged._mean = total / merged.count
                # Chan et al. parallel variance combination.
                delta = ostat.mean - stat.mean
                merged._m2 = (
                    stat._m2 + ostat._m2
                    + delta * delta * stat.count * ostat.count / merged.count
                )
                merged._min = min(stat.min if stat.count else math.inf, ostat.min)
                merged._max = max(stat.max if stat.count else -math.inf, ostat.max)
                self._stat = merged
        return self

    def to_dict(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "type": "histogram",
                "growth": self.growth,
                "min_value": self.min_value,
                "count": self._stat.count,
                "mean": self._stat.mean,
                "min": self._stat.min,
                "max": self._stat.max,
                "buckets": {str(idx): n for idx, n in self._buckets.items()},
            }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "LogHistogram":
        hist = cls(growth=data["growth"], min_value=data["min_value"])
        hist._buckets = {int(idx): int(n) for idx, n in data["buckets"].items()}
        count = int(data["count"])
        if count:
            stat = RunningStat()
            stat.count = count
            stat._mean = float(data["mean"])
            stat._min = float(data["min"])
            stat._max = float(data["max"])
            # m2 is not serialised (std is not needed for merged
            # quantiles); keep it zero and accept std=0 on round-trip.
            hist._stat = stat
        return hist




def straggler_attribution(trace: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Per-rank shares of compute vs. collective vs. exchange overhead.

    ``trace`` is a Chrome trace object (:func:`repro.obs.trace.to_chrome_trace`
    builds it; :func:`~repro.obs.trace.write_chrome_trace` writes it as
    JSON).  Per rank (``pid``), summed over its complete spans:

    ``compute_s``
        the ``compute`` spans (forward + backward);
    ``exchange_s``
        the ``exchange`` spans (each step's whole gradient exchange);
    ``collective_s``
        the fusion buckets' collectives inside them (``bucket-wait``,
        ``shard-scatter``, ``shard-gather``), peer waits included;
    ``overhead_s``
        ``exchange_s - collective_s``: what the exchange did outside its
        buckets (slicing, codecs, ZeRO-1's shard update).

    Returns one record per rank, in rank order, with ``steps`` (its
    ``compute`` span count) and ``compute_share`` / ``collective_share``
    / ``overhead_share``, which sum to 1 when the rank recorded any of
    that time.
    """
    totals: Dict[int, Dict[str, Any]] = {}
    for event in trace["traceEvents"]:
        field = _ATTRIBUTED.get((event.get("cat"), event["name"]))
        if event["ph"] != "X" or field is None:
            continue
        rank = totals.setdefault(
            event["pid"],
            {"steps": 0, "compute_s": 0.0, "exchange_s": 0.0, "collective_s": 0.0},
        )
        rank[field] += event["dur"] / 1e6
        rank["steps"] += int(field == "compute_s")
    report: List[Dict[str, Any]] = []
    for rank, sums in sorted(totals.items()):
        overhead = sums["exchange_s"] - sums["collective_s"]
        total = sums["compute_s"] + sums["exchange_s"]
        report.append({
            "rank": rank,
            **sums,
            "overhead_s": overhead,
            "compute_share": sums["compute_s"] / total if total else 0.0,
            "collective_share": sums["collective_s"] / total if total else 0.0,
            "overhead_share": overhead / total if total else 0.0,
        })
    return report
