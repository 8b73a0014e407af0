"""Gradient fusion buckets (Horovod-style tensor fusion).

Shipping every layer's gradient through its own collective drowns the
exchange in per-message latency; shipping the whole model as one
monolithic buffer serialises the entire reduction behind a single
blocking call.  Tensor fusion is the standard middle ground (Horovod's
``HOROVOD_FUSION_THRESHOLD``): the flat gradient is cut into contiguous
element ranges of at most ``fusion_threshold_bytes`` each, and the
exchange issues one collective per bucket so buckets can pipeline
against each other and, with chunked collectives, within themselves.

:class:`GradientBucketer` owns the mapping between the flat gradient
vector (what :func:`repro.nn.parameters.flatten_gradients` produces) and
the per-bucket fusion buffers: :meth:`~GradientBucketer.views` are the
buckets as slices of that vector (what the exchanges reduce in place),
:meth:`~GradientBucketer.pack` / :meth:`~GradientBucketer.unpack` the
copying pair, bit-exact inverses — the bucketer only ever slices and
concatenates, it never re-orders or re-scales elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

#: Default fusion-buffer capacity.  Horovod defaults to 64 MiB on GPU
#: clusters; the thread-backed reproduction models smaller gradients, so
#: a 2 MiB default produces a representative handful of buckets.
DEFAULT_FUSION_THRESHOLD_BYTES = 2 * 1024 * 1024

#: Gradients travel as float64 on this substrate.
BYTES_PER_ELEMENT = 8


def validate_fusion_threshold(fusion_threshold_bytes) -> Optional[int]:
    """``fusion_threshold_bytes`` if it is ``None`` or an integer >= 1.

    ``None`` is one bucket (fully fused); a threshold below one element's
    width is legal and gives one element per bucket.
    """
    if fusion_threshold_bytes is None:
        return None
    if (
        isinstance(fusion_threshold_bytes, bool)
        or not isinstance(fusion_threshold_bytes, (int, np.integer))
        or fusion_threshold_bytes < 1
    ):
        raise ValueError(
            f"fusion_threshold_bytes must be an integer >= 1 or None, "
            f"got {fusion_threshold_bytes!r}"
        )
    return int(fusion_threshold_bytes)


@dataclass(frozen=True)
class BucketSpec:
    """One fusion buffer: a contiguous element range of the flat gradient."""

    #: Position of the bucket in the fixed (deep500) issue order.
    index: int
    #: First element (inclusive) of the flat gradient owned by the bucket.
    start: int
    #: One past the last element owned by the bucket.
    stop: int

    @property
    def num_elements(self) -> int:
        return self.stop - self.start


class GradientBucketer:
    """Cuts a flat vector of ``num_elements`` into contiguous fusion buckets.

    Built by :meth:`from_flat` (a byte threshold) or :meth:`fixed_count`
    (a bucket count); the constructor takes the ranges themselves.
    """

    def __init__(self, num_elements: int, buckets: Sequence[BucketSpec]) -> None:
        self.num_elements = num_elements
        self.buckets: Tuple[BucketSpec, ...] = tuple(buckets)

    # ------------------------------------------------------------ builders
    @classmethod
    def from_flat(
        cls,
        num_elements: int,
        fusion_threshold_bytes: Optional[int] = DEFAULT_FUSION_THRESHOLD_BYTES,
        bytes_per_element: int = BYTES_PER_ELEMENT,
        wire_bytes_per_element: Optional[float] = None,
    ) -> "GradientBucketer":
        """The fewest near-equal ranges that each fit the threshold.

        ``None`` is one bucket.  ``wire_bytes_per_element`` (a gradient
        codec's :attr:`~repro.compression.GradientCodec.wire_bytes_per_element`)
        budgets the threshold against the *encoded* payload width, so a
        compressing codec packs proportionally more elements per bucket
        (a 2 MiB buffer holds 4x the elements under fp16); ``None`` keeps
        the dense ``bytes_per_element``.
        """
        threshold = validate_fusion_threshold(fusion_threshold_bytes)
        if bytes_per_element < 1:
            raise ValueError(f"bytes_per_element must be >= 1, got {bytes_per_element}")
        wire = bytes_per_element if wire_bytes_per_element is None else wire_bytes_per_element
        if not wire > 0 or not np.isfinite(wire):
            raise ValueError(
                f"wire_bytes_per_element must be positive and finite, got "
                f"{wire_bytes_per_element}"
            )
        if threshold is None:
            return cls.fixed_count(num_elements, 1)
        capacity = max(1, int(threshold / wire))
        return cls.fixed_count(num_elements, -(-num_elements // capacity))

    @classmethod
    def fixed_count(cls, num_elements: int, count: int) -> "GradientBucketer":
        """Exactly ``count`` near-equal element ranges.

        Like ``np.array_split``, a ``count`` exceeding the element count
        is capped at one element per bucket (the surplus buckets would be
        empty no-ops).  A ``count`` below one is an error.
        """
        if num_elements < 1:
            raise ValueError(f"num_elements must be >= 1, got {num_elements}")
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        count = min(int(count), num_elements)
        base, extra = divmod(num_elements, count)
        buckets: List[BucketSpec] = []
        lo = 0
        for i in range(count):
            hi = lo + base + (1 if i < extra else 0)
            buckets.append(BucketSpec(i, lo, hi))
            lo = hi
        return cls(num_elements, buckets)

    # ------------------------------------------------------------ packing
    @property
    def num_buckets(self) -> int:
        return len(self.buckets)

    def pack(
        self,
        flat_gradient: np.ndarray,
        out: Optional[List[np.ndarray]] = None,
    ) -> List[np.ndarray]:
        """Slice the flat gradient into per-bucket fusion buffers.

        Each buffer is an owned contiguous copy (a real fusion buffer the
        collective can reduce in place), bit-identical to the source
        elements.  ``out`` reuses a previous ``pack``'s buffer list
        (same bucketer): the copies then land in already-faulted pages,
        which is what makes Horovod-style *persistent* fusion buffers
        cheaper than per-step allocation.  Buffers of the wrong shape or
        dtype (e.g. replaced by a decode-reduce-encode result) are
        reallocated transparently.
        """
        segments = self.views(np.asarray(flat_gradient).reshape(-1))
        if out is None or len(out) != self.num_buckets:
            return [np.array(segment, copy=True) for segment in segments]
        buffers = []
        for segment, buf in zip(segments, out):
            if (
                isinstance(buf, np.ndarray)
                and buf.shape == segment.shape
                and buf.dtype == segment.dtype
                and buf.flags.writeable
            ):
                np.copyto(buf, segment)
                buffers.append(buf)
            else:
                buffers.append(np.array(segment, copy=True))
        return buffers

    def views(self, flat: np.ndarray) -> List[np.ndarray]:
        """Each bucket as a slice of ``flat`` itself: what an exchange
        reduces in place, the flat vector being the fusion storage."""
        if flat.shape != (self.num_elements,):
            raise ValueError(f"flat vector has shape {flat.shape}, not ({self.num_elements},)")
        return [flat[b.start : b.stop] for b in self.buckets]

    def shard_windows(
        self,
        world_size: int,
        algorithm: str = "ring",
        topology=None,
    ) -> List[List[Tuple[int, int]]]:
        """Per-bucket, per-rank owned windows for a sharded (ZeRO-1) exchange.

        ``result[b][r]`` is the ``(lo, hi)`` window — in *bucket-local*
        coordinates, i.e. offsets into bucket ``b``'s fusion buffer —
        that rank ``r`` owns after a
        :func:`repro.collectives.sharding.reduce_scatter` of that
        bucket.  Sharding is aligned per bucket (each fusion buffer is
        its own collective), so the windows follow the same ownership
        map the collective uses; global flat coordinates are recovered
        by adding ``bucket.start``.
        """
        from repro.collectives.sharding import shard_bounds

        if world_size < 1:
            raise ValueError(f"world_size must be >= 1, got {world_size}")
        return [
            shard_bounds(b.num_elements, world_size, algorithm, topology=topology)
            for b in self.buckets
        ]

    def unpack(
        self,
        buffers: Sequence[np.ndarray],
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Reassemble the flat gradient from per-bucket buffers (bit-exact).

        ``out`` is the flat vector to fill and return — the counterpart
        of :meth:`pack`'s persistent buffers for the way back.
        """
        if len(buffers) != self.num_buckets:
            raise ValueError(
                f"expected {self.num_buckets} buffers, got {len(buffers)}"
            )
        if out is None:
            out = np.empty(self.num_elements, dtype=np.float64)
        elif out.shape != (self.num_elements,) or out.dtype != np.float64:
            raise ValueError(
                f"out must be a float64 vector of {self.num_elements} elements, "
                f"got {out.dtype} of shape {out.shape}"
            )
        for bucket, buffer in zip(self.buckets, buffers):
            buf = np.asarray(buffer).reshape(-1)
            if buf.size != bucket.num_elements:
                raise ValueError(
                    f"bucket {bucket.index} expected {bucket.num_elements} "
                    f"elements, got {buf.size}"
                )
            out[bucket.start : bucket.stop] = buf
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"GradientBucketer(buckets={self.num_buckets}, elements={self.num_elements})"
