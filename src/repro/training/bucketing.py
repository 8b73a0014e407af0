"""Gradient fusion buckets (Horovod-style tensor fusion).

Shipping every layer's gradient through its own collective drowns the
exchange in per-message latency; shipping the whole model as one
monolithic buffer serialises the entire reduction behind a single
blocking call.  Tensor fusion is the standard middle ground (Horovod's
``HOROVOD_FUSION_THRESHOLD``): consecutive parameters are packed into
fusion buffers of at most ``fusion_threshold_bytes``, and the exchange
issues one collective per bucket so buckets can pipeline against each
other and, with chunked collectives, within themselves.

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


def _validate_wire_width(
    wire_bytes_per_element: Optional[float], bytes_per_element: int
) -> float:
    """Resolve the encoded element width (dense width when ``None``)."""
    if wire_bytes_per_element is None:
        return float(bytes_per_element)
    wire = float(wire_bytes_per_element)
    if not wire > 0 or not np.isfinite(wire):
        raise ValueError(
            f"wire_bytes_per_element must be positive and finite, got "
            f"{wire_bytes_per_element}"
        )
    return wire

#: Default fusion-buffer capacity.  Horovod defaults to 64 MiB on GPU
#: clusters; the thread-backed reproduction models smaller gradients, so
#: a 2 MiB default produces a representative handful of buckets.
DEFAULT_FUSION_THRESHOLD_BYTES = 2 * 1024 * 1024

#: Gradients travel as float64 on this substrate.
BYTES_PER_ELEMENT = 8


@dataclass(frozen=True)
class BucketSpec:
    """One fusion buffer: a contiguous element range of the flat gradient."""

    #: Position of the bucket in the fixed (deep500) issue order.
    index: int
    #: First element (inclusive) of the flat gradient owned by the bucket.
    start: int
    #: One past the last element owned by the bucket.
    stop: int
    #: Indices of the parameters packed into this bucket (empty for
    #: buckets built from an element range rather than a parameter list).
    param_indices: Tuple[int, ...] = ()
    #: Element width of the substrate the bucketer was built for; keeps
    #: :attr:`nbytes` consistent with the byte budget the bucketer used.
    bytes_per_element: int = BYTES_PER_ELEMENT
    #: Encoded payload width per element on the wire (may be fractional,
    #: e.g. 2.0 for fp16 or 0.08 for 1% top-k).  Equal to
    #: :attr:`bytes_per_element` when the exchange is uncompressed.
    wire_bytes_per_element: float = float(BYTES_PER_ELEMENT)

    @property
    def num_elements(self) -> int:
        return self.stop - self.start

    @property
    def nbytes(self) -> int:
        return self.num_elements * self.bytes_per_element


class GradientBucketer:
    """Packs per-parameter gradients into fixed-byte fusion buffers.

    Parameters
    ----------
    param_sizes:
        Flat element count of each parameter tensor, in model order.
        Consecutive parameters are packed greedily: a bucket is closed
        when adding the next parameter would exceed the threshold (a
        single parameter larger than the threshold gets a bucket of its
        own — parameters are never split across buckets).
    fusion_threshold_bytes:
        Capacity of one fusion buffer in bytes.
    bytes_per_element:
        Element width used to convert the threshold into elements.
    wire_bytes_per_element:
        Encoded payload width per element (a gradient codec's
        :attr:`~repro.compression.GradientCodec.wire_bytes_per_element`).
        When given, the *threshold* budgets the encoded wire size, so a
        compressing codec packs proportionally more elements per bucket
        (a 2 MiB buffer holds 4x the elements under fp16).  ``None``
        keeps the dense width.
    """

    def __init__(
        self,
        param_sizes: Sequence[int],
        fusion_threshold_bytes: int = DEFAULT_FUSION_THRESHOLD_BYTES,
        bytes_per_element: int = BYTES_PER_ELEMENT,
        wire_bytes_per_element: Optional[float] = None,
    ) -> None:
        sizes = [int(s) for s in param_sizes]
        if not sizes:
            raise ValueError(f"param_sizes must not be empty, got {param_sizes!r}")
        if any(s < 1 for s in sizes):
            raise ValueError(f"parameter sizes must be >= 1, got {sizes}")
        if fusion_threshold_bytes < 1:
            raise ValueError(
                f"fusion_threshold_bytes must be >= 1, got {fusion_threshold_bytes}"
            )
        if bytes_per_element < 1:
            raise ValueError(f"bytes_per_element must be >= 1, got {bytes_per_element}")
        wire_bpe = _validate_wire_width(wire_bytes_per_element, bytes_per_element)
        self.fusion_threshold_bytes = int(fusion_threshold_bytes)
        self.bytes_per_element = int(bytes_per_element)
        self.wire_bytes_per_element = wire_bpe
        capacity = max(1, int(fusion_threshold_bytes / wire_bpe))

        buckets: List[BucketSpec] = []
        start = 0
        current: List[int] = []
        filled = 0
        for i, size in enumerate(sizes):
            if current and filled + size > capacity:
                stop = start + filled
                buckets.append(
                    BucketSpec(
                        len(buckets), start, stop, tuple(current),
                        bytes_per_element=self.bytes_per_element,
                        wire_bytes_per_element=wire_bpe,
                    )
                )
                start, current, filled = stop, [], 0
            current.append(i)
            filled += size
        stop = start + filled
        buckets.append(
            BucketSpec(
                len(buckets), start, stop, tuple(current),
                bytes_per_element=self.bytes_per_element,
                wire_bytes_per_element=wire_bpe,
            )
        )
        self.buckets: Tuple[BucketSpec, ...] = tuple(buckets)
        self.num_elements = stop

    # ------------------------------------------------------------ builders
    @classmethod
    def from_flat(
        cls,
        num_elements: int,
        fusion_threshold_bytes: int = DEFAULT_FUSION_THRESHOLD_BYTES,
        bytes_per_element: int = BYTES_PER_ELEMENT,
        wire_bytes_per_element: Optional[float] = None,
    ) -> "GradientBucketer":
        """Bucketer chopping a flat vector into threshold-sized ranges.

        Used when per-parameter boundaries are unknown (the exchange only
        sees the flattened gradient): the vector is cut into the smallest
        number of equal-ish contiguous ranges that each fit the threshold.
        ``wire_bytes_per_element`` budgets the threshold against the
        *encoded* payload width (see the constructor).
        """
        if num_elements < 1:
            raise ValueError(f"num_elements must be >= 1, got {num_elements}")
        if bytes_per_element < 1:
            raise ValueError(f"bytes_per_element must be >= 1, got {bytes_per_element}")
        wire_bpe = _validate_wire_width(wire_bytes_per_element, bytes_per_element)
        capacity = max(1, int(fusion_threshold_bytes / wire_bpe))
        count = -(-num_elements // capacity)  # ceil division
        return cls.fixed_count(
            num_elements, count, fusion_threshold_bytes, bytes_per_element,
            wire_bytes_per_element,
        )

    @classmethod
    def fixed_count(
        cls,
        num_elements: int,
        count: int,
        fusion_threshold_bytes: int = DEFAULT_FUSION_THRESHOLD_BYTES,
        bytes_per_element: int = BYTES_PER_ELEMENT,
        wire_bytes_per_element: Optional[float] = None,
    ) -> "GradientBucketer":
        """Bucketer with exactly ``count`` near-equal element ranges.

        Backwards-compatible with the legacy ``fusion_buckets=N`` knob
        (fixed per-layer-group reductions executed in a fixed order):
        like the ``np.array_split`` it replaces, a ``count`` exceeding
        the element count is capped at one element per bucket (the
        surplus buckets would be empty no-ops).  A ``count`` below one
        is an error.
        """
        if num_elements < 1:
            raise ValueError(f"num_elements must be >= 1, got {num_elements}")
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        if bytes_per_element < 1:
            raise ValueError(f"bytes_per_element must be >= 1, got {bytes_per_element}")
        wire_bpe = _validate_wire_width(wire_bytes_per_element, bytes_per_element)
        count = min(int(count), num_elements)
        bucketer = cls.__new__(cls)
        base, extra = divmod(num_elements, count)
        buckets: List[BucketSpec] = []
        lo = 0
        for i in range(count):
            hi = lo + base + (1 if i < extra else 0)
            buckets.append(
                BucketSpec(
                    i, lo, hi, bytes_per_element=int(bytes_per_element),
                    wire_bytes_per_element=wire_bpe,
                )
            )
            lo = hi
        bucketer.fusion_threshold_bytes = int(fusion_threshold_bytes)
        bucketer.bytes_per_element = int(bytes_per_element)
        bucketer.wire_bytes_per_element = wire_bpe
        bucketer.buckets = tuple(buckets)
        bucketer.num_elements = num_elements
        return bucketer

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
        return (
            f"GradientBucketer(buckets={self.num_buckets}, "
            f"elements={self.num_elements}, "
            f"threshold={self.fusion_threshold_bytes}B)"
        )
