"""Vectorised reduction kernels for narrow float dtypes.

NumPy has no SIMD arithmetic loops for ``float16``: an in-place
``np.add(a, b, out=a)`` on two half-precision buffers runs an
element-at-a-time C loop that converts each operand to ``float32``,
combines, and converts back — roughly an order of magnitude slower per
byte than the vectorised ``float32`` loop.  Gradients increasingly
travel at narrow widths (the ``fp16`` wire format of
:mod:`repro.compression`, user data handed to the generic collectives),
so that scalar loop sits directly on the reduction hot path.

This module supplies the *widen-accumulate-narrow* kernels that replace
it, selected **by dtype at call time** so callers never special-case:

``combine_into(ufunc, out, other)``
    One fused binary combine: the ufunc runs its ``float32`` loop with
    buffered input casts (``dtype=float32``) into a wide scratch, and a
    single vectorised narrowing store writes the result back.  For
    ``add`` / ``multiply`` / ``maximum`` / ``minimum`` on ``float16``
    this is **bit-identical** to NumPy's native half loop (both round
    the exact ``float32`` result to nearest-even, and 24 significand
    bits make the double rounding innocuous for 11-bit operands) while
    skipping the per-element scalar conversions.

:class:`WidenedAccumulator`
    The multi-segment form: widen the accumulator to ``float32`` once,
    fold any number of narrow segments in at vector speed (one fused
    cast-and-combine per segment), and narrow once at the end.  This is
    where the big wins live — a tree reduce combining ``P - 1`` child
    contributions pays one narrowing instead of ``P - 1``.  Accumulating
    in ``float32`` is *more* accurate than stepwise ``float16``
    arithmetic but not bit-identical to it; use it only where no
    bit-agreement contract with a stepwise peer exists (reductions with
    a single owner, local accumulation), never to replace one side of a
    symmetric exchange.

``bf16_widen`` / ``bf16_narrow``
    The bfloat16 wire transforms (``uint16`` bit patterns, round to
    nearest even) as pure vectorised integer/float32 ops — shared by
    :class:`repro.compression.codecs.Bf16Codec` and anything else that
    touches bf16 payloads, so the bit layout is defined exactly once.

``accumulate_wire(acc, wire)``
    Decode-and-add of a narrow float wire payload into a wide dense
    accumulator as one fused ufunc call (``acc += wire`` with the cast
    buffered inside the loop) — the per-hop kernel of the compressed
    ring (:func:`repro.collectives.sync.allreduce_compressed_ring`),
    replacing decode-to-float64-then-add.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

__all__ = [
    "WidenedAccumulator",
    "accumulate_wire",
    "accumulator",
    "bf16_narrow",
    "bf16_widen",
    "combine_into",
    "reduce_segments",
]

#: Narrow float dtypes and the accumulation width their kernels use.
_WIDEN = {np.dtype(np.float16): np.dtype(np.float32)}


def combine_into(ufunc: np.ufunc, out: np.ndarray, other) -> bool:
    """Vectorised ``out <- ufunc(out, other)`` for narrow ``out`` dtypes.

    Returns ``True`` when a kernel handled the combine, ``False`` when
    the caller should fall back to the plain in-place ufunc (wide
    dtypes, mismatched operand dtypes, non-ufunc operators).  The
    result is bit-identical to the fallback: the ufunc's ``float32``
    loop computes the exact single-op result NumPy's scalar half loop
    would, and the narrowing store rounds it to nearest-even once.
    """
    wide = _WIDEN.get(out.dtype)
    if wide is None or not isinstance(ufunc, np.ufunc):
        return False
    other = np.asarray(other)
    if other.dtype != out.dtype:
        # Mixed-width combines keep the fallback's promotion semantics
        # (e.g. float64 contributions must not be squeezed through
        # float32 on the way into a float16 buffer).
        return False
    scratch = np.empty(out.shape, dtype=wide)
    ufunc(out, other, out=scratch, dtype=wide)
    np.copyto(out, scratch, casting="same_kind")
    return True


class WidenedAccumulator:
    """Accumulate narrow-dtype segments at wide-dtype vector speed.

    Widen ``out`` once, :meth:`combine` any number of equally-shaped
    narrow segments (each a single fused cast-and-combine ufunc call),
    then :meth:`finish` to narrow the wide accumulator back into
    ``out`` with one vectorised store.

    The accumulation runs entirely in the wide dtype, so the result is
    at least as accurate as — but not bit-identical to — the stepwise
    narrow arithmetic it replaces.
    """

    def __init__(self, ufunc: np.ufunc, out: np.ndarray, wide: np.dtype) -> None:
        self._ufunc = ufunc
        self._out = out
        self._acc = np.empty(out.shape, dtype=wide)
        np.copyto(self._acc, out, casting="safe")

    def combine(self, other) -> None:
        """Fold one narrow segment into the wide accumulator in place.

        A contribution *wider* than the accumulator dtype (e.g. a
        float64 array folded into a float16 reduction) is combined at
        its own precision instead — squeezing it through float32 would
        double-round where the stepwise fallback computes wide and
        narrows once.
        """
        other = np.asarray(other)
        if other.dtype.itemsize > self._acc.dtype.itemsize:
            self._acc = self._ufunc(self._acc, other)
        else:
            self._ufunc(self._acc, other, out=self._acc)

    def finish(self) -> np.ndarray:
        """Narrow the accumulator back into ``out`` and return it."""
        np.copyto(self._out, self._acc, casting="same_kind")
        return self._out



def accumulator(ufunc, out: np.ndarray) -> Optional[WidenedAccumulator]:
    """A :class:`WidenedAccumulator` over ``out``, or ``None``.

    ``None`` means no vectorised path applies (wide dtype, or the
    operator has no ufunc) and the caller should combine stepwise.
    """
    if not isinstance(ufunc, np.ufunc) or not isinstance(out, np.ndarray):
        return None
    wide = _WIDEN.get(out.dtype)
    if wide is None:
        return None
    return WidenedAccumulator(ufunc, out, wide)


def reduce_segments(ufunc: np.ufunc, out: np.ndarray, segments: Sequence) -> np.ndarray:
    """Fold ``segments`` into ``out`` in order: ``out <- f(...f(out, s0)...)``.

    Dispatches by dtype at call time: narrow ``out`` buffers take the
    widen-accumulate-narrow path (one narrowing total), wide ones the
    plain in-place ufunc per segment.  This is the kernel the transport
    benchmark (``benchmarks/bench_backend_transports.py``) measures.
    """
    acc = accumulator(ufunc, out)
    if acc is None:
        for segment in segments:
            ufunc(out, segment, out=out)
        return out
    for segment in segments:
        acc.combine(segment)
    return acc.finish()


# ---------------------------------------------------------------------------
# bfloat16 wire transforms
# ---------------------------------------------------------------------------
def bf16_widen(bits, dtype=np.float32) -> np.ndarray:
    """Decode bfloat16 bit patterns (``uint16``) to a float array.

    Pure vectorised integer ops: the 16 wire bits are the upper half of
    the IEEE float32 representation, so widening is a shift and a view.
    """
    bits = np.asarray(bits, dtype=np.uint16)
    wide = bits.astype(np.uint32) << np.uint32(16)
    values = wide.view(np.float32)
    if np.dtype(dtype) == np.float32:
        return values
    return values.astype(dtype)


def bf16_narrow(values) -> np.ndarray:
    """Encode a float array as bfloat16 bit patterns (``uint16``, RNE).

    Round-to-nearest-even before truncating the low mantissa bits —
    the wire format of :class:`repro.compression.codecs.Bf16Codec`.
    """
    bits = np.asarray(values, dtype=np.float32).view(np.uint32)
    rounding = ((bits >> np.uint32(16)) & np.uint32(1)) + np.uint32(0x7FFF)
    return ((bits + rounding) >> np.uint32(16)).astype(np.uint16)


# ---------------------------------------------------------------------------
# compressed-ring hop kernel
# ---------------------------------------------------------------------------
def accumulate_wire(acc: np.ndarray, wire: np.ndarray) -> bool:
    """``acc += wire`` with the widening cast fused into the add loop.

    ``acc`` is a wide dense accumulator (a float64 slice of the ring's
    working buffer), ``wire`` a narrow *float* wire payload (fp16).  The
    fused mixed-dtype ufunc call skips the intermediate wide copy that
    ``acc += wire.astype(acc.dtype)`` would allocate and fill.  Returns
    ``False`` (caller decodes via the codec) for non-float wire dtypes,
    whose payloads are bit patterns rather than values.
    """
    wire = np.asarray(wire)
    if not np.issubdtype(wire.dtype, np.floating):
        return False
    np.add(acc, wire, out=acc)
    return True
