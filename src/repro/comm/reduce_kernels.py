"""Vectorised reduction kernels for narrow float dtypes.

NumPy has no SIMD arithmetic loops for ``float16``: an in-place
``np.add(a, b, out=a)`` on two half-precision buffers runs an
element-at-a-time C loop that converts each operand to ``float32``,
combines, and converts back — roughly an order of magnitude slower per
byte than the vectorised ``float32`` loop.  Gradients increasingly
travel at narrow widths (the ``fp16`` send buffers of the compressed
partial collectives, user data handed to the generic collectives), so
that scalar loop sits directly on the reduction hot path.  (A codec's
wire dtype on the ring phases needs no kernel here: the hop adds the
narrow segment into a ``float64`` slice with one mixed-dtype ``np.add``
in :mod:`repro.collectives.sync`.)

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

``bf16_widen`` / ``bf16_narrow``
    The bfloat16 wire transforms (``uint16`` bit patterns, round to
    nearest even) as pure vectorised integer/float32 ops — shared by
    :class:`repro.compression.codecs.Bf16Codec` and anything else that
    touches bf16 payloads, so the bit layout is defined exactly once.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "bf16_narrow",
    "bf16_widen",
    "combine_into",
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

