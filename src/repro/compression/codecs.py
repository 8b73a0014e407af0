"""Built-in gradient codecs.

Each codec documents its wire format, whether it is reduce-closed (see
:mod:`repro.compression.base`), and its error bound.  All encoders take
a dense 1-D ``float64`` buffer (one fusion bucket) and all decoders
return one.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.comm import reduce_kernels
from repro.compression.base import (
    DENSE_BYTES_PER_ELEMENT,
    EncodedGradient,
    GradientCodec,
    register_codec,
)

#: Book-keeping bytes of a composite payload (per-bucket scalar header).
_SCALAR_HEADER_BYTES = 8


@register_codec("none")
class NoneCodec(GradientCodec):
    """Identity codec: the dense ``float64`` buffer is the wire format."""

    name = "none"
    lossless = True
    reduce_closed = True
    wire_dtype = np.dtype(np.float64)

    def encode(self, dense: np.ndarray) -> EncodedGradient:
        arr = self._as_dense(dense)
        return EncodedGradient("none", arr.size, arr, arr.nbytes)

    def decode(self, encoded: EncodedGradient) -> np.ndarray:
        self._check(encoded)
        return np.asarray(encoded.payload, dtype=np.float64).reshape(-1)


@register_codec("fp16")
class Fp16Codec(GradientCodec):
    """IEEE binary16 quantization — the only lossy *reduce-closed* codec.

    Encode is ``astype(float16)`` and decode ``astype(float64)``, so
    ``float16`` is a wire dtype of the ring collectives: 4x fewer wire
    bytes than the ``float64`` substrate at every hop, with the combines
    in ``float64``.  Relative error is bounded by the 10-bit
    mantissa (~2^-11 ulp); magnitudes above 65504 overflow to ``inf``
    and magnitudes below ~6e-8 flush to zero — gradients live comfortably
    inside that range, and error feedback (off by default) can be enabled
    to recapture the rounding drift.
    """

    name = "fp16"
    reduce_closed = True
    wire_dtype = np.dtype(np.float16)
    encode_seconds_per_byte = 2.7e-10
    decode_seconds_per_byte = 1.0e-10

    def encode(self, dense: np.ndarray) -> EncodedGradient:
        arr = self._as_dense(dense)
        payload = arr.astype(np.float16)
        return EncodedGradient("fp16", arr.size, payload, payload.nbytes)

    def decode(self, encoded: EncodedGradient) -> np.ndarray:
        self._check(encoded)
        return np.asarray(encoded.payload).astype(np.float64).reshape(-1)


@register_codec("bf16")
class Bf16Codec(GradientCodec):
    """bfloat16 truncation (8-bit mantissa, full float32 exponent range).

    NumPy has no native bfloat16, so the wire payload is the upper 16
    bits of the round-to-nearest-even float32 representation, carried as
    ``uint16``.  Because ``uint16`` bit patterns cannot be summed, the
    codec is *not* reduce-closed and travels through the
    decode-reduce-encode (allgather) path.  Relative error ~2^-9; no
    overflow for any float32-representable gradient (unlike fp16).
    """

    name = "bf16"
    reduce_closed = False
    wire_dtype = np.dtype(np.uint16)
    encode_seconds_per_byte = 2.9e-10
    decode_seconds_per_byte = 1.5e-10

    def encode(self, dense: np.ndarray) -> EncodedGradient:
        arr = self._as_dense(dense)
        # Round to nearest even before truncating the low mantissa bits
        # (the shared wire transform of repro.comm.reduce_kernels).
        payload = reduce_kernels.bf16_narrow(arr)
        return EncodedGradient("bf16", arr.size, payload, payload.nbytes)

    def decode(self, encoded: EncodedGradient) -> np.ndarray:
        self._check(encoded)
        return reduce_kernels.bf16_widen(encoded.payload, dtype=np.float64).reshape(-1)


@register_codec("int8")
class Int8Codec(GradientCodec):
    """8-bit linear quantization with one symmetric scale per bucket.

    Wire format: ``(int8 codes, float64 scale)`` with
    ``scale = max|g| / 127``; decoding is ``codes * scale``.  Per-rank
    scales differ, so the codec is not reduce-closed.  Absolute error is
    bounded by ``scale / 2`` per element; enable error feedback
    (``int8:error_feedback=on``) to keep the rounding drift out of
    long trainings.
    """

    name = "int8"
    reduce_closed = False
    encode_seconds_per_byte = 2.8e-10
    decode_seconds_per_byte = 1.5e-10

    def encode(self, dense: np.ndarray) -> EncodedGradient:
        arr = self._as_dense(dense)
        peak = float(np.max(np.abs(arr)))
        scale = peak / 127.0 if peak > 0 else 1.0
        codes = np.clip(np.rint(arr / scale), -127, 127).astype(np.int8)
        # One flat uint8 payload (scale header + codes): a single ndarray
        # crosses the process transport as a zero-copy frame, where a
        # (codes, scale) tuple would be pickled on every allgather hop.
        payload = np.empty(codes.nbytes + _SCALAR_HEADER_BYTES, dtype=np.uint8)
        payload[:_SCALAR_HEADER_BYTES].view(np.float64)[0] = scale
        payload[_SCALAR_HEADER_BYTES:] = codes.view(np.uint8)
        return EncodedGradient("int8", arr.size, payload, payload.nbytes)

    @staticmethod
    def split_payload(payload: np.ndarray):
        """``(int8 codes, scale)`` view of the flat wire payload."""
        payload = np.ascontiguousarray(np.asarray(payload, dtype=np.uint8))
        scale = float(payload[:_SCALAR_HEADER_BYTES].view(np.float64)[0])
        return payload[_SCALAR_HEADER_BYTES:].view(np.int8), scale

    def decode(self, encoded: EncodedGradient) -> np.ndarray:
        self._check(encoded)
        codes, scale = self.split_payload(encoded.payload)
        return codes.astype(np.float64) * scale

    def wire_bytes(self, num_elements: int) -> int:
        return int(num_elements) + _SCALAR_HEADER_BYTES


@register_codec("topk")
class TopKCodec(GradientCodec):
    """Magnitude sparsification: only the top-``k`` elements travel.

    Wire format: ``(int32/int64 indices, float32 values)`` of the ``k``
    largest-magnitude elements (``k = ceil(ratio * n)`` unless ``k`` is
    given explicitly); decoding scatters them into a dense zero buffer.
    Per-rank supports differ, so the codec is not reduce-closed.

    Error feedback is **on by default**: plain top-k would silently drop
    the same small coordinates step after step and convergence stalls;
    with per-parameter residuals the dropped mass is re-injected the
    following step, which is what makes sparsified SGD converge to
    seed-comparable loss (EF-SGD).  Disable only for ablations
    (``topk:error_feedback=off``).

    Options
    -------
    ratio:
        Fraction of elements kept per bucket (default 0.01).
    k:
        Explicit element count per bucket (overrides ``ratio``).
    """

    name = "topk"
    reduce_closed = False
    default_error_feedback = True
    encode_seconds_per_byte = 4.0e-10  # argpartition over the dense buffer
    decode_seconds_per_byte = 1.0e-10

    def __init__(
        self,
        *,
        ratio: float = 0.01,
        k: Optional[int] = None,
        error_feedback: Optional[bool] = None,
        **options: Any,
    ) -> None:
        super().__init__(error_feedback=error_feedback, **options)
        if k is not None:
            if int(k) < 1:
                raise ValueError(f"topk k must be >= 1, got {k}")
            self.k = int(k)
            self.ratio = None
        else:
            if not 0.0 < float(ratio) <= 1.0:
                raise ValueError(f"topk ratio must be in (0, 1], got {ratio}")
            self.k = None
            self.ratio = float(ratio)

    def _bucket_k(self, num_elements: int) -> int:
        if self.k is not None:
            return min(self.k, num_elements)
        return max(1, int(np.ceil(self.ratio * num_elements)))

    def encode(self, dense: np.ndarray) -> EncodedGradient:
        arr = self._as_dense(dense)
        k = self._bucket_k(arr.size)
        if k >= arr.size:
            indices = np.arange(arr.size)
        else:
            indices = np.argpartition(np.abs(arr), arr.size - k)[arr.size - k:]
        indices = np.sort(indices)  # deterministic order for a given input
        idx = indices.astype(np.int32 if arr.size <= np.iinfo(np.int32).max else np.int64)
        values = arr[indices].astype(np.float32)
        # One flat uint8 payload (indices then values): a single ndarray
        # crosses the process transport as a zero-copy frame instead of a
        # pickled tuple.  k and the index width are recovered from the
        # payload length and the bucket's element count.
        payload = np.empty(idx.nbytes + values.nbytes, dtype=np.uint8)
        payload[: idx.nbytes] = idx.view(np.uint8)
        payload[idx.nbytes:] = values.view(np.uint8)
        return EncodedGradient("topk", arr.size, payload, payload.nbytes)

    @staticmethod
    def split_payload(payload: np.ndarray, num_elements: int):
        """``(indices, float32 values)`` view of the flat wire payload."""
        payload = np.ascontiguousarray(np.asarray(payload, dtype=np.uint8))
        idx_itemsize = 4 if num_elements <= np.iinfo(np.int32).max else 8
        k = payload.size // (idx_itemsize + 4)
        idx_dtype = np.int32 if idx_itemsize == 4 else np.int64
        indices = payload[: k * idx_itemsize].view(idx_dtype)
        values = payload[k * idx_itemsize:].view(np.float32)
        return indices, values

    def decode(self, encoded: EncodedGradient) -> np.ndarray:
        self._check(encoded)
        idx, values = self.split_payload(encoded.payload, encoded.num_elements)
        out = np.zeros(encoded.num_elements, dtype=np.float64)
        out[idx] = values.astype(np.float64)
        return out

    def wire_bytes(self, num_elements: int) -> int:
        k = self._bucket_k(int(num_elements))
        idx_bytes = 4 if num_elements <= np.iinfo(np.int32).max else 8
        return k * (idx_bytes + 4)

    def describe(self) -> str:
        keep = f"k={self.k}" if self.k is not None else f"ratio={self.ratio:g}"
        ef = "on" if self.error_feedback else "off"
        return f"topk ({keep}, error-feedback {ef})"
