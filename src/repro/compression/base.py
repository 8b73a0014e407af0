"""Gradient-compression codecs: the interface and the registry.

The paper's core bet is that distributed SGD tolerates a *bounded
perturbation* of the gradient exchange — partial collectives perturb
**which** gradients are combined; lossy compression perturbs **how many
bits** of each gradient cross the wire.  This module is the seam between
the two: a :class:`GradientCodec` turns a dense ``float64`` fusion
buffer into a compact wire representation and back, and the gradient
exchanges (:mod:`repro.training.exchange`) apply the codec per fusion
bucket around their collectives.

Codecs register themselves in a name-keyed registry
(:func:`register_codec`), mirroring the comm-backend registry idiom
(:mod:`repro.comm.backend`); the built-ins live in
:mod:`repro.compression.codecs`:

``"none"``
    Identity codec (dense ``float64`` wire), the uncompressed baseline.
``"fp16"`` / ``"bf16"``
    Half-precision quantization (IEEE binary16 / bfloat16 truncation).
``"int8"``
    8-bit linear quantization with one shared scale per fusion bucket.
``"topk"``
    Magnitude sparsification: only the ``k`` largest-magnitude elements
    travel; the dropped mass is preserved by error feedback.

Reduce-closed vs. decode-reduce-encode
--------------------------------------
A codec is **reduce-closed** iff its encode is ``astype(wire_dtype)``
and its decode is ``astype(float64)`` — its payload *is* the gradient's
values in a narrower dtype.  ``none`` (``float64``) and ``fp16`` are, and
a test holds every registered reduce-closed codec to it bit for bit.
Such a codec is simply a wire dtype: the ring collectives of
:mod:`repro.collectives.sync` send every hop cast to it and combine in
``float64``, and a partial collective can run natively at that width
(``float16 + float16`` is a valid ``float16`` payload).
``int8`` (per-rank scales differ), ``bf16`` (``uint16`` bit patterns)
and ``topk`` (per-rank support sets differ) are **not** reduce-closed:
summing their payloads elementwise is meaningless, so every hop of a
combining collective would have to *decode, reduce densely, and
re-encode*.  The synchronous exchange implements that path as a single
allgather of encoded payloads followed by a dense local reduction — the
wire still carries the compact encoding, and decode-reduce happens once
instead of per hop.  (The partial collectives' background reduction
operates on a persistent dense buffer, so for non-reduce-closed codecs
the partial exchange applies the codec as a local
quantize-and-compensate transform and the background wire stays dense;
see :class:`repro.training.exchange.PartialExchange`.)

Error feedback
--------------
Lossy codecs drop information every step; *error feedback* (1-bit SGD,
Seide et al.; EF-SGD, Karimireddy et al.) keeps the dropped part as a
per-parameter residual that is added back into the next step's gradient
before encoding, so the quantization error accumulates into the model
instead of being lost.  :class:`BucketCompressor` owns those residuals
per fusion bucket; for ``topk`` error feedback is on by default (without
it, sparsification systematically discards the same small coordinates
and convergence stalls).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Optional, Tuple, Type, Union

import numpy as np

#: Dense element width of the substrate (gradients are ``float64``).
DENSE_BYTES_PER_ELEMENT = 8


@dataclass(frozen=True)
class EncodedGradient:
    """One fusion bucket's gradient in a codec's wire representation."""

    #: Name of the codec that produced the payload.
    codec: str
    #: Dense element count the payload decodes back to.
    num_elements: int
    #: The wire payload: a single ndarray for reduce-closed codecs (so a
    #: collective can combine it directly), or a small picklable tuple of
    #: ndarrays/scalars otherwise.  Always safe to send through any comm
    #: backend (the process transport pickles non-array payloads).
    payload: Any
    #: Encoded wire size in bytes (what the transport actually carries).
    nbytes: int

    def with_payload(self, payload: Any) -> "EncodedGradient":
        """Same encoding metadata around a new payload (e.g. post-reduce)."""
        return replace(self, payload=payload)


class GradientCodec(ABC):
    """A lossless or lossy gradient wire format.

    Subclasses set the class attributes and implement
    :meth:`encode` / :meth:`decode`; everything else (registry
    resolution, config plumbing, CLI flags, cost modelling) is shared.

    Parameters
    ----------
    error_feedback:
        Keep per-parameter residuals of the encoding error and re-inject
        them the following step (see :class:`BucketCompressor`).
        ``None`` uses the codec's :attr:`default_error_feedback`.
    """

    #: Registry key of the codec.
    name: str = "abstract"
    #: Whether ``decode(encode(x)) == x`` bit-exactly.
    lossless: bool = False
    #: Whether encoded payloads can be combined elementwise by a
    #: reduction (see module docstring).
    reduce_closed: bool = False
    #: Whether error feedback is enabled when the caller does not say.
    default_error_feedback: bool = False
    #: Element dtype of a fixed-width payload — for reduce-closed codecs
    #: the dtype :meth:`encode` casts to; ``None`` for composite payloads.
    wire_dtype: Optional[np.dtype] = None
    #: Rough per-dense-byte costs of the transform, used by the simtime
    #: cost model (:func:`cost_model`).  Calibrated against ``numpy``
    #: ``astype``/``argpartition`` throughput on commodity CPUs; they
    #: only need the right order of magnitude to steer the autotuner.
    encode_seconds_per_byte: float = 0.0
    decode_seconds_per_byte: float = 0.0

    def __init__(self, *, error_feedback: Optional[bool] = None, **options: Any) -> None:
        if options:
            raise ValueError(
                f"codec {self.name!r} does not accept options {sorted(options)}"
            )
        self.error_feedback = (
            self.default_error_feedback if error_feedback is None else bool(error_feedback)
        )
        if self.error_feedback and self.lossless:
            raise ValueError(
                f"codec {self.name!r} is lossless; error feedback is meaningless"
            )

    # ------------------------------------------------------------ transform
    @abstractmethod
    def encode(self, dense: np.ndarray) -> EncodedGradient:
        """Encode a dense 1-D ``float64`` gradient buffer for the wire."""

    @abstractmethod
    def decode(self, encoded: EncodedGradient) -> np.ndarray:
        """Decode a wire payload back to a dense 1-D ``float64`` buffer."""

    # ------------------------------------------------------------ modelling
    @property
    def wire_bytes_per_element(self) -> float:
        """Average encoded bytes per dense element (may be fractional)."""
        probe = 1 << 12
        return self.wire_bytes(probe) / probe

    def wire_bytes(self, num_elements: int) -> int:
        """Modelled encoded size of a ``num_elements`` bucket, in bytes.

        The default assumes a fixed-width payload of :attr:`wire_dtype`;
        codecs with composite payloads override it.
        """
        if self.wire_dtype is None:
            raise NotImplementedError(
                f"codec {self.name!r} must override wire_bytes()"
            )
        return int(num_elements) * np.dtype(self.wire_dtype).itemsize

    def cost_model(self):
        """The codec as a :class:`repro.simtime.collective_model.CompressionModel`."""
        from repro.simtime.collective_model import CompressionModel

        return CompressionModel(
            name=self.name,
            wire_scale=self.wire_bytes_per_element / DENSE_BYTES_PER_ELEMENT,
            encode_seconds_per_byte=self.encode_seconds_per_byte,
            decode_seconds_per_byte=self.decode_seconds_per_byte,
            reduce_closed=self.reduce_closed,
        )

    def describe(self) -> str:
        """One-line description used in experiment reports."""
        ef = ", error-feedback" if self.error_feedback else ""
        return f"{self.name} ({self.wire_bytes_per_element:g} B/elem{ef})"

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(name={self.name!r})"

    # ------------------------------------------------------------ helpers
    @staticmethod
    def _as_dense(dense: np.ndarray) -> np.ndarray:
        arr = np.asarray(dense, dtype=np.float64).reshape(-1)
        if arr.size < 1:
            raise ValueError(
                f"cannot encode an empty gradient buffer (shape {np.shape(dense)})"
            )
        return arr

    def _check(self, encoded: EncodedGradient) -> EncodedGradient:
        if encoded.codec != self.name:
            raise ValueError(
                f"payload was encoded by {encoded.codec!r}, not by {self.name!r}"
            )
        return encoded


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
_REGISTRY: Dict[str, Type[GradientCodec]] = {}


def register_codec(name: str) -> Callable[[Type[GradientCodec]], Type[GradientCodec]]:
    """Class decorator adding a :class:`GradientCodec` to the registry.

    Unlike comm backends (stateless singletons), codecs are instantiated
    per use: a codec instance carries configuration (``topk`` ratio,
    error-feedback flag) and, through :class:`BucketCompressor`, per-rank
    residual state — so the registry stores classes, and
    :func:`get_codec` builds a fresh configured instance.
    """

    def decorator(cls: Type[GradientCodec]) -> Type[GradientCodec]:
        if not cls.name or cls.name == "abstract":
            cls.name = name
        _REGISTRY[name] = cls
        return cls

    return decorator


def _load_builtins() -> None:
    if "none" not in _REGISTRY:
        import repro.compression.codecs  # noqa: F401 - registers built-ins


def available_codecs() -> Tuple[str, ...]:
    """Names of every registered codec (built-ins included)."""
    _load_builtins()
    return tuple(sorted(_REGISTRY))


def _coerce_option(value: str) -> Any:
    """Parse one ``key=value`` option value from a codec spec string."""
    lowered = value.lower()
    if lowered in ("true", "yes", "on"):
        return True
    if lowered in ("false", "no", "off"):
        return False
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        return value


def parse_codec_spec(spec: str) -> Tuple[str, Dict[str, Any]]:
    """Split ``"name"`` or ``"name:key=value,key=value"`` into parts.

    The spec form is what the CLI's ``--compression`` flag accepts, e.g.
    ``--compression topk:ratio=0.05,error_feedback=off``.
    """
    if not isinstance(spec, str) or not spec.strip():
        raise ValueError(f"codec spec must be a non-empty string, got {spec!r}")
    name, _, tail = spec.partition(":")
    name = name.strip()
    options: Dict[str, Any] = {}
    if tail.strip():
        for item in tail.split(","):
            key, sep, value = item.partition("=")
            if not sep or not key.strip() or not value.strip():
                raise ValueError(
                    f"malformed codec option {item!r} in spec {spec!r}; "
                    f"expected key=value"
                )
            options[key.strip()] = _coerce_option(value.strip())
    return name, options


def get_codec(
    spec: Union[str, GradientCodec, None] = None, **options: Any
) -> GradientCodec:
    """Resolve a codec spec to a configured :class:`GradientCodec` instance.

    ``spec`` may be a registered name (``"fp16"``), a spec string with
    inline options (``"topk:ratio=0.05"``), an already-built codec
    (returned as-is; keyword options are then rejected), or ``None``
    (resolves to the ``"none"`` codec).  Keyword ``options`` override
    inline spec options.
    """
    if isinstance(spec, GradientCodec):
        if options:
            raise ValueError(
                f"cannot pass options {options!r} together with a codec instance "
                f"({spec.name!r})"
            )
        return spec
    name, inline = parse_codec_spec(spec) if spec is not None else ("none", {})
    inline.update(options)
    _load_builtins()
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown compression codec {name!r}; available: {list(available_codecs())}"
        ) from None
    try:
        return cls(**inline)
    except TypeError as exc:
        raise ValueError(f"invalid options for codec {name!r}: {exc}") from None


def resolve_codec(spec: Union[str, GradientCodec, None] = None) -> Optional[GradientCodec]:
    """Resolve a spec for a wire path: ``None`` means *uncompressed*.

    The exchanges, the runner and the experiment harnesses all need the
    same normalisation — ``None`` and ``"none"`` both select the plain
    dense path, anything else a configured codec.
    """
    if spec is None:
        return None
    codec = get_codec(spec)
    return None if codec.name == "none" else codec


# ---------------------------------------------------------------------------
# error feedback
# ---------------------------------------------------------------------------
class BucketCompressor:
    """Applies one codec per fusion bucket, with error-feedback residuals.

    One instance per rank per exchange.  For codecs with
    ``error_feedback`` enabled, each bucket keeps a per-parameter
    residual ``r_b``; step ``t`` encodes the *compensated* gradient
    ``g_b + r_b`` and the new residual is whatever the encoding dropped::

        c_b   = g_b + r_b
        e_b   = encode(c_b)
        r_b'  = c_b - decode(e_b)

    so ``decode(e_b) + r_b' == c_b`` exactly — no gradient mass is ever
    lost, it is merely delayed (re-injected the following step).
    """

    def __init__(self, codec: GradientCodec) -> None:
        self.codec = codec
        self._residuals: Dict[int, np.ndarray] = {}
        #: Total encoded bytes this rank produced (wire-byte accounting).
        self.bytes_encoded = 0

    def encode_bucket(self, bucket_index: int, dense: np.ndarray) -> EncodedGradient:
        """Encode one bucket, compensating with and updating its residual."""
        dense = np.asarray(dense, dtype=np.float64).reshape(-1)
        if self.codec.error_feedback:
            residual = self._residuals.get(bucket_index)
            compensated = dense if residual is None else dense + residual
            encoded = self.codec.encode(compensated)
            self._residuals[bucket_index] = compensated - self.codec.decode(encoded)
        else:
            encoded = self.codec.encode(dense)
        self.bytes_encoded += encoded.nbytes
        return encoded

    def decode_bucket(self, encoded: EncodedGradient) -> np.ndarray:
        return self.codec.decode(encoded)

    def compensate_bucket(self, bucket_index: int, dense: np.ndarray) -> np.ndarray:
        """Error-feedback compensation without materialising a payload.

        Used by wire paths that encode internally (a reduce-closed codec
        passed to :func:`repro.collectives.sync.allreduce`): the
        compensated dense gradient is returned for the collective to
        cast hop by hop, and the residual is updated through a local
        round-trip — elementwise codecs quantize a chunk exactly as they
        quantize the whole buffer, so the accounting matches what the
        wire will carry.
        """
        dense = np.asarray(dense, dtype=np.float64).reshape(-1)
        if not self.codec.error_feedback:
            return dense
        residual = self._residuals.get(bucket_index)
        compensated = dense if residual is None else dense + residual
        self._residuals[bucket_index] = compensated - self.codec.decode(
            self.codec.encode(compensated)
        )
        return compensated

    def residual_norm(self) -> float:
        """L2 norm of all pending residuals (0 without error feedback)."""
        if not self._residuals:
            return 0.0
        return float(
            np.sqrt(sum(float(np.dot(r, r)) for r in self._residuals.values()))
        )
