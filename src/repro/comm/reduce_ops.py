"""Reduction operators for collective operations.

The operators mirror the MPI predefined reductions used by the paper's
allreduce implementations, plus ``AVG`` which is what distributed SGD
actually needs (line 6 of Algorithm 2 divides the sum by ``P``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from repro.comm import reduce_kernels


@dataclass(frozen=True)
class ReduceOp:
    """A binary, associative, commutative reduction operator.

    Attributes
    ----------
    name:
        Human-readable operator name (``"sum"``, ``"max"``, ...).
    fn:
        Element-wise binary function combining two arrays.
    identity:
        Scalar identity element (used to initialise accumulation buffers
        and as the *null contribution* of absent processes in partial
        collectives).
    ufunc:
        The numpy ufunc implementing ``fn``, when one exists; enables the
        allocation-free in-place combine of :meth:`combine_into` (a
        gradient exchange otherwise allocates a fresh buffer per received
        segment, which dominates large-message latency).
    """

    name: str
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    identity: float
    ufunc: Optional[Callable] = None

    def __reduce__(self):
        """Pickle registered operators by name.

        Operators travel between rank *processes* on the socket transport
        (inside exchange payloads and launcher results), where the
        default dataclass pickling would serialise ``fn`` — impossible
        for closures and fragile across versions.  A registered op
        round-trips to the canonical instance (``loads(dumps(SUM)) is
        SUM``); an unregistered op falls back to field-wise pickling,
        which works exactly when its ``fn``/``ufunc`` are module-level
        callables.
        """
        registered = _REGISTRY.get(self.name)
        if registered is self:
            return (get_op, (self.name,))
        return (ReduceOp, (self.name, self.fn, self.identity, self.ufunc))

    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.fn(np.asarray(a), np.asarray(b))

    def combine_into(self, out: np.ndarray, other) -> np.ndarray:
        """Combine ``other`` into ``out`` in place: ``out <- fn(out, other)``.

        Bit-identical to ``out[...] = fn(out, other)`` but without the
        intermediate allocation when the operator has a ufunc.  ``out``
        must be a *writable* array and may be a view (e.g. one pipeline
        segment of a fusion buffer).

        Narrow float dtypes dispatch — by dtype, at call time — to the
        vectorised widen-combine-narrow kernels of
        :mod:`repro.comm.reduce_kernels`: NumPy's native ``float16``
        loops convert element-at-a-time, which made reducing fp16
        payloads the slowest step of a narrow-dtype exchange.  The
        kernel result is bit-identical to the native loop.
        """
        if self.ufunc is not None and isinstance(out, np.ndarray):
            if reduce_kernels.combine_into(self.ufunc, out, other):
                return out
            return self.ufunc(out, other, out=out)
        out[...] = self.fn(out, np.asarray(other))
        return out

    def reduce_many(self, arrays) -> np.ndarray:
        """Reduce an iterable of equally-shaped arrays."""
        arrays = list(arrays)
        if not arrays:
            raise ValueError(f"cannot {self.name}-reduce an empty sequence")
        acc = np.array(arrays[0], dtype=np.float64, copy=True)
        for arr in arrays[1:]:
            acc = self.fn(acc, np.asarray(arr, dtype=np.float64))
        return acc

    def identity_like(self, shape, dtype=np.float64) -> np.ndarray:
        """Return an identity-filled array of the given shape."""
        return np.full(shape, self.identity, dtype=dtype)

    def __repr__(self) -> str:
        return f"ReduceOp({self.name})"


# The combine functions are module-level (not lambdas) so that any
# ReduceOp — registered or custom-but-named — survives a pickle
# round-trip across the process transport.
def _add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a + b


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a * b


SUM = ReduceOp("sum", _add, 0.0, ufunc=np.add)
PROD = ReduceOp("prod", _mul, 1.0, ufunc=np.multiply)
MAX = ReduceOp("max", np.maximum, -np.inf, ufunc=np.maximum)
MIN = ReduceOp("min", np.minimum, np.inf, ufunc=np.minimum)
#: Average: implemented as SUM at the transport level; callers divide by
#: the number of contributors (or by the world size for eager-SGD, which
#: treats absent contributions as zero — see Algorithm 2, line 6).
AVG = ReduceOp("avg", _add, 0.0, ufunc=np.add)

_REGISTRY: Dict[str, ReduceOp] = {
    "sum": SUM,
    "prod": PROD,
    "max": MAX,
    "min": MIN,
    "avg": AVG,
}


def get_op(op) -> ReduceOp:
    """Resolve an operator given by name or instance."""
    if isinstance(op, ReduceOp):
        return op
    try:
        return _REGISTRY[str(op).lower()]
    except KeyError:
        raise ValueError(
            f"unknown reduce op {op!r}; available: {sorted(_REGISTRY)}"
        ) from None
