"""LogGP-style network cost model.

The model follows the classic LogGP parametrisation: a message of ``n``
bytes between two ranks costs ``alpha + n * beta`` seconds, where
``alpha`` captures latency plus per-message overhead and ``beta`` is the
inverse bandwidth.  Reduction arithmetic contributes ``gamma`` seconds per
reduced byte.  The defaults approximate the Cray Aries interconnect of Piz
Daint used in the paper (a few microseconds of latency, ~10 GB/s per-node
effective bandwidth), which is sufficient to reproduce the *shape* of the
latency figures; absolute values are not the target.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields


@dataclass(frozen=True)
class LogGPParams:
    """Network and reduction cost parameters (seconds and seconds/byte).

    Parameters are validated on construction: every field must be a
    finite, non-negative number (NaN would silently poison every cost
    the model produces downstream).
    """

    #: Per-message latency + overhead (seconds).
    alpha: float = 2.0e-6
    #: Inverse bandwidth (seconds per byte).
    beta: float = 1.0e-10
    #: Reduction compute cost (seconds per byte of reduced data).
    gamma: float = 2.5e-11
    #: Fixed software overhead of entering a collective (seconds).
    collective_overhead: float = 5.0e-6

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Reject non-finite or negative parameters."""
        for f in fields(self):
            value = getattr(self, f.name)
            # numbers.Real admits numpy scalars (np.float32, np.int64, ...)
            # alongside the builtin int/float.
            if (
                not isinstance(value, numbers.Real)
                or not math.isfinite(value)
                or value < 0
            ):
                raise ValueError(
                    f"network parameter {f.name} must be a finite non-negative "
                    f"number, got {value!r}"
                )


#: Default parameters used by the microbenchmark and the projections.
DEFAULT_NETWORK = LogGPParams()


def message_time(nbytes: int, params: LogGPParams = DEFAULT_NETWORK) -> float:
    """Time to move one ``nbytes`` message between two ranks."""
    if nbytes < 0:
        raise ValueError(f"message size must be non-negative, got {nbytes}")
    return params.alpha + nbytes * params.beta
