"""Periodic model synchronisation (Section 5 of the paper).

Under severe imbalance, slow eager-SGD processes may lag by more than one
round; the receive buffer is then overwritten and replicas drift apart,
which "may result in slightly lower accuracy".  The paper removes the
drift by synchronising the models every tens of epochs; the overhead is
negligible at that frequency.  :func:`synchronize_model` performs that
synchronisation: a synchronous allreduce that averages the parameters
(and the batch-norm running statistics) across all ranks.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional

import numpy as np

from repro.comm.communicator import Communicator
from repro.collectives.sync import allreduce
from repro.nn.module import Module
from repro.nn.parameters import assign_flat_parameters, flatten_parameters


def _state_arrays(model: Module) -> List[np.ndarray]:
    """Non-trainable state arrays to average (e.g. batch-norm statistics)."""
    arrays: List[np.ndarray] = []
    for name, module in sorted(model.named_modules(), key=lambda kv: kv[0]):
        getter = getattr(module, "state_arrays", None)
        if getter is None:
            continue
        state = getter()
        for key in sorted(state):
            arrays.append(state[key])
    return arrays


def synchronize_model(
    comm: Optional[Communicator],
    model: Module,
    algorithm: str = "recursive_doubling",
) -> None:
    """Average the model parameters (and batch-norm stats) across all ranks."""
    if comm is None or comm.size == 1:
        return
    flat = flatten_parameters(model)
    state = _state_arrays(model)
    # The parameter storage itself, averaged in place, unless state rides along.
    payload = np.concatenate([flat] + [arr.reshape(-1) for arr in state]) if state else flat
    averaged = allreduce(comm, payload, algorithm=algorithm, average=True, copy=False)
    assign_flat_parameters(model, averaged[: flat.size])
    offset = flat.size
    for arr in state:
        arr[...] = averaged[offset : offset + arr.size].reshape(arr.shape)
        offset += arr.size


def model_hash(model: Module) -> str:
    """Stable hash of all parameters — used to assert replica consistency."""
    return hashlib.sha256(flatten_parameters(model)).hexdigest()[:16]
