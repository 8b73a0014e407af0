"""Flattening parameters and gradients to a single vector and back.

Distributed data-parallel SGD reduces the gradient of *every* parameter in
one (or a few fused) allreduce operations; the partial collectives of this
reproduction likewise operate on one flat ``float64`` vector per step.
These helpers define a stable parameter ordering (sorted hierarchical
names), pack/unpack the vectors and provide the parameter count reported
in Table 1 of the paper.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.nn.module import Module, Parameter


def _ordered_named_parameters(module: Module) -> List[Tuple[str, Parameter]]:
    named = sorted(module.named_parameters(), key=lambda kv: kv[0])
    # Sorted, so a duplicate name sits next to its twin.
    dupes = sorted({a for (a, _), (b, _) in zip(named, named[1:]) if a == b})
    if dupes:
        raise ValueError(f"duplicate parameter names: {dupes}")
    return named


def parameter_count(module: Module) -> int:
    """Number of scalar trainable parameters (Table 1's Parameters column)."""
    return module.num_parameters()


def _flat_pieces(module: Module, flat: np.ndarray) -> Iterator[Tuple[str, Parameter, np.ndarray]]:
    """``(name, parameter, its window of flat in its shape)`` in stable order."""
    flat = np.asarray(flat, dtype=np.float64).reshape(-1)
    named = _ordered_named_parameters(module)
    total = sum(p.size for _, p in named)
    if flat.size != total:
        raise ValueError(
            f"flat vector has {flat.size} elements but the module has {total} parameters"
        )
    offset = 0
    for name, param in named:
        yield name, param, flat[offset : offset + param.size].reshape(param.data.shape)
        offset += param.size


def _flatten(module: Module, attr: str, out: Optional[np.ndarray]) -> np.ndarray:
    if out is None:
        out = np.empty(module.num_parameters())
    elif out.dtype != np.float64 or out.ndim != 1 or not out.flags.c_contiguous:
        # Anything else and a piece below would be a copy, filled in vain.
        raise ValueError(
            f"out must be a contiguous float64 vector, got {out.dtype} of shape {out.shape}"
        )
    for _, param, piece in _flat_pieces(module, out):
        np.copyto(piece, getattr(param, attr))
    return out


def flatten_parameters(module: Module, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Concatenate all parameters into one 1-D vector (stable order).

    ``out`` recycles a vector from an earlier call (same module) in place
    of a fresh allocation — every step of a training loop, say.
    """
    return _flatten(module, "data", out)


def flatten_gradients(module: Module, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Concatenate all parameter gradients into one 1-D vector (``out`` as above)."""
    return _flatten(module, "grad", out)


def unflatten_parameters(module: Module, flat: np.ndarray) -> Dict[str, np.ndarray]:
    """Split a flat vector back into per-parameter arrays (no assignment)."""
    return {name: piece for name, _, piece in _flat_pieces(module, flat)}


def assign_flat_parameters(module: Module, flat: np.ndarray) -> None:
    """Overwrite the module's parameters from a flat vector (model sync)."""
    for _, param, piece in _flat_pieces(module, flat):
        param.data[...] = piece


def assign_flat_gradients(module: Module, flat: np.ndarray) -> None:
    """Overwrite the module's parameter gradients from a flat vector.

    Used after the distributed gradient exchange: the (partial) allreduce
    returns one flat averaged-gradient vector which is scattered back into
    ``param.grad`` before the optimizer step.
    """
    for _, param, piece in _flat_pieces(module, flat):
        param.grad[...] = piece
