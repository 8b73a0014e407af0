"""One flat arena per model: parameters and gradients as views of two vectors.

Data-parallel SGD reduces all gradients as one flat ``float64`` vector per
step.  A module's parameters and gradients *live* in two such vectors, in a
stable order (sorted hierarchical names): each ``Parameter.data`` / ``.grad``
is a shaped view of its window; a fusion bucket or ZeRO-1 shard is a slice.
The first ``flatten_*`` / ``assign_flat_*`` call adopts a module; each later
one re-validates by identity and re-adopts (values kept, one copy of the
model) if a parameter was added or an attribute rebound — legal but slow,
so the ``param-rebind`` lint rule keeps that off the step path.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

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


def same_memory(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether ``a`` and ``b`` are the same elements in the same layout.

    ``is`` cannot say: ``allreduce(..., copy=False)`` returns a new ndarray
    over its argument's memory.  (``__array_interface__`` could, but its
    transient dict keys churn the interpreter's 2 MB interned-string table.)
    """
    same_layout = a.shape == b.shape and a.strides == b.strides and a.dtype == b.dtype
    return same_layout and np.shares_memory(a[:1], b[:1])


class _Arena:
    """The two vectors of one module and every parameter's windows of them."""

    def __init__(self, named: List[Tuple[str, Parameter]]) -> None:
        total = sum(param.size for _, param in named)
        self.data, self.grad = np.empty(total), np.empty(total)
        #: ``(parameter, its data view, its grad view)`` in flat order.
        self.windows: List[Tuple[Parameter, np.ndarray, np.ndarray]] = []
        offset = 0
        for _, param in named:
            stop = offset + param.size
            data, grad = (v[offset:stop].reshape(param.data.shape) for v in (self.data, self.grad))
            data[...], grad[...] = param.data, param.grad
            param.data, param.grad = data, grad
            self.windows.append((param, data, grad))
            offset = stop

    def holds(self, named: List[Tuple[str, Parameter]]) -> bool:
        """Whether every parameter still is a view of its window (``base``:
        a deep copy of the module has views that no longer share memory)."""
        return len(named) == len(self.windows) and all(
            param is owner and param.data is data and param._grad is grad
            and data.base is self.data
            for (_, param), (owner, data, grad) in zip(named, self.windows)
        )


def _vector(module: Module, attr: str, flat: Optional[np.ndarray] = None) -> np.ndarray:
    """The module's live ``attr`` vector; ``flat`` must match it in size."""
    named = _ordered_named_parameters(module)
    arena = getattr(module, "_arena", None)
    if arena is None or not arena.holds(named):
        arena = _Arena(named)
        object.__setattr__(module, "_arena", arena)
    if attr == "grad":
        for param, _, _ in arena.windows:
            param.grad  # materialises a gradient still pending zero
    vector = getattr(arena, attr)
    if flat is not None and flat.size != vector.size:
        raise ValueError(
            f"flat vector has {flat.size} elements but the module has "
            f"{vector.size} parameters"
        )
    return vector


def _flatten(module: Module, attr: str, out: Optional[np.ndarray]) -> np.ndarray:
    if out is None:
        return _vector(module, attr)
    if out.dtype != np.float64 or out.ndim != 1 or not out.flags.c_contiguous:
        raise ValueError(
            f"out must be a contiguous float64 vector, got {out.dtype} of shape {out.shape}"
        )
    vector = _vector(module, attr, out)
    if not same_memory(out, vector):
        np.copyto(out, vector)
    return out


def _assign(module: Module, attr: str, flat: np.ndarray) -> None:
    flat = np.asarray(flat, dtype=np.float64).reshape(-1)
    vector = _vector(module, attr, flat)
    if not same_memory(flat, vector):
        vector[...] = flat


def flatten_parameters(module: Module, out: Optional[np.ndarray] = None) -> np.ndarray:
    """All parameters as one 1-D vector (stable order): the **live** arena.

    Writes go both ways — ``.copy()`` it for a snapshot.  ``out`` fills and
    returns a caller's vector instead.
    """
    return _flatten(module, "data", out)


def flatten_gradients(module: Module, out: Optional[np.ndarray] = None) -> np.ndarray:
    """All parameter gradients as one live 1-D vector (``out`` as above)."""
    return _flatten(module, "grad", out)


def assign_flat_parameters(module: Module, flat: np.ndarray) -> None:
    """Overwrite the module's parameters from a flat vector (free when
    ``flat`` already is the arena, updated in place)."""
    _assign(module, "data", flat)


def assign_flat_gradients(module: Module, flat: np.ndarray) -> None:
    """Overwrite the module's parameter gradients from a flat vector (free
    after an exchange that reduced the arena's own vector in place)."""
    _assign(module, "grad", flat)
