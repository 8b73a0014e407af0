"""Base class for layers and models."""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np


class Parameter:
    """A trainable array together with its gradient accumulator.

    :meth:`zero_grad` only marks the gradient pending-zero: the first read
    of ``grad`` fills the zeros, unless :meth:`accumulate` writes its
    product there first.  The gradient equals an eagerly zeroed one under
    ``==``; a zero's sign may differ (``0.0 + -0.0`` is ``0.0``).
    """

    __slots__ = ("data", "_grad", "_zero_pending")

    def __init__(self, data: np.ndarray) -> None:
        # An owned copy: two parameters built from one array must not alias.
        self.data = np.array(data, dtype=np.float64, order="C", copy=True)
        self.grad = np.zeros_like(self.data)

    @property
    def grad(self) -> np.ndarray:
        if self._zero_pending:
            self._grad.fill(0.0)
            self._zero_pending = False
        return self._grad

    @grad.setter
    def grad(self, value: np.ndarray) -> None:
        self._grad = value
        self._zero_pending = False

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return int(self.data.size)

    def zero_grad(self) -> None:
        self._zero_pending = True

    def accumulate(self, product: Callable, *args, shape=None, **kwargs) -> None:
        """``grad += product(*args, **kwargs)`` — after :meth:`zero_grad`,
        ``product(..., out=grad)``; ``shape`` is the view ``product`` fills."""
        grad = self._grad if shape is None else self._grad.reshape(shape)
        if self._zero_pending:
            product(*args, out=grad, **kwargs)
            self._zero_pending = False
        else:
            grad += product(*args, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Parameter(shape={self.data.shape})"


class Module:
    """Base class for every layer and model.

    Subclasses register parameters with :meth:`add_parameter` and child
    modules with :meth:`add_module` (or simply by assigning them to
    attributes — assignment is intercepted), implement ``forward`` (which
    must cache whatever the backward pass needs) and ``backward`` (which
    must accumulate parameter gradients into ``param.grad`` and return the
    gradient with respect to the layer input, or ``None`` when
    ``needs_input_grad`` is false).
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "training", True)
        #: Whether anybody reads what ``backward`` returns.  Cleared only by
        #: :meth:`input_is_data`; a module that ignores it stays correct.
        object.__setattr__(self, "needs_input_grad", True)

    # ---------------------------------------------------------- registry
    def __setattr__(self, name: str, value) -> None:
        params = getattr(self, "_parameters", None)
        modules = getattr(self, "_modules", None)
        if params is None or modules is None:
            raise AttributeError(
                f"{type(self).__name__}: call super().__init__() before "
                "assigning parameters or sub-modules"
            )
        if isinstance(value, Parameter):
            params[name] = value
            modules.pop(name, None)
        elif isinstance(value, Module):
            modules[name] = value
            params.pop(name, None)
        object.__setattr__(self, name, value)

    def add_parameter(self, name: str, data: np.ndarray) -> Parameter:
        param = Parameter(data)
        setattr(self, name, param)
        return param

    def add_module(self, name: str, module: "Module") -> "Module":
        setattr(self, name, module)
        return module

    # ------------------------------------------------------------ access
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(hierarchical_name, parameter)`` pairs, depth first."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for child_name, child in self._modules.items():
            yield from child.named_parameters(prefix=f"{prefix}{child_name}/")

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield (prefix.rstrip("/"), self)
        for child_name, child in self._modules.items():
            yield from child.named_modules(prefix=f"{prefix}{child_name}/")

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def num_parameters(self) -> int:
        """Total number of scalar parameters (Table 1's "Parameters" column)."""
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------- modes
    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively.

        Affects dropout and batch-norm semantics, and whether layer
        forwards cache backward-pass state at all: in eval mode
        (``train(False)`` / :meth:`eval`) forwards keep no gradient-side
        bookkeeping — serving and evaluation pay neither the memory nor
        the extra compute — and a subsequent ``backward`` raises.
        """
        object.__setattr__(self, "training", mode)
        for child in self._modules.values():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def input_is_data(self) -> "Module":
        """Declare that this module's input is data: nobody reads its gradient.

        Said once, on the root, by whoever drops ``backward``'s result (a
        training loop).  Clears ``needs_input_grad`` on the root and, through
        :meth:`_entry_modules`, on every sub-module that is fed the root's
        input directly, so each may skip computing the gradient it would
        only hand back up.  A module object reachable by two paths is left
        alone: one of its inputs may be an activation.
        """
        paths = Counter(id(module) for _, module in self.named_modules())
        pending: List[Module] = [self]
        while pending:
            module = pending.pop()
            if paths[id(module)] == 1:
                module.needs_input_grad = False
                pending.extend(module._entry_modules())
        return self

    def _entry_modules(self) -> Iterable["Module"]:
        """The children whose input gradient is this module's input gradient
        and has no other reader — :meth:`input_is_data` descends into them."""
        return ()

    # --------------------------------------------------------- interface
    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> Optional[np.ndarray]:
        """Accumulate parameter gradients; return the gradient with respect
        to the input, or ``None`` when ``needs_input_grad`` is false."""
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        children = ", ".join(self._modules)
        return f"{type(self).__name__}({children})"
