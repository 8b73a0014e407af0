"""Composite modules: sequential chains and residual blocks."""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.nn.module import Module
from repro.obs import recorder as _obs


class Sequential(Module):
    """Chains sub-modules; backward runs them in reverse order."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self._layer_names: List[str] = []
        for i, layer in enumerate(layers):
            name = f"layer{i}"
            self.add_module(name, layer)
            self._layer_names.append(name)

    @property
    def layers(self) -> List[Module]:
        return [getattr(self, name) for name in self._layer_names]

    def append(self, layer: Module) -> "Sequential":
        name = f"layer{len(self._layer_names)}"
        self.add_module(name, layer)
        self._layer_names.append(name)
        return self

    def _entry_modules(self) -> List[Module]:
        """The leading layers up to and including the first with parameters.

        A parameter-free layer whose input gradient is unread needs no output
        gradient either, so the walk continues through it; the first layer
        that has parameters still needs its output gradient, and ends it.
        """
        entry: List[Module] = []
        for layer in self.layers:
            entry.append(layer)
            if layer.parameters():
                break
        return entry

    def forward(self, x: np.ndarray) -> np.ndarray:
        for name, layer in zip(self._layer_names, self.layers):
            with _obs.span("layer-fwd", "nn", layer=name, kind=type(layer).__name__):
                x = layer(x)
        return x

    def backward(self, grad_output: np.ndarray) -> Optional[np.ndarray]:
        for name, layer in zip(reversed(self._layer_names), reversed(self.layers)):
            with _obs.span("layer-bwd", "nn", layer=name, kind=type(layer).__name__):
                grad_output = layer.backward(grad_output)
            if grad_output is None:
                # Only an entry layer returns None, and every layer before
                # it is parameter-free (see _entry_modules): nothing is left.
                break
        return grad_output

    def __len__(self) -> int:
        return len(self._layer_names)


class Residual(Module):
    """A residual block ``y = f(x) + shortcut(x)`` (Fig. 5 of the paper).

    Parameters
    ----------
    body:
        The residual function ``f``.
    shortcut:
        Optional projection applied to ``x`` on the skip path (used when
        the body changes the number of channels or the spatial size);
        identity when omitted.
    """

    def __init__(self, body: Module, shortcut: Module | None = None) -> None:
        super().__init__()
        self.body = body
        self.has_shortcut = shortcut is not None
        if shortcut is not None:
            self.shortcut = shortcut

    def forward(self, x: np.ndarray) -> np.ndarray:
        main = self.body(x)
        skip = self.shortcut(x) if self.has_shortcut else x
        if main.shape != skip.shape:
            raise ValueError(
                f"residual branch shapes differ: body {main.shape} vs skip {skip.shape}"
            )
        return main + skip

    def _entry_modules(self) -> List[Module]:
        return [self.body, self.shortcut] if self.has_shortcut else [self.body]

    def backward(self, grad_output: np.ndarray) -> Optional[np.ndarray]:
        grad_main = self.body.backward(grad_output)
        grad_skip = (
            self.shortcut.backward(grad_output) if self.has_shortcut else grad_output
        )
        if not self.needs_input_grad:
            return None
        return grad_main + grad_skip
