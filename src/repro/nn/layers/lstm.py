"""Long short-term memory layers.

The UCF101 case study in the paper trains a 2,048-wide single-layer LSTM
over per-frame features extracted by Inception v3; the computational cost
of a batch is proportional to the number of frames, which is the source of
its inherent load imbalance (Section 2.1).  These layers provide the same
structure: an :class:`LSTMCell` for a single time step and an
:class:`LSTM` that unrolls over variable-length sequences with masking and
supports full backpropagation through time.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.nn import initializers
from repro.nn.module import Module
from repro.utils.rng import SeedLike, seeded_rng


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


class LSTMCell(Module):
    """A single LSTM step.

    Gate layout follows the usual convention: the concatenated projection
    produces ``[input, forget, cell(candidate), output]`` pre-activations.

    Parameters
    ----------
    input_dim:
        Size of the per-step input feature vector.
    hidden_dim:
        Size of the hidden and cell states.
    forget_bias:
        Constant added to the forget-gate pre-activation at initialisation
        (the usual +1 trick stabilising early training).
    """

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int,
        forget_bias: float = 1.0,
        seed: SeedLike = None,
    ) -> None:
        super().__init__()
        if input_dim < 1 or hidden_dim < 1:
            raise ValueError(
                f"input_dim and hidden_dim must be positive, "
                f"got {input_dim} and {hidden_dim}"
            )
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        rng = seeded_rng(seed)
        self.Wx = self.add_parameter(
            "Wx",
            initializers.xavier_uniform(
                (input_dim, 4 * hidden_dim), input_dim, hidden_dim, seed=rng
            ),
        )
        self.Wh = self.add_parameter(
            "Wh", initializers.orthogonal((hidden_dim, 4 * hidden_dim), seed=rng)
        )
        bias = np.zeros(4 * hidden_dim)
        bias[hidden_dim : 2 * hidden_dim] = forget_bias
        self.b = self.add_parameter("b", bias)
        self._cache = None

    def forward(
        self,
        x: np.ndarray,
        state: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One step: returns ``(h_next, c_next)``."""
        x = np.asarray(x, dtype=np.float64)
        batch = x.shape[0]
        if state is None:
            h_prev = np.zeros((batch, self.hidden_dim))
            c_prev = np.zeros((batch, self.hidden_dim))
        else:
            h_prev, c_prev = state
        z = x @ self.Wx.data + h_prev @ self.Wh.data + self.b.data
        H = self.hidden_dim
        i = _sigmoid(z[:, :H])
        f = _sigmoid(z[:, H : 2 * H])
        g = np.tanh(z[:, 2 * H : 3 * H])
        o = _sigmoid(z[:, 3 * H :])
        c_next = f * c_prev + i * g
        h_next = o * np.tanh(c_next)
        self._cache = (x, h_prev, c_prev, i, f, g, o, c_next) if self.training else None
        return h_next, c_next

    def backward(
        self, grad_h: np.ndarray, grad_c: Optional[np.ndarray] = None
    ) -> Tuple[Optional[np.ndarray], np.ndarray, np.ndarray]:
        """Backward through one step.

        Parameters
        ----------
        grad_h:
            Gradient with respect to ``h_next``.
        grad_c:
            Gradient with respect to ``c_next`` flowing in from the next
            time step (``None`` for the last step).

        Returns
        -------
        (grad_x, grad_h_prev, grad_c_prev); ``grad_x`` is ``None`` when
        ``needs_input_grad`` is false.
        """
        if self._cache is None:
            raise RuntimeError("LSTMCell.backward called before forward")
        x, h_prev, c_prev, i, f, g, o, c_next = self._cache
        H = self.hidden_dim
        grad_h = np.asarray(grad_h, dtype=np.float64)
        if grad_c is None:
            grad_c = np.zeros_like(c_next)
        tanh_c = np.tanh(c_next)
        do = grad_h * tanh_c
        dc = grad_c + grad_h * o * (1.0 - tanh_c**2)
        di = dc * g
        df = dc * c_prev
        dg = dc * i
        dc_prev = dc * f
        dz = np.concatenate(
            [
                di * i * (1.0 - i),
                df * f * (1.0 - f),
                dg * (1.0 - g**2),
                do * o * (1.0 - o),
            ],
            axis=1,
        )
        self.Wx.accumulate(np.matmul, x.T, dz)
        self.Wh.accumulate(np.matmul, h_prev.T, dz)
        self.b.accumulate(np.sum, dz, axis=0)
        grad_x = dz @ self.Wx.data.T if self.needs_input_grad else None
        grad_h_prev = dz @ self.Wh.data.T
        return grad_x, grad_h_prev, dc_prev


class LSTM(Module):
    """Unrolled LSTM over (possibly variable-length) sequences.

    Input shape: ``(batch, time, input_dim)`` plus an optional ``lengths``
    vector.  Time steps at or beyond a sequence's length are masked: the
    hidden and cell states carry over unchanged, so the final state of
    every sequence equals its state at its own last valid step — exactly
    the "take the output at the last frame" semantics of the paper's video
    classifier, while still allowing rectangular batches.

    ``return_sequences=False`` (default) returns the final hidden state
    ``(batch, hidden_dim)``; ``True`` returns all hidden states
    ``(batch, time, hidden_dim)``.
    """

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int,
        return_sequences: bool = False,
        seed: SeedLike = None,
    ) -> None:
        super().__init__()
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.return_sequences = return_sequences
        self.cell = LSTMCell(input_dim, hidden_dim, seed=seed)
        self._cache = None

    def _entry_modules(self) -> Tuple[Module, ...]:
        # Every time step's ``x`` is a slice of the layer's input.
        return (self.cell,)

    def forward(
        self, x: np.ndarray, lengths: Optional[np.ndarray] = None
    ) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3 or x.shape[2] != self.input_dim:
            raise ValueError(
                f"LSTM expected input (B, T, {self.input_dim}), got {x.shape}"
            )
        batch, time, _ = x.shape
        if lengths is None:
            lengths = np.full(batch, time, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        if lengths.shape != (batch,):
            raise ValueError(f"lengths must have shape ({batch},), got {lengths.shape}")
        if np.any(lengths < 1) or np.any(lengths > time):
            raise ValueError(
                f"sequence lengths must be in [1, {time}], got {lengths.tolist()}"
            )

        h = np.zeros((batch, self.hidden_dim))
        c = np.zeros((batch, self.hidden_dim))
        step_caches: List = []
        hs = np.zeros((batch, time, self.hidden_dim))
        for t in range(time):
            mask = (t < lengths).astype(np.float64)[:, None]
            h_new, c_new = self.cell.forward(x[:, t, :], (h, c))
            cell_cache = self.cell._cache
            h = mask * h_new + (1.0 - mask) * h
            c = mask * c_new + (1.0 - mask) * c
            hs[:, t, :] = h
            if self.training:
                step_caches.append((cell_cache, mask))
        self._cache = (step_caches, x.shape, lengths) if self.training else None
        if self.return_sequences:
            return hs
        return h

    def backward(self, grad_output: np.ndarray) -> Optional[np.ndarray]:
        if self._cache is None:
            raise RuntimeError("LSTM.backward called before forward")
        step_caches, input_shape, lengths = self._cache
        batch, time, _ = input_shape
        grad_output = np.asarray(grad_output, dtype=np.float64)

        if self.return_sequences:
            if grad_output.shape != (batch, time, self.hidden_dim):
                raise ValueError(
                    f"gradient shape {grad_output.shape} does not match "
                    f"{(batch, time, self.hidden_dim)} for return_sequences=True"
                )
            grad_hs = grad_output
        else:
            if grad_output.shape != (batch, self.hidden_dim):
                raise ValueError(
                    f"gradient shape {grad_output.shape} does not match "
                    f"{(batch, self.hidden_dim)} for return_sequences=False"
                )
            grad_hs = None

        grad_x = np.zeros(input_shape) if self.needs_input_grad else None
        grad_h = np.zeros((batch, self.hidden_dim))
        grad_c = np.zeros((batch, self.hidden_dim))
        if grad_hs is None:
            # The final state is the state at each sequence's last valid
            # step; the carried-over masking below routes the gradient to
            # the right time step automatically, so we can seed it at the
            # last unrolled step.
            grad_h = grad_output.copy()

        for t in reversed(range(time)):
            if grad_hs is not None:
                grad_h = grad_h + grad_hs[:, t, :]
            cell_cache, mask = step_caches[t]
            # Masked sequences carried their state through unchanged, so
            # only the masked-in part of the gradient flows into the cell.
            gh_cell = grad_h * mask
            gc_cell = grad_c * mask
            self.cell._cache = cell_cache
            gx, gh_prev, gc_prev = self.cell.backward(gh_cell, gc_cell)
            if grad_x is not None:
                grad_x[:, t, :] = gx
            # Carry the masked-out portion straight through to t-1.
            grad_h = gh_prev + grad_h * (1.0 - mask)
            grad_c = gc_prev + grad_c * (1.0 - mask)
        return grad_x
