"""2-D convolution implemented with im2col.

Inputs use the ``(batch, channels, height, width)`` layout.  The layer is
deliberately straightforward — im2col + a single matrix multiplication —
which is fast enough for the small ResNet variants used by the
reproduction while keeping the backward pass easy to verify numerically.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.nn import initializers
from repro.nn.module import Module
from repro.utils.rng import SeedLike


def im2col(
    x: np.ndarray, kernel: int, stride: int, padding: int
) -> Tuple[np.ndarray, int, int]:
    """Unfold sliding windows of ``x`` into columns.

    Returns ``(cols, out_h, out_w)`` where ``cols`` has shape
    ``(batch * out_h * out_w, channels * kernel * kernel)``.
    """
    batch, channels, height, width = x.shape
    out_h = (height + 2 * padding - kernel) // stride + 1
    out_w = (width + 2 * padding - kernel) // stride + 1
    if out_h < 1 or out_w < 1:
        raise ValueError(
            f"convolution output would be empty for input {x.shape}, "
            f"kernel={kernel}, stride={stride}, padding={padding}"
        )
    padded = np.pad(
        x, ((0, 0), (0, 0), (padding, padding), (padding, padding)), mode="constant"
    )
    cols = np.empty((batch, channels, kernel, kernel, out_h, out_w), dtype=x.dtype)
    for i in range(kernel):
        i_end = i + stride * out_h
        for j in range(kernel):
            j_end = j + stride * out_w
            cols[:, :, i, j, :, :] = padded[:, :, i:i_end:stride, j:j_end:stride]
    cols = cols.transpose(0, 4, 5, 1, 2, 3).reshape(
        batch * out_h * out_w, channels * kernel * kernel
    )
    return cols, out_h, out_w


def col2im(
    cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int,
    out_h: int,
    out_w: int,
) -> np.ndarray:
    """Fold columns back into an image, accumulating overlapping windows."""
    batch, channels, height, width = input_shape
    padded = np.zeros(
        (batch, channels, height + 2 * padding, width + 2 * padding), dtype=cols.dtype
    )
    cols6 = cols.reshape(batch, out_h, out_w, channels, kernel, kernel).transpose(
        0, 3, 4, 5, 1, 2
    )
    for i in range(kernel):
        i_end = i + stride * out_h
        for j in range(kernel):
            j_end = j + stride * out_w
            padded[:, :, i:i_end:stride, j:j_end:stride] += cols6[:, :, i, j, :, :]
    if padding:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


class Conv2D(Module):
    """2-D convolution layer.

    Parameters
    ----------
    in_channels, out_channels:
        Channel counts.
    kernel_size:
        Square kernel edge length.
    stride, padding:
        Stride and zero padding applied symmetrically.
    bias:
        Whether to add a per-output-channel bias.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 3,
        stride: int = 1,
        padding: int = 1,
        bias: bool = True,
        seed: SeedLike = None,
    ) -> None:
        super().__init__()
        if kernel_size < 1 or stride < 1 or padding < 0:
            raise ValueError(
                f"need kernel_size >= 1, stride >= 1 and padding >= 0, "
                f"got {kernel_size}, {stride} and {padding}"
            )
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.use_bias = bias
        fan_in = in_channels * kernel_size * kernel_size
        self.W = self.add_parameter(
            "W",
            initializers.he_normal(
                (out_channels, in_channels, kernel_size, kernel_size), fan_in, seed=seed
            ),
        )
        if bias:
            self.b = self.add_parameter("b", initializers.zeros((out_channels,)))
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv2D expected input (B, {self.in_channels}, H, W), got {x.shape}"
            )
        cols, out_h, out_w = im2col(x, self.kernel_size, self.stride, self.padding)
        w2d = self.W.data.reshape(self.out_channels, -1)
        out = cols @ w2d.T
        if self.use_bias:
            out = out + self.b.data
        batch = x.shape[0]
        out = out.reshape(batch, out_h, out_w, self.out_channels).transpose(0, 3, 1, 2)
        self._cache = (x.shape, cols, out_h, out_w) if self.training else None
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray | None:
        if self._cache is None:
            raise RuntimeError("Conv2D.backward called before forward")
        input_shape, cols, out_h, out_w = self._cache
        batch = input_shape[0]
        g = np.asarray(grad_output, dtype=np.float64)
        g2d = g.transpose(0, 2, 3, 1).reshape(batch * out_h * out_w, self.out_channels)
        self.W.accumulate(np.matmul, g2d.T, cols, shape=(self.out_channels, -1))
        if self.use_bias:
            self.b.accumulate(np.sum, g2d, axis=0)
        if not self.needs_input_grad:
            return None
        grad_cols = g2d @ self.W.data.reshape(self.out_channels, -1)
        return col2im(
            grad_cols,
            input_shape,
            self.kernel_size,
            self.stride,
            self.padding,
            out_h,
            out_w,
        )
