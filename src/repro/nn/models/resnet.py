"""Residual networks (ResNet-32 / ResNet-50 scaled to CPU size).

The paper trains ResNet-32 on CIFAR-10 (467,194 parameters) and ResNet-50
on ImageNet (25.6M parameters).  Training those exact models on a CPU
inside the reproduction's time budget is not feasible, so
:func:`resnet_cifar` and :func:`resnet_imagenet_lite` construct
structurally faithful but narrower/shallower residual networks: the same
Conv-BN-ReLU residual blocks with identity and projection shortcuts
(Fig. 5 of the paper shows exactly such a block), three stages with
spatial downsampling, global average pooling and a linear classifier.
The depth and width are configurable so tests can instantiate tiny
versions while examples use larger ones.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.layers import (
    BatchNorm,
    Conv2D,
    Dense,
    Flatten,
    GlobalAvgPool2D,
    ReLU,
    Residual,
    Sequential,
)
from repro.nn.module import Module
from repro.utils.rng import SeedLike, seeded_rng


def _conv_bn(in_ch: int, out_ch: int, stride: int, seed, kernel: int = 3) -> Sequential:
    return Sequential(
        Conv2D(in_ch, out_ch, kernel_size=kernel, stride=stride, padding=kernel // 2,
               bias=False, seed=seed),
        BatchNorm(out_ch),
    )


def _basic_block(in_ch: int, out_ch: int, stride: int, seed) -> Sequential:
    """A basic residual block: Conv-BN-ReLU-Conv-BN plus a shortcut."""
    body = Sequential(
        Conv2D(in_ch, out_ch, kernel_size=3, stride=stride, padding=1, bias=False, seed=seed),
        BatchNorm(out_ch),
        ReLU(),
        Conv2D(out_ch, out_ch, kernel_size=3, stride=1, padding=1, bias=False, seed=seed),
        BatchNorm(out_ch),
    )
    if stride != 1 or in_ch != out_ch:
        shortcut = _conv_bn(in_ch, out_ch, stride, seed, kernel=1)
    else:
        shortcut = None
    return Sequential(Residual(body, shortcut), ReLU())


class ResNetClassifier(Module):
    """A configurable residual network for small images.

    Parameters
    ----------
    in_channels:
        Number of input image channels.
    num_classes:
        Output classes.
    stage_channels:
        Channel width of each stage.
    blocks_per_stage:
        Number of residual blocks in each stage.  The first block of every
        stage after the first downsamples spatially with stride 2.
    """

    def __init__(
        self,
        in_channels: int = 3,
        num_classes: int = 10,
        stage_channels: Sequence[int] = (8, 16, 32),
        blocks_per_stage: int = 1,
        seed: SeedLike = None,
    ) -> None:
        super().__init__()
        if blocks_per_stage < 1:
            raise ValueError("blocks_per_stage must be >= 1")
        rng = seeded_rng(seed)
        layers: List[Module] = [
            Conv2D(in_channels, stage_channels[0], kernel_size=3, stride=1, padding=1,
                   bias=False, seed=rng),
            BatchNorm(stage_channels[0]),
            ReLU(),
        ]
        prev = stage_channels[0]
        for stage_index, width in enumerate(stage_channels):
            for block_index in range(blocks_per_stage):
                stride = 2 if (stage_index > 0 and block_index == 0) else 1
                layers.append(_basic_block(prev, width, stride, rng))
                prev = width
        layers.append(GlobalAvgPool2D())
        layers.append(Dense(prev, num_classes, seed=rng))
        self.net = Sequential(*layers)
        self.num_classes = num_classes

    def _entry_modules(self) -> Tuple[Module, ...]:
        return (self.net,)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if isinstance(x, dict):
            x = x["x"]
        return self.net(np.asarray(x, dtype=np.float64))

    def backward(self, grad_output: np.ndarray) -> Optional[np.ndarray]:
        return self.net.backward(grad_output)


def resnet_cifar(
    num_classes: int = 10,
    width: int = 8,
    blocks_per_stage: int = 1,
    in_channels: int = 3,
    seed: SeedLike = None,
) -> ResNetClassifier:
    """ResNet-32-style network for CIFAR-like 3-channel images.

    ``blocks_per_stage=5`` with ``width=16`` recovers the true ResNet-32
    layer structure (3 stages x 5 blocks x 2 convs + stem + classifier =
    32 weighted layers); the defaults give a much smaller network suitable
    for CPU-scale experiments.
    """
    return ResNetClassifier(
        in_channels=in_channels,
        num_classes=num_classes,
        stage_channels=(width, 2 * width, 4 * width),
        blocks_per_stage=blocks_per_stage,
        seed=seed,
    )


def resnet_imagenet_lite(
    num_classes: int = 100,
    width: int = 8,
    blocks_per_stage: int = 1,
    in_channels: int = 3,
    seed: SeedLike = None,
) -> ResNetClassifier:
    """ResNet-50 stand-in: four stages, wider channels, projection shortcuts."""
    return ResNetClassifier(
        in_channels=in_channels,
        num_classes=num_classes,
        stage_channels=(width, 2 * width, 4 * width, 8 * width),
        blocks_per_stage=blocks_per_stage,
        seed=seed,
    )
