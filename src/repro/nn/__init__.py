"""Pure-NumPy neural-network substrate.

The paper evaluates eager-SGD on TensorFlow models (an MLP, ResNet-32,
ResNet-50 and an Inception+LSTM video classifier).  This package provides
a small but complete deep-learning substrate with the same structure —
layers with explicit forward/backward passes, losses, optimizers, models —
so the distributed-training algorithms exercise a real gradient pipeline
without requiring a GPU framework.

Conventions
-----------
* Layers subclass :class:`repro.nn.module.Module` and implement
  ``forward`` / ``backward``; the backward pass stores parameter gradients
  in the module and returns the gradient with respect to its input — or
  ``None`` where nobody reads it: a training loop says so once with
  ``model.input_is_data()``, which clears ``needs_input_grad`` on the
  model's entry layers.
* Parameters and gradients are NumPy arrays addressed by hierarchical
  names (``"block1/conv/W"``); :mod:`repro.nn.parameters` flattens them to
  a single vector for allreduce and back.
* Batches are the leading dimension everywhere.
"""

from repro.nn.module import Module, Parameter
from repro.nn.layers import (
    Dense,
    ReLU,
    Conv2D,
    BatchNorm,
    GlobalAvgPool2D,
    Dropout,
    LSTM,
    LSTMCell,
    Sequential,
    Residual,
)
from repro.nn.losses import MSELoss, SoftmaxCrossEntropyLoss
from repro.nn.optim import SGD, MomentumSGD, Adam, LearningRateSchedule, ConstantLR
from repro.nn.parameters import (
    flatten_parameters,
    flatten_gradients,
    assign_flat_parameters,
    assign_flat_gradients,
)
from repro.nn.metrics import topk_accuracy

__all__ = [
    "Module",
    "Parameter",
    "Dense",
    "ReLU",
    "Conv2D",
    "BatchNorm",
    "GlobalAvgPool2D",
    "Dropout",
    "LSTM",
    "LSTMCell",
    "Sequential",
    "Residual",
    "MSELoss",
    "SoftmaxCrossEntropyLoss",
    "SGD",
    "MomentumSGD",
    "Adam",
    "LearningRateSchedule",
    "ConstantLR",
    "flatten_parameters",
    "flatten_gradients",
    "assign_flat_parameters",
    "assign_flat_gradients",
    "topk_accuracy",
]
