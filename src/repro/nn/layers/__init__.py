"""Neural-network layers with explicit forward/backward passes."""

from repro.nn.layers.container import Sequential, Residual
from repro.nn.layers.linear import Dense
from repro.nn.layers.activations import ReLU
from repro.nn.layers.conv import Conv2D
from repro.nn.layers.norm import BatchNorm
from repro.nn.layers.pooling import GlobalAvgPool2D
from repro.nn.layers.dropout import Dropout
from repro.nn.layers.lstm import LSTM, LSTMCell

__all__ = [
    "Sequential",
    "Residual",
    "Dense",
    "ReLU",
    "Conv2D",
    "BatchNorm",
    "GlobalAvgPool2D",
    "Dropout",
    "LSTM",
    "LSTMCell",
]
