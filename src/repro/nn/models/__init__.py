"""Models matching Table 1 of the paper (scaled to CPU-sized versions)."""

from repro.nn.models.mlp import HyperplaneMLP, MLPClassifier
from repro.nn.models.resnet import ResNetClassifier, resnet_cifar, resnet_imagenet_lite
from repro.nn.models.lstm_classifier import SequenceLSTMClassifier

__all__ = [
    "HyperplaneMLP",
    "MLPClassifier",
    "ResNetClassifier",
    "resnet_cifar",
    "resnet_imagenet_lite",
    "SequenceLSTMClassifier",
]
