"""Neural-network layers (forward + backward, vectorised NumPy)."""

from repro.nn.layers.base import Layer
from repro.nn.layers.dense import Dense
from repro.nn.layers.activations import ReLU, Sigmoid, Tanh, LeakyReLU
from repro.nn.layers.conv import Conv2D
from repro.nn.layers.pooling import MaxPool2D, GlobalAvgPool2D
from repro.nn.layers.reshape import Flatten
from repro.nn.layers.dropout import Dropout
from repro.nn.layers.residual import ResidualBlock

__all__ = [
    "Layer",
    "Dense",
    "ReLU",
    "Sigmoid",
    "Tanh",
    "LeakyReLU",
    "Conv2D",
    "MaxPool2D",
    "GlobalAvgPool2D",
    "Flatten",
    "Dropout",
    "ResidualBlock",
]
