"""Parameterized dense layers built on the autograd core."""

from __future__ import annotations

import math

import numpy as np

from .autograd import Tensor, affine, as_tensor
from .errors import ShapeMismatchError


def _default_rng(rng):
    if rng is None:
        return np.random.default_rng(0)
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    return rng


class LinearLayer:
    """Affine map y = x W^T + b with He-style uniform fan-in init."""

    def __init__(self, in_dim: int, out_dim: int, rng=None):
        if in_dim < 1 or out_dim < 1:
            raise ShapeMismatchError(
                f"layer dims must be positive, got {in_dim}x{out_dim}"
            )
        rng = _default_rng(rng)
        limit = math.sqrt(6.0 / in_dim)
        self.weight = Tensor(rng.uniform(-limit, limit, size=(out_dim, in_dim)))
        self.bias = Tensor(np.zeros(out_dim))

    @property
    def in_dim(self) -> int:
        return self.weight.data.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weight.data.shape[0]

    def named_parameters(self):
        return [("weight", self.weight), ("bias", self.bias)]

    def parameters(self):
        return [p for _, p in self.named_parameters()]


def linear_forward(layer: LinearLayer, x) -> Tensor:
    """The layer over the last axis of a matrix or of a batch of them."""
    x = as_tensor(x)
    if x.data.ndim not in (2, 3) or x.data.shape[-1] != layer.in_dim:
        raise ShapeMismatchError(
            f"input of shape {x.shape} does not match layer "
            f"({layer.out_dim} x {layer.in_dim})"
        )
    return affine(x, layer.weight, layer.bias)


class Mlp:
    """Stack of linear layers, run (by `pair_relation_sum`) with a
    rectifier between consecutive layers and none after the last."""

    def __init__(self, dims, rng=None):
        if len(dims) < 2:
            raise ShapeMismatchError("an MLP needs at least one layer")
        rng = _default_rng(rng)
        self.layers = [
            LinearLayer(dims[k], dims[k + 1], rng) for k in range(len(dims) - 1)
        ]

    def named_parameters(self):
        return [(f"{k}.{name}", p) for k, layer in enumerate(self.layers)
                for name, p in layer.named_parameters()]

    def parameters(self):
        return [p for _, p in self.named_parameters()]

