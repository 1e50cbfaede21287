"""Affine parameter blocks, declared as rows, and the map they run."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .autograd import Tensor, affine, as_tensor
from .errors import ShapeMismatchError


class Affine(NamedTuple):
    """The map y = x W^T + b: an ``(out, in)`` weight and an ``(out,)``
    bias."""

    weight: Tensor
    bias: Tensor


def build_affines(rows, rng):
    """Build one `Affine` per ``(name, out_dim, in_dim)`` row.

    Returns ``({name: Affine}, named)``, where ``named`` lists the blocks
    ``(name.weight, tensor)`` and ``(name.bias, tensor)`` in row order.
    Weights are He-uniform over ±sqrt(6 / in_dim), drawn from `rng` in
    row order; biases are zero.
    """
    affines, named = {}, []
    for name, out_dim, in_dim in rows:
        if in_dim < 1 or out_dim < 1:
            raise ShapeMismatchError(
                f"layer dims must be positive, got {in_dim}x{out_dim}"
            )
        limit = math.sqrt(6.0 / in_dim)
        layer = affines[name] = Affine(
            Tensor(rng.uniform(-limit, limit, size=(out_dim, in_dim))),
            Tensor(np.zeros(out_dim)))
        named += [(f"{name}.weight", layer.weight),
                  (f"{name}.bias", layer.bias)]
    return affines, named


def linear_forward(layer: Affine, x) -> Tensor:
    """The layer over the last axis of a matrix or of a batch of them."""
    x = as_tensor(x)
    out_dim, in_dim = layer.weight.data.shape
    if x.data.ndim not in (2, 3) or x.data.shape[-1] != in_dim:
        raise ShapeMismatchError(
            f"input of shape {x.shape} does not match layer "
            f"({out_dim} x {in_dim})"
        )
    return affine(x, layer.weight, layer.bias)
