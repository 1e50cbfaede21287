"""Affine parameter blocks, declared as rows."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .autograd import Tensor
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
