"""Finite-difference verification of analytic gradients."""

from __future__ import annotations

import numpy as np


def numeric_gradient(loss_fn, param, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar loss w.r.t. one parameter."""
    grad = np.zeros_like(param.data)
    flat = param.data.ravel()
    gflat = grad.ravel()
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + h
        up = float(loss_fn().data)
        flat[k] = orig - h
        down = float(loss_fn().data)
        flat[k] = orig
        gflat[k] = (up - down) / (2.0 * h)
    return grad


def check_gradients(loss_fn, named_params, h: float = 1e-5):
    """Compare analytic and central-difference gradients per block.

    ``loss_fn`` must run a fresh forward pass and return a scalar tensor;
    ``named_params`` is a list of (name, tensor) pairs.  Returns a dict of
    block name -> max relative error.
    """
    params = [p for _, p in named_params]
    for p in params:
        p.zero_grad()
    loss_fn().backward()
    analytic = [p.grad.copy() for p in params]
    report = {}
    for (name, param), a in zip(named_params, analytic):
        n = numeric_gradient(loss_fn, param, h)
        # A non-finite gradient gives a NaN error, which fails the check;
        # numpy need not warn about it as well.
        with np.errstate(invalid="ignore", divide="ignore"):
            denom = np.maximum(np.abs(a) + np.abs(n), 1e-6)
            report[name] = float(np.max(np.abs(a - n) / denom))
    return report

