import numpy as np
import pytest

from hrgenet.autograd import Tensor, as_tensor


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def finite_difference(loss_fn, param, h=1e-5):
    """Independent central-difference gradient for one parameter tensor."""
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


def max_rel_err(a, b, floor=1e-6):
    denom = np.maximum(np.abs(a) + np.abs(b), floor)
    return float(np.max(np.abs(a - b) / denom))


def relu(a):
    """Rectifier node that lets NaN through instead of mapping it to 0,
    for the oracles that rebuild a fused op from separate nodes.  The
    gradient mask comes from the output: ``max(a, 0) > 0`` is ``a > 0``,
    NaN included."""
    a = as_tensor(a)
    y = np.maximum(a.data, 0.0)
    out = Tensor(y, _parents=(a,))
    out._grad_fn = lambda g: a._accumulate(g * (y > 0.0), fresh=True)
    return out
