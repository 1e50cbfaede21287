"""Adam with decoupled weight decay."""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, NumericError


class Adam:
    """Adam with bias correction and decoupled weight decay.

    Weight decay shrinks the parameter directly (p -= lr * wd * p) before
    the moment-based update, keeping the decay independent of the adaptive
    scaling.  ``params`` holds tensors or ``(name, tensor)`` pairs; the
    names label the errors of `step`.

    The optimizer keeps one flat buffer each for the parameter values,
    their gradients and the two moments, and points every ``p.data`` at
    its slice of the first, so that `step` is one update over each
    buffer.  ``m[k]`` and ``v[k]`` are the moments of block k, as views.
    """

    def __init__(self, params, lr=1e-5, betas=(0.9, 0.999), eps=1e-8,
                 weight_decay=1e-3):
        named = [p if isinstance(p, tuple) else (f"parameter {k}", p)
                 for k, p in enumerate(params)]
        self.names = [name for name, _ in named]
        self.params = [p for _, p in named]
        if not self.params:
            raise ConfigError("optimizer needs at least one parameter")
        for what, value in (("learning rate", lr),
                            ("weight decay", weight_decay)):
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{what} must be finite and >= 0, got {value}")
        if not (all(0 <= beta < 1 for beta in betas) and eps > 0):
            raise ConfigError("Adam needs betas in [0, 1) and eps > 0, got "
                              f"betas={betas}, eps={eps}")
        self.lr = float(lr)
        self.beta1, self.beta2 = betas
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self.step_count = 0
        self._values = np.concatenate([p.data.ravel() for p in self.params])
        self._grads = np.zeros_like(self._values)
        self._m = np.zeros_like(self._values)
        self._v = np.zeros_like(self._values)
        for p, values in zip(self.params, self._blocks(self._values)):
            p.data = values
        self._grad_blocks = self._blocks(self._grads)
        self.m = self._blocks(self._m)
        self.v = self._blocks(self._v)

    def _blocks(self, flat):
        """Views of `flat` shaped as the parameters, in order."""
        ends = np.cumsum([p.data.size for p in self.params])
        return [block.reshape(p.data.shape) for p, block
                in zip(self.params, np.split(flat, ends[:-1]))]

    def zero_grad(self):
        """Zero the flat gradient buffer and hand each parameter its view."""
        self._grads.fill(0.0)
        for p, g in zip(self.params, self._grad_blocks):
            p.grad = g

    def step(self):
        """One update of every parameter, or of none: a missing, misshapen
        or non-finite gradient, or a non-finite parameter, raises first.
        A gradient set on a parameter in place of its view is copied into
        the buffer."""
        for p, mine in zip(self.params, self._grad_blocks):
            if p.grad is not mine:
                if p.grad is None or p.grad.shape != mine.shape:
                    self._raise_first_fault()
                mine[...] = p.grad
        if not (np.isfinite(self._grads).all()
                and np.isfinite(self._values).all()):
            self._raise_first_fault()
        self.step_count += 1
        t = self.step_count
        p, g, m, v = self._values, self._grads, self._m, self._v
        if self.weight_decay:
            p -= self.lr * self.weight_decay * p
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * g * g
        m_hat = m / (1.0 - self.beta1 ** t)
        v_hat = v / (1.0 - self.beta2 ** t)
        p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def _raise_first_fault(self):
        """Raise for the first block with a missing, misshapen or
        non-finite gradient or a non-finite value."""
        for name, p in zip(self.names, self.params):
            g = p.grad
            if g is None:
                raise ConfigError(f"{name} has no gradient; run backward first")
            if g.shape != p.data.shape:
                raise ConfigError(
                    f"{name}: gradient shape {g.shape} does not match "
                    f"parameter shape {p.data.shape}"
                )
            for what, values in (("gradient", g), ("value", p.data)):
                if not np.isfinite(values).all():
                    raise NumericError(f"non-finite {what} in {name}")
