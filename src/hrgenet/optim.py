"""Adam with decoupled weight decay, plus the staircase LR schedule."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError


@dataclass(frozen=True)
class LrSchedule:
    """Piecewise-constant decay: lr(e) = initial * factor ** (e // period)."""

    initial_lr: float = 1e-5
    decay_factor: float = 0.5
    decay_period: int = 20

    def __post_init__(self):
        for what, value in (("learning rate", self.initial_lr),
                            ("lr decay factor", self.decay_factor)):
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{what} must be finite and >= 0, got {value}")
        if not self.decay_period >= 1:
            raise ConfigError(
                f"lr decay period must be >= 1, got {self.decay_period}")

    def lr_at_epoch(self, epoch: int) -> float:
        if epoch < 0:
            raise ConfigError(f"epoch must be non-negative, got {epoch}")
        return self.initial_lr * self.decay_factor ** (epoch // self.decay_period)


class Adam:
    """Adam with bias correction and decoupled weight decay.

    Weight decay shrinks the parameter directly (p -= lr * wd * p) before
    the moment-based update, keeping the decay independent of the adaptive
    scaling.  ``params`` holds tensors or ``(name, tensor)`` pairs; the
    names label the errors of `step`.
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
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self):
        """One update of every parameter, or of none: a missing, misshapen
        or non-finite gradient, or a non-finite parameter, raises first."""
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
        self.step_count += 1
        t = self.step_count
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if self.weight_decay:
                p.data -= self.lr * self.weight_decay * p.data
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            m_hat = m / (1.0 - self.beta1 ** t)
            v_hat = v / (1.0 - self.beta2 ** t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
