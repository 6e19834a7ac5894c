"""First-order parameter updates: Adam over a fixed parameter list."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor
from .errors import NumericsError

BETA1, BETA2 = 0.9, 0.999  # decay rates of the first and second moments
EPS = 1e-8


class Optimizer:
    """Adam update over a fixed parameter list.

    Parameters whose gradient is absent or exactly zero are skipped
    entirely, so a step with zero gradients is a no-op regardless of
    accumulated moment state.
    """

    def __init__(self, params: list[Tensor], lr: float = 1e-3):
        if lr <= 0.0:
            raise ValueError("learning rate must be positive")
        self.params = list(params)
        self.lr = lr
        self.step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        """Apply one update from the accumulated gradients."""
        for p in self.params:
            if p.grad is not None and not np.isfinite(p.grad).all():
                raise NumericsError("NaN/Inf gradient; step aborted")
        self.step_count += 1
        t = self.step_count
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None or not g.any():
                continue
            self._m[i] = BETA1 * self._m[i] + (1.0 - BETA1) * g
            self._v[i] = BETA2 * self._v[i] + (1.0 - BETA2) * g * g
            mhat = self._m[i] / (1.0 - BETA1 ** t)
            vhat = self._v[i] / (1.0 - BETA2 ** t)
            p.data -= self.lr * mhat / (np.sqrt(vhat) + EPS)
