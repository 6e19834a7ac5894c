"""First-order parameter updates: Adam over a fixed parameter list."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, all_finite
from .errors import NumericsError

BETA1, BETA2 = 0.9, 0.999  # decay rates of the first and second moments
EPS = 1e-8


class Optimizer:
    """Adam update over a fixed parameter list.

    Parameters whose gradient is absent or exactly zero are skipped
    entirely, so a step with zero gradients is a no-op regardless of
    accumulated moment state. The moments and parameters are updated in
    place, through two scratch buffers the size of the largest parameter
    that every parameter views in its own shape.
    """

    def __init__(self, params: list[Tensor], lr: float = 1e-3):
        if lr <= 0.0:
            raise ValueError("learning rate must be positive")
        self.params = list(params)
        self.lr = lr
        self.step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        size = max((p.data.size for p in self.params), default=0)
        flat = np.empty(size), np.empty(size)
        self._scratch = [tuple(f[:p.data.size].reshape(p.data.shape) for f in flat)
                         for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        """Apply one update from the accumulated gradients."""
        for p in self.params:
            if p.grad is not None and not all_finite(p.grad):
                raise NumericsError("NaN/Inf gradient; step aborted")
        self.step_count += 1
        t = self.step_count
        c1, c2 = 1.0 - BETA1 ** t, 1.0 - BETA2 ** t
        for p, m, v, (a, b) in zip(self.params, self._m, self._v, self._scratch):
            g = p.grad
            if g is None or not g.any():
                continue
            # m = b1*m + (1-b1)*g and v = b2*v + ((1-b2)*g)*g
            m *= BETA1
            m += np.multiply(g, 1.0 - BETA1, out=a)
            v *= BETA2
            np.multiply(g, 1.0 - BETA2, out=a)
            v += np.multiply(a, g, out=a)
            # p -= (lr*(m/c1)) / (sqrt(v/c2) + eps)
            np.sqrt(np.divide(v, c2, out=a), out=a)
            a += EPS
            np.multiply(np.divide(m, c1, out=b), self.lr, out=b)
            p.data -= np.divide(b, a, out=b)
