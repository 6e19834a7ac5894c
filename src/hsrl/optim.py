"""First-order parameter updates: Adam over a fixed parameter list. The
optimizer alone keeps the row-path state (see `Optimizer`)."""

from __future__ import annotations

import math

import numpy as np

from .autodiff import Tensor, all_finite
from .errors import NumericsError

BETA1, BETA2 = 0.9, 0.999  # decay rates of the first and second moments
EPS = 1e-8
# A parameter updates only its reached rows while they are fewer than this share
# of its rows. Gathering and scattering them costs more than the dense passes
# they save from about 0.4 on, both for a 5000x32 and a 300x16 table.
ROW_SHARE = 1 / 3


class Optimizer:
    """Adam update over a fixed parameter list.

    Every gradient is checked before any parameter moves. Parameters whose
    gradient is absent or exactly zero are skipped entirely, so a step with
    zero gradients is a no-op regardless of accumulated moment state. The
    moments and parameters are updated in place, through two scratch
    buffers the size of the largest parameter that every parameter views
    in its own shape.

    No parameter is written a NaN or Inf: after the moments move, each new
    value is computed under raising numpy errors and written once computed,
    so an overflow raises NumericsError with that parameter and those after
    it as they were. (An Inf first moment needs a gradient whose square
    overflows, so it meets an Inf second moment: Inf/Inf, which raises.)

    Every parameter with an axis starts on the row path: it updates only
    the rows some gradient has ever reached. That is exact: a row never
    reached has m = v = g = 0, and every Adam operation leaves such a row,
    and the parameter's row, bit for bit as it was. A gradient that is one
    `embed`'s rows (`grad_rows`) reaches those rows, any other every row.
    The reached rows are gathered, take the dense path's operations in its
    order, and are scattered back. The finite check and the all-zero skip
    read only the recorded rows, where such a gradient can be nonzero.
    Once the reached rows make up `ROW_SHARE` of the parameter, it takes
    the dense path for good, which is exact as well; a parameter whose
    first gradient is dense does so at its first step.
    """

    def __init__(self, params: list[Tensor], lr: float = 1e-3):
        if not (lr > 0.0 and math.isfinite(lr)):
            raise ValueError(f"learning rate must be positive and finite, got {lr}")
        self.params = list(params)
        self.lr = lr
        self.step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        size = max((p.data.size for p in self.params), default=0)
        self._flat = np.empty(size), np.empty(size)
        self._scratch = [tuple(f[:p.data.size].reshape(p.data.shape) for f in self._flat)
                         for p in self.params]
        # parameter on the row path -> the rows any gradient has reached
        self._reached = {p: np.zeros(len(p.data), dtype=bool)
                         for p in self.params if p.data.ndim}

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        """Apply one update from the accumulated gradients."""
        # check and decide every parameter's step before any parameter moves
        plan = []
        for p, m, v, scratch in zip(self.params, self._m, self._v, self._scratch):
            if p.grad is None:
                continue
            g = p.grad if p.grad_rows is None else p.grad[p.grad_rows]
            if not all_finite(g):
                raise NumericsError("NaN/Inf gradient; step aborted")
            if g.any():
                plan.append((p, m, v, scratch))
        self.step_count += 1
        t = self.step_count
        c1, c2 = 1.0 - BETA1 ** t, 1.0 - BETA2 ** t
        staged = []
        for p, m, v, (a, b) in plan:
            w, g, rows = p.data, p.grad, self._reach(p)
            if rows is not None:  # gather the reached rows
                whole = m, v
                w, m, v, g = (x.take(rows, axis=0) for x in (w, m, v, g))
                a, b = (f[:w.size].reshape(w.shape) for f in self._flat)
            # m = b1*m + (1-b1)*g and v = b2*v + ((1-b2)*g)*g
            m *= BETA1
            m += np.multiply(g, 1.0 - BETA1, out=a)
            v *= BETA2
            np.multiply(g, 1.0 - BETA2, out=a)
            v += np.multiply(a, g, out=a)
            if rows is not None:  # and scatter them back
                whole[0][rows], whole[1][rows] = m, v
            staged.append((p.data, w, m, v, a, b, rows))
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                for data, w, m, v, a, b, rows in staged:
                    # w - (lr*(m/c1)) / (sqrt(v/c2) + eps), written once computed
                    np.sqrt(np.divide(v, c2, out=a), out=a)
                    a += EPS
                    np.multiply(np.divide(m, c1, out=b), self.lr, out=b)
                    np.subtract(w, np.divide(b, a, out=b), out=b)
                    data[... if rows is None else rows] = b
        except FloatingPointError as exc:
            raise NumericsError(f"Adam step overflows ({exc}); step aborted") from None

    def _reach(self, p: Tensor) -> np.ndarray | None:
        """Mark the rows `p.grad` can be nonzero on reached; the sorted
        reached rows, or None once `p` takes the dense path."""
        mask = self._reached.get(p)
        if mask is None:
            return None
        mask[slice(None) if p.grad_rows is None else p.grad_rows] = True
        reached = np.flatnonzero(mask)
        if len(reached) < ROW_SHARE * len(mask):
            return reached
        del self._reached[p]
        return None
