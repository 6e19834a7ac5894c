"""First-order parameter updates: Adam over a fixed parameter list. The
optimizer alone keeps the row-path state (see `Optimizer`)."""

from __future__ import annotations

import math

import numpy as np

from .autodiff import Tensor, all_finite, checked
from .errors import NumericsError

BETA1, BETA2 = 0.9, 0.999  # decay rates of the first and second moments
EPS = 1e-8
# A parameter updates only its reached rows while they are fewer than this share
# of its rows. Gathering and scattering them costs more than the dense passes
# they save from about 0.4 on, both for a 5000x32 and a 300x16 table.
ROW_SHARE = 1 / 3


class Optimizer:
    """Adam update over a fixed parameter list, applied whole or not at all.

    Every gradient is checked before any parameter moves. Parameters whose
    gradient is absent or exactly zero are skipped entirely, so a step with
    zero gradients is a no-op regardless of accumulated moment state.

    Then every stepping parameter's new moments and value are computed
    in the tape's error state (`autodiff.checked`), and only once all are
    computed are they written, with the reached-rows masks and
    `step_count`. A step that would make a NaN or Inf raises NumericsError
    and leaves every parameter, moment, mask and `step_count` as it was.

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
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            g = p.grad if p.grad_rows is None else p.grad[p.grad_rows]
            if not all_finite(g):
                raise NumericsError("NaN/Inf gradient; step aborted")
            if g.any():
                plan.append((p, m, v))
        t = self.step_count + 1
        c1, c2 = 1.0 - BETA1 ** t, 1.0 - BETA2 ** t
        # compute every new moment and value before writing any
        new = []
        with checked("Adam step overflows; step aborted"):
            for p, m, v in plan:
                w, g, (rows, mask) = p.data, p.grad, self._reach(p)
                if rows is not None:  # gather the reached rows
                    w, m, v, g = (x.take(rows, axis=0) for x in (w, m, v, g))
                m = m * BETA1 + g * (1.0 - BETA1)
                v = v * BETA2 + (g * (1.0 - BETA2)) * g
                w = w - ((m / c1) * self.lr) / (np.sqrt(v / c2) + EPS)
                new.append((rows, mask, m, v, w))
        for (p, m, v), (rows, mask, *values) in zip(plan, new):
            for whole, part in zip((m, v, p.data), values):
                whole[... if rows is None else rows] = part
            self._reached.pop(p, None)
            if mask is not None:
                self._reached[p] = mask
        self.step_count = t

    def _reach(self, p: Tensor) -> tuple[np.ndarray | None, np.ndarray | None]:
        """The sorted rows `p` steps and its reached-rows mask after this
        step, which marks the rows `p.grad` can be nonzero on in a copy of
        the live mask; (None, None) once `p` takes the dense path."""
        mask = self._reached.get(p)
        if mask is None:
            return None, None
        mask = mask.copy()
        mask[slice(None) if p.grad_rows is None else p.grad_rows] = True
        reached = np.flatnonzero(mask)
        if len(reached) < ROW_SHARE * len(mask):
            return reached, mask
        return None, None
