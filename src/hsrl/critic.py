"""Multi-level critic: per-context values fused by learnable softmax weights.

One small value head (2-layer perceptron, tanh hidden layer) scores
every context of the policy trajectory, whatever its level; raw level
weights pass through a softmax so the fused estimate is always a convex
combination. The bootstrap target is the same critic, frozen: a deep copy
of the parameters that takes no gradient, evaluated by the same function
and kept in step by Polyak averaging.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ContractError


@dataclass
class CriticConfig:
    d_model: int
    levels: int               # trajectory has levels + 1 contexts
    hidden: int = 64

    def __post_init__(self):
        if self.hidden < 1:
            raise ConfigError("critic hidden width must be >= 1")

    @property
    def n_values(self) -> int:
        return self.levels + 1


class CriticParams:
    def __init__(self, cfg: CriticConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.w1 = ad.parameter((cfg.hidden, cfg.d_model), rng, 0.1)
        self.b1 = Tensor(np.zeros(cfg.hidden), requires_grad=True)
        self.w2 = ad.parameter((cfg.hidden,), rng, 0.1)
        self.b2 = Tensor(np.zeros(()), requires_grad=True)
        self.w_raw = Tensor(np.zeros(cfg.n_values), requires_grad=True)

    def tensors(self) -> dict[str, Tensor]:
        # These names and their order are the saved checkpoint format.
        return {"head0/w1": self.w1, "head0/b1": self.b1, "head0/w2": self.w2,
                "head0/b2": self.b2, "weights": self.w_raw}


def value_of_context(params: CriticParams, context: Tensor) -> Tensor:
    hidden = ad.tanh(ad.add(ad.matmul(params.w1, context), params.b1))
    return ad.add(ad.dot(params.w2, hidden), params.b2)


def per_level_values(params: CriticParams, trajectory: list[Tensor]) -> list[Tensor]:
    if len(trajectory) != params.cfg.n_values:
        raise ContractError(f"trajectory has {len(trajectory)} contexts, expected "
                            f"{params.cfg.n_values}")
    return [value_of_context(params, c) for c in trajectory]


def aggregate(params: CriticParams, values: list[Tensor]) -> Tensor:
    """Softmax-normalize the raw weights and fuse per-level values."""
    if len(values) != params.cfg.n_values:
        raise ContractError(f"{len(values)} values, expected {params.cfg.n_values}")
    return ad.dot(ad.softmax(params.w_raw), ad.stack(values))


def fused_values(params: CriticParams, contexts: Tensor) -> Tensor:
    """`aggregate` of each of T trajectories stacked level by level into a
    (levels + 1, T, d) block, up to rounding; one level bypasses fusion."""
    if contexts.ndim != 3 or contexts.shape[0] not in (1, params.cfg.n_values):
        raise ContractError(f"context block {contexts.shape} is not (levels + 1 or 1, T, d)")
    n, t, d = contexts.shape
    hidden = ad.tanh(ad.add(ad.matmul(ad.reshape(contexts, (n * t, d)),
                                      ad.transpose(params.w1)), params.b1))
    values = ad.add(ad.matmul(hidden, params.w2), params.b2)
    if n == 1:
        return values
    return ad.matmul(ad.transpose(ad.reshape(values, (n, t))),
                     ad.softmax(params.w_raw))


def weight_snapshot(params: CriticParams) -> np.ndarray:
    with ad.no_grad():
        return ad.softmax(params.w_raw).data


class TargetCritic:
    """The critic frozen for bootstrap targets: a deep copy of the live
    parameters that takes no gradient, read by the live evaluator."""

    def __init__(self, live: CriticParams):
        self.params = copy.deepcopy(live)
        for t in self.params.tensors().values():
            t.requires_grad = False

    def _pairs(self, live: CriticParams) -> list[tuple[Tensor, Tensor]]:
        own, tensors = self.params.tensors(), live.tensors()
        if set(tensors) != set(own):
            raise ContractError("live/target critic structures differ")
        for name, t in tensors.items():
            if t.data.shape != own[name].data.shape:
                raise ContractError(f"live/target shape mismatch on {name}")
        return [(own[name], t) for name, t in tensors.items()]

    def soft_update(self, live: CriticParams, tau: float) -> None:
        for own, t in self._pairs(live):
            own.data = tau * t.data + (1.0 - tau) * own.data

    def hard_sync(self, live: CriticParams) -> None:
        for own, t in self._pairs(live):
            own.data = t.data.copy()

    def value(self, contexts: np.ndarray) -> np.ndarray:
        """`fused_values` of a (levels + 1 or 1, T, d) array, as an array."""
        with ad.no_grad():
            return fused_values(self.params, ad.constant(contexts)).data
