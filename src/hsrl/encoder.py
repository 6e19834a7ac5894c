"""Lightweight sequence encoder shared by the policy and the user simulator.

History items and their feedback bits are embedded, mixed by one
self-attention layer with a residual connection, mean-pooled, and
projected to the output width. A learned start vector stands in for the
pooled projection when the history is empty; both paths encode it as
`0 + start`, so no encoder call returns a parameter itself.

`encode` maps one state to a vector; `encode_batch` maps a batch to one
matrix as `history_arrays` (padded to the longest) then `encode_arrays`
(masking the padding), which the simulator fit calls on arrays built once.
Both cut each history to the window and check its items in one place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError, DataError, UnknownItemError

# Attention score of a padded key: its softmax weight underflows to exactly 0.
_MASKED_SCORE = -1e30


@dataclass(frozen=True)
class UserState:
    """The recent (item, feedback-bit) history."""

    history: tuple[tuple[int, int], ...] = ()


@dataclass
class EncoderConfig:
    n_items: int
    embed_dim: int = 32
    out_dim: int = 32
    history_window: int = 10


class EncoderParams:
    def __init__(self, cfg: EncoderConfig, rng: np.random.Generator):
        self.cfg = cfg
        d = cfg.embed_dim
        self.item_emb = ad.parameter((cfg.n_items, d), rng, 0.1)
        self.fb_emb = ad.parameter((2, d), rng, 0.1)
        self.attn_q = ad.parameter((d, d), rng, 0.1)
        self.attn_k = ad.parameter((d, d), rng, 0.1)
        self.attn_v = ad.parameter((d, d), rng, 0.1)
        self.proj_w = ad.parameter((cfg.out_dim, d), rng, 0.1)
        self.proj_b = ad.parameter((cfg.out_dim,), rng, 0.1)
        self.start = ad.parameter((cfg.out_dim,), rng, 0.1)

    def tensors(self) -> dict[str, Tensor]:
        return {
            "item_emb": self.item_emb,
            "fb_emb": self.fb_emb,
            "attn_q": self.attn_q,
            "attn_k": self.attn_k,
            "attn_v": self.attn_v,
            "proj_w": self.proj_w,
            "proj_b": self.proj_b,
            "start": self.start,
        }

    def init_items_from_features(self, item_features: np.ndarray,
                                 rng: np.random.Generator) -> None:
        """Item table = seeded projection of the features (row r = item r),
        scaled to roughly unit row norm."""
        feats = np.asarray(item_features, dtype=np.float64)
        if feats.shape[0] != self.cfg.n_items:
            raise DataError(f"{feats.shape[0]} item feature rows for "
                            f"{self.cfg.n_items} items")
        d = self.cfg.embed_dim
        rms = np.sqrt((feats ** 2).sum(axis=1).mean())
        proj = rng.normal(0.0, 1.0 / (np.sqrt(d) * max(rms, 1e-12)),
                          size=(feats.shape[1], d))
        self.item_emb.data = feats @ proj


def _window(cfg: EncoderConfig, state: UserState) -> tuple[tuple[int, int], ...]:
    """The state's history cut to the window, every item checked against the table."""
    history = state.history[-cfg.history_window:]
    for item, _ in history:
        if not 0 <= item < cfg.n_items:
            raise UnknownItemError(f"item {item} outside embedding table")
    return history


def encode(params: EncoderParams, state: UserState) -> Tensor:
    """Deterministic state encoding; an empty history maps to `0 + start`,
    a new tensor holding the start vector's bytes, as in `encode_arrays`."""
    cfg = params.cfg
    history = _window(cfg, state)
    if not history:
        return ad.add(ad.constant(np.zeros(cfg.out_dim)), params.start)
    x = ad.add(ad.embed(params.item_emb, [item for item, _ in history]),
               ad.embed(params.fb_emb, [bit for _, bit in history]))
    q = ad.matmul(x, params.attn_q)
    k = ad.matmul(x, params.attn_k)
    v = ad.matmul(x, params.attn_v)
    attn = ad.softmax(ad.scale(ad.matmul(q, ad.transpose(k)),
                               1.0 / math.sqrt(cfg.embed_dim)))
    mixed = ad.add(x, ad.matmul(attn, v))
    pooled = ad.vmean(mixed, axis=0)
    return ad.add(ad.matmul(params.proj_w, pooled), params.proj_b)


def history_arrays(cfg: EncoderConfig, states):
    """`(ids, bits, lengths)`: the histories cut to the window, zero-padded,
    filled from one row-major list of their pairs by one masked assignment."""
    histories = [_window(cfg, state) for state in states]
    lengths = np.array([len(h) for h in histories], dtype=np.intp)
    both = np.zeros((2, len(histories), int(lengths.max(initial=0))), dtype=np.intp)
    flat = np.array([x for history in histories for pair in history for x in pair])
    if flat.size and flat.dtype.kind not in "iu":  # a float or bool would truncate
        raise ContractError(f"history items and bits must be integers, got {flat.dtype}")
    both[:, np.arange(both.shape[2]) < lengths[:, None]] = flat.reshape(-1, 2).T
    return both[0], both[1], lengths


def encode_batch(params: EncoderParams, states) -> Tensor:
    """(B, out_dim): row r is `encode(params, states[r])` up to rounding."""
    return encode_arrays(params, *history_arrays(params.cfg, states))


def encode_arrays(params: EncoderParams, ids, bits, lengths) -> Tensor:
    """`encode_batch` of the states with these `history_arrays`: padding adds
    nothing (weight 0 in attention and pooling), and an empty history is `start`."""
    cfg = params.cfg
    n, width = ids.shape
    starts = ad.add(ad.constant(np.zeros((n, cfg.out_dim))), params.start)
    if width == 0:
        return starts

    real = np.arange(width) < lengths[:, None]                      # (n, width)
    x = ad.add(ad.embed(params.item_emb, ids), ad.embed(params.fb_emb, bits))
    q = ad.matmul(x, params.attn_q)
    k = ad.matmul(x, params.attn_k)
    v = ad.matmul(x, params.attn_v)
    scores = ad.scale(ad.matmul(q, ad.transpose(k)), 1.0 / math.sqrt(cfg.embed_dim))
    key_mask = np.repeat(np.where(real, 0.0, _MASKED_SCORE)[:, None, :], width, axis=1)
    attn = ad.softmax(ad.add(scores, ad.constant(key_mask)))
    mixed = ad.add(x, ad.matmul(attn, v))
    pool = real / np.maximum(lengths, 1)[:, None]
    pooled = ad.reshape(ad.matmul(ad.constant(pool[:, None, :]), mixed),
                        (n, cfg.embed_dim))
    projected = ad.add(ad.matmul(pooled, ad.transpose(params.proj_w)), params.proj_b)
    empty = np.repeat((lengths == 0)[:, None], cfg.out_dim, axis=1).astype(np.float64)
    return ad.add(ad.mul(projected, ad.constant(1.0 - empty)),
                  ad.mul(starts, ad.constant(empty)))
