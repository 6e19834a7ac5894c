"""Hierarchical policy: coarse-to-fine token distributions over the SID space.

One forward pass refines the state context level by level: each level
projects the current context to token logits, takes the expected token
embedding under the resulting distribution (not a sampled one, so the
single pass serves likelihood, sampling, and candidate scoring alike),
subtracts it from the context, and layer-normalizes. The refined contexts
c_0..c_L form the trajectory the critic consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .encoder import EncoderConfig, EncoderParams
from .errors import ConfigError, ContractError, DataError, ShapeError
from .tokenizer import Codebook


@dataclass
class PolicyConfig:
    n_items: int
    vocab_sizes: tuple[int, ...]
    d_model: int = 32
    embed_dim: int = 32
    history_window: int = 10
    # When set, token embeddings start from codebook centroids projected
    # into the model width instead of random noise.
    token_emb_from_codebook: bool = False

    def __post_init__(self):
        if self.d_model < 2 or self.embed_dim < 1:
            raise ConfigError("policy needs d_model >= 2 (layer norm) and embed_dim >= 1")
        if not self.vocab_sizes or min(self.vocab_sizes) < 1:
            raise ConfigError(f"tokenizer levels and vocab sizes must be >= 1, "
                              f"got vocab sizes {self.vocab_sizes}")

    @property
    def levels(self) -> int:
        return len(self.vocab_sizes)

    def encoder_config(self) -> EncoderConfig:
        return EncoderConfig(
            n_items=self.n_items,
            embed_dim=self.embed_dim,
            out_dim=self.d_model,
            history_window=self.history_window,
        )


class PolicyParams:
    def __init__(self, cfg: PolicyConfig, rng: np.random.Generator,
                 codebook: Codebook | None = None,
                 item_features: np.ndarray | None = None):
        self.cfg = cfg
        self.encoder = EncoderParams(cfg.encoder_config(), rng)
        if item_features is not None:
            # A seeded projection of the catalog features, so user
            # histories are separable before any training.
            self.encoder.init_items_from_features(item_features, rng)
        self.head_w: list[Tensor] = []
        self.tok_emb: list[Tensor] = []
        self.ln_gain: list[Tensor] = []
        self.ln_bias: list[Tensor] = []
        for lvl, t_l in enumerate(cfg.vocab_sizes):
            self.head_w.append(ad.parameter((t_l, cfg.d_model), rng, 0.1))
            if cfg.token_emb_from_codebook:
                if codebook is None:
                    raise ContractError("token_emb_from_codebook needs a codebook")
                if codebook.vocab_sizes != cfg.vocab_sizes:
                    raise DataError("codebook vocab sizes differ from the config's")
                proj = rng.normal(0.0, 1.0 / np.sqrt(codebook.dim),
                                  size=(codebook.dim, cfg.d_model))
                self.tok_emb.append(Tensor(codebook.centroids[lvl] @ proj,
                                           requires_grad=True))
            else:
                self.tok_emb.append(ad.parameter((t_l, cfg.d_model), rng, 0.1))
            self.ln_gain.append(Tensor(np.ones(cfg.d_model), requires_grad=True))
            self.ln_bias.append(Tensor(np.zeros(cfg.d_model), requires_grad=True))

    def tensors(self) -> dict[str, Tensor]:
        out = {f"enc/{k}": v for k, v in self.encoder.tensors().items()}
        for lvl in range(self.cfg.levels):
            out[f"level{lvl}/head_w"] = self.head_w[lvl]
            out[f"level{lvl}/tok_emb"] = self.tok_emb[lvl]
            out[f"level{lvl}/ln_gain"] = self.ln_gain[lvl]
            out[f"level{lvl}/ln_bias"] = self.ln_bias[lvl]
        return out


@dataclass
class PolicyOutput:
    """Level-wise token distributions plus the refined context trajectory."""

    probs: list[Tensor]
    log_probs: list[Tensor]
    trajectory: list[Tensor]
    vocab_sizes: tuple[int, ...]


def forward(params: PolicyParams, c0: Tensor, flat: bool = False,
            heads_detached: bool = False,
            force_onehot: dict[int, int] | None = None) -> PolicyOutput:
    """Produce all level distributions and the context trajectory in one pass,
    for one (d_model,) context or each row of a (B, d_model) block of them;
    every probs, log-probs and trajectory entry then has a row per state.

    `flat` reads every head off c_0 with no residual refinement (ablation).
    `heads_detached` treats head/embedding/norm parameters as constants so
    gradients reach only the encoder through the trajectory.
    `force_onehot` substitutes a one-hot distribution at given levels
    (test hook for the residual-alignment property).
    """
    d = params.cfg.d_model
    if c0.ndim not in (1, 2) or c0.shape[-1] != d:
        raise ShapeError(f"context has shape {c0.shape}, expected ({d},) or (B, {d})")
    probs, log_probs, trajectory, c = [], [], [c0], c0
    for lvl, heads in enumerate(zip(params.head_w, params.tok_emb,
                                    params.ln_gain, params.ln_bias)):
        w, emb, gain, bias = [ad.constant(t.data) for t in heads] if heads_detached else heads
        p, log_p = ad.softmax_and_log(ad.matmul(c, ad.transpose(w)))
        log_probs.append(log_p)
        if force_onehot and lvl in force_onehot:
            onehot = np.zeros(p.shape)
            onehot[..., force_onehot[lvl]] = 1.0
            p = ad.constant(onehot)
        probs.append(p)
        if not flat:
            c = ad.layer_norm(ad.sub(c, ad.matmul(p, emb)), gain, bias)
        trajectory.append(c)
    return PolicyOutput(probs, log_probs, trajectory, params.cfg.vocab_sizes)


def per_item_log_probs(output: PolicyOutput, sids, rows=None) -> Tensor:
    """(n,) vector of log pi(z|s) = sum_l log p_l[z_l], one entry per SID,
    all read off one forward pass; differentiable through the recursion.
    For the output of a block of contexts, `rows[i]` names the row SID i is
    read off."""
    if len(sids) < 1:
        raise ContractError("slate must hold at least one SID")
    levels = len(output.vocab_sizes)
    try:
        if (z := np.array(sids)).dtype.kind not in "iu":  # a float or bool is no token
            raise ValueError
    except ValueError:
        raise ContractError(f"SIDs are ragged or not integers; each needs {levels} "
                            f"tokens") from None
    if z.ndim != 2 or z.shape[1] != levels:
        raise ContractError(f"SID has {np.size(sids[0])} tokens, expected {levels}")
    bad = np.argwhere((z < 0) | (z >= np.array(output.vocab_sizes)))
    if len(bad):
        i, lvl = bad[0]
        raise ContractError(f"token {z[i, lvl]} out of range at level {lvl + 1}")
    if rows is not None:  # token z of row r is entry r * T_l + z of the flat block
        z = z + np.outer(rows, output.vocab_sizes)
        output = replace(output, log_probs=[ad.reshape(lp, (lp.data.size,))
                                            for lp in output.log_probs])
    total = ad.embed(output.log_probs[0], z[:, 0])
    for lvl in range(1, z.shape[1]):
        total = ad.add(total, ad.embed(output.log_probs[lvl], z[:, lvl]))
    return total


def _raw_scores(output: PolicyOutput, sids: np.ndarray) -> np.ndarray:
    """score(i) = prod_l p_l[z_l(i)] = pi(z(i)|s) for each row z(i) of the
    (N, L) token matrix `sids`; for the output of a block of contexts, a
    (B, N) block with a row per context."""
    scores = output.probs[0].data.take(sids[:, 0], axis=-1)
    for lvl in range(1, len(output.probs)):
        scores *= output.probs[lvl].data.take(sids[:, lvl], axis=-1)
    return scores


def _top_k_rows(scores: np.ndarray, ids: np.ndarray, k: int) -> list[list[int]]:
    """The k best ids of each row of a (B, N) score block, ranked by score
    descending, ties by ascending item id. A row's floor, the least of the
    maxima of k disjoint column chunks, is at most its k-th best score (those
    maxima are k entries at or above it), so only entries at or above the
    floor are sorted."""
    n = scores.shape[1]
    floor = np.maximum.reduceat(scores, np.arange(k) * n // k, axis=1).min(axis=1)
    rows, cols = np.divmod(flat := np.flatnonzero(scores >= floor[:, None]), n)
    order = np.lexsort((ids[cols], -scores.ravel()[flat], rows))
    first = np.searchsorted(rows, np.arange(len(scores)))
    return ids[cols[order[first[:, None] + np.arange(k)]]].tolist()


def select_slate(output: PolicyOutput, sids: np.ndarray, candidates, k: int,
                 mode: str, rng: np.random.Generator | None = None,
                 ) -> list[int] | list[list[int]]:
    """Pick k (1 <= k <= len(candidates)) of the candidate item ids.

    `greedy` takes the k best by score, ties broken by ascending item id: one
    pass finds a floor at most the k-th best score, and only the candidates
    scoring at least that much are sorted. On the output of a
    block of contexts it returns one slate per row. `sample` draws k
    without replacement in proportion to score; when fewer than k candidates
    have mass it takes those (in sampled order) and pads with the first
    zero-score candidates in candidate order. It takes the output of one
    context only. Row i of the (len(candidates), L) token matrix `sids` is
    the SID of candidates[i] (`SidIndex.sid_matrix(candidates)`, which an
    `Agent` builds once for its catalog).
    """
    if not 1 <= k <= len(candidates):
        raise ContractError(f"slate size {k} is not in 1..{len(candidates)} "
                            f"(the number of candidates)")
    if sids.shape != (len(candidates), len(output.vocab_sizes)):
        raise ShapeError(f"token matrix has shape {sids.shape}, expected "
                         f"({len(candidates)}, {len(output.vocab_sizes)})")
    if mode not in ("greedy", "sample"):
        raise ContractError(f"unknown slate mode {mode!r}")
    if mode == "sample" and rng is None:
        raise ContractError("sample mode needs an rng")
    block = output.probs[0].ndim == 2
    if block and mode == "sample":
        raise ShapeError("sample mode takes the output of one context, not a block")

    scores = _raw_scores(output, sids)
    ids = np.asarray(candidates, dtype=np.int64)
    if mode == "greedy":
        slates = _top_k_rows(np.atleast_2d(scores), ids, k)
        return slates if block else slates[0]
    total = scores.sum()
    if total <= 0.0:
        return ids[rng.choice(len(ids), size=k, replace=False)].tolist()
    p = scores / total
    nonzero = int((p > 0.0).sum())
    pad = [] if nonzero >= k else np.flatnonzero(p == 0.0)[:k - nonzero].tolist()
    return ids[_draw(p, min(k, nonzero), rng) + pad].tolist()


def _draw(p: np.ndarray, k: int, rng: np.random.Generator) -> list[int]:
    """`rng.choice(len(p), k, replace=False, p=p)` by numpy's own algorithm,
    so with its picks and generator state, minus its checks on `p`, which
    `select_slate` guarantees: a distribution with k or more nonzero entries."""
    p, found = p.copy(), []
    while len(found) < k:
        p[found] = 0.0
        cdf = np.cumsum(p)
        cdf /= cdf[-1]
        # an entry found before has no mass left, so it cannot come again
        for i in cdf.searchsorted(rng.random(k - len(found)), side="right").tolist():
            if i not in found:
                found.append(i)
    return found
