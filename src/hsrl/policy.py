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
from .encoder import EncoderConfig, EncoderParams, UserState, encode
from .errors import ConfigError, ContractError, DataError, ShapeError
from .tokenizer import Codebook, SidIndex


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


def encode_state(params: PolicyParams, state: UserState) -> Tensor:
    return encode(params.encoder, state)


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
        w, emb, gain, bias = [t.detach() for t in heads] if heads_detached else heads
        logits = ad.matmul(c, ad.transpose(w))
        p = ad.softmax(logits)
        log_probs.append(ad.log_softmax(logits))
        if force_onehot and lvl in force_onehot:
            onehot = np.zeros(p.shape)
            onehot[..., force_onehot[lvl]] = 1.0
            p = ad.constant(onehot)
        probs.append(p)
        if not flat:
            c = ad.layer_norm(ad.sub(c, ad.matmul(p, emb)), gain, bias)
        trajectory.append(c)
    return PolicyOutput(probs, log_probs, trajectory, params.cfg.vocab_sizes)


def _check_sid(output: PolicyOutput, sid) -> tuple[int, ...]:
    sid = tuple(int(z) for z in sid)
    if len(sid) != len(output.vocab_sizes):
        raise ContractError(f"SID has {len(sid)} tokens, expected "
                            f"{len(output.vocab_sizes)}")
    for lvl, z in enumerate(sid):
        if not 0 <= z < output.vocab_sizes[lvl]:
            raise ContractError(f"token {z} out of range at level {lvl + 1}")
    return sid


def per_item_log_probs(output: PolicyOutput, sids, rows=None) -> Tensor:
    """(n,) vector of log pi(z|s) = sum_l log p_l[z_l], one entry per SID,
    all read off one forward pass; differentiable through the recursion.
    For the output of a block of contexts, `rows[i]` names the row SID i is
    read off."""
    if len(sids) < 1:
        raise ContractError("slate must hold at least one SID")
    z = np.array([_check_sid(output, sid) for sid in sids], dtype=np.int64)
    if rows is not None:  # token z of row r is entry r * T_l + z of the flat block
        z = z + np.outer(rows, output.vocab_sizes)
        output = replace(output, log_probs=[ad.reshape(lp, (lp.data.size,))
                                            for lp in output.log_probs])
    total = ad.embed(output.log_probs[0], z[:, 0])
    for lvl in range(1, z.shape[1]):
        total = ad.add(total, ad.embed(output.log_probs[lvl], z[:, lvl]))
    return total


def sid_log_prob(output: PolicyOutput, sid) -> Tensor:
    """log pi(z|s) of a single SID, as a scalar."""
    return ad.vsum(per_item_log_probs(output, [sid]))


def _raw_scores(output: PolicyOutput, index: SidIndex, candidates) -> np.ndarray:
    """score(i) = prod_l p_l[z_l(i)] = pi(z(i)|s), in candidate order."""
    z = index.sid_matrix(candidates)
    scores = np.ones(len(candidates))
    for lvl, p in enumerate(output.probs):
        scores = scores * p.data[z[:, lvl]]
    return scores


def select_slate(output: PolicyOutput, index: SidIndex, candidates, k: int,
                 mode: str, rng: np.random.Generator | None = None) -> list[int]:
    """Pick k (1 <= k <= len(candidates)) of the candidate item ids.

    `greedy` takes the k best by score, ties broken by ascending item id: a
    linear-time partial selection finds the k-th best score, and only the
    candidates scoring at least that much are sorted. `sample` draws k
    without replacement in proportion to score; when fewer than k candidates
    have mass it takes those (in sampled order) and pads with the first
    zero-score candidates in candidate order. Every candidate must be in the
    index (`UnknownItemError` names the first that is not).
    """
    if not 1 <= k <= len(candidates):
        raise ContractError(f"slate size {k} is not in 1..{len(candidates)} "
                            f"(the number of candidates)")
    if mode not in ("greedy", "sample"):
        raise ContractError(f"unknown slate mode {mode!r}")
    if mode == "sample" and rng is None:
        raise ContractError("sample mode needs an rng")

    scores = _raw_scores(output, index, candidates)
    ids = np.asarray(candidates, dtype=np.int64)
    if mode == "greedy":
        # Nothing scoring below the k-th best score can make the slate; the
        # rest are ranked by score descending, ties by ascending item id.
        top = np.flatnonzero(scores >= np.partition(scores, -k)[-k])
        return ids[top[np.lexsort((ids[top], -scores[top]))[:k]]].tolist()
    total = scores.sum()
    if total <= 0.0:
        return ids[rng.choice(len(ids), size=k, replace=False)].tolist()
    p = scores / total
    nonzero = int((p > 0.0).sum())
    if nonzero >= k:
        return ids[rng.choice(len(ids), size=k, replace=False, p=p)].tolist()
    picked = rng.choice(len(ids), size=nonzero, replace=False, p=p)
    pad = np.flatnonzero(p == 0.0)[:k - nonzero]
    return ids[np.concatenate([picked, pad])].tolist()
