"""Joint actor-critic optimization driven by on-policy rollouts.

Each update consumes one freshly collected episode. Each loss term is one
function over row-batched inputs, which `train_step` and the acceptance
gate's one-row checks share: `value_loss` regresses the critic's fused
value onto one-step bootstrap targets from a Polyak-trailing target
critic, `pg_loss` follows clipped advantages, `entropy_term` adds entropy
pressure and `bc_loss` a behavioral-cloning anchor on clicked items.
Advantages and bootstrap targets are constants by construction, and the
critic reads the trajectory through detached policy-head parameters, so
neither loss leaks gradient across the actor/critic boundary.

Rollouts run the policy without gradient tracking, once per step whose
state changed, and sample their slates; the training simulator likewise
encodes a state only when it changed (`ResponseModel.click_probs`). The
update builds one graph for its whole batch, with a row per transition:
one `encode_batch`, one policy `forward` of the block of contexts, one
`SidIndex.sid_matrix` lookup of every slate item, one vector of their
log-probabilities and one critic pass over the heads-detached trajectories.

Greedy evaluation plays all its episodes in lockstep, each with its own
generator: per step, one `encode_batch` of the live sessions' states, one
`forward` of that block, one greedy selection with a slate per row and
one `Environment.step_batch`. An episode that ends leaves the block.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import reduce
from statistics import median

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .checkpoint import load_into
from .critic import (CriticConfig, CriticParams, TargetCritic, aggregate,
                     value_of_context, weight_snapshot)
from .encoder import encode, encode_batch
from .env import Environment, EnvConfig, EpisodeMetrics
from .errors import ConfigError, ContractError
from .optim import Optimizer
from .policy import (PolicyConfig, PolicyParams, PolicyOutput, forward,
                     per_item_log_probs, select_slate)
from .tokenizer import Codebook, SidIndex

ABLATION_VARIANTS = ("full", "no_entropy", "flat_policy", "no_bc", "single_critic")
TRAIN_VARIANTS = ABLATION_VARIANTS + ("bc_only",)
# Variants whose critic scores c_0 alone: every context of a flat policy's
# trajectory is c_0, so fusing them by any weights would give v(c_0) too.
_CONTEXT_ZERO_CRITIC = ("single_critic", "flat_policy")

# Seed-stream tags: every generator in a run derives from one agent seed.
_STREAM_INIT = 0
_STREAM_ENV = 3
_STREAM_ACTION = 4
_STREAM_EVAL = 5
_FINAL_EVAL_TAG = 999


@dataclass
class TrainConfig:
    gamma: float = 0.9
    lambda_entropy: float = 0.1
    lambda_bc: float = 0.5
    advantage_clip: float = 1.0
    iterations: int = 20000          # environment interaction steps
    learning_rate: float = 1e-3
    target_tau: float = 0.005        # Polyak rate of the target critic
    eval_every: int = 2000
    eval_episodes: int = 20
    variant: str = "full"

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ConfigError("gamma must lie in (0, 1)")
        if not self.advantage_clip > 0.0:  # `not x > 0`: NaN fails too
            raise ConfigError("advantage clip bound must be positive")
        if not (self.lambda_entropy >= 0.0 and self.lambda_bc >= 0.0):
            raise ConfigError("loss weights must be non-negative")
        if self.variant not in TRAIN_VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        if not 0.0 < self.target_tau <= 1.0:
            raise ConfigError("target_tau must lie in (0, 1]")
        if not self.learning_rate > 0.0:
            raise ConfigError("learning_rate must be positive")
        if self.iterations < 0:
            raise ConfigError("iterations must be >= 0")
        if self.eval_every < 0:
            raise ConfigError("eval_every must be >= 0 (0 turns periodic eval off)")
        if self.eval_episodes < 1:
            raise ConfigError("eval_episodes must be >= 1")


@dataclass
class Transition:
    """One rollout step: the state (its history tuple), the item ids of the
    slate (the update looks their SIDs up), and what `env.step` returned."""

    state: tuple[tuple[int, int], ...]
    slate: tuple[int, ...]
    feedback: np.ndarray
    reward: float
    done: int
    next_contexts: list[np.ndarray] | None = None


# ---------------------------------------------------------------------------
# Loss pieces
# ---------------------------------------------------------------------------


def td_target(reward, done, v_next, gamma: float):
    """Q = r + gamma * (1 - d) * V'(s'), elementwise over arrays."""
    if not np.isin(done, (0, 1)).all():
        raise ContractError("done flag must be 0 or 1")
    return reward + gamma * (1 - done) * v_next


def advantage(q, v, clip: float = 1.0):
    """Clipped advantage feeding the policy gradient, elementwise over arrays."""
    return np.clip(q - v, -clip, clip)


def value_loss(v_hat: Tensor, q) -> Tensor:
    """Critic MSE: the mean over rows of (v_hat - Q)^2, the targets constant."""
    diff = ad.sub(v_hat, ad.constant(q))
    return ad.vmean(ad.mul(diff, diff))


def pg_loss(log_probs: Tensor, rows: np.ndarray, adv: np.ndarray) -> Tensor:
    """-(1/B) sum_b adv[b] * (mean log pi over slate b); item i is in slate rows[i]."""
    sizes = np.bincount(rows, minlength=len(adv))
    return ad.dot(ad.constant(-adv[rows] / sizes[rows] / len(adv)), log_probs)


def entropy_term(output: PolicyOutput) -> Tensor:
    """sum_l sum_z p log p (negative entropy, <= 0), summed over the rows of
    the output of a block of contexts; maximized via the loss."""
    return reduce(ad.add, [ad.vsum(ad.mul(p, lp))
                           for p, lp in zip(output.probs, output.log_probs)])


def bc_loss(log_probs: Tensor, rows: np.ndarray, clicks: np.ndarray, batch: int) -> Tensor | None:
    """-(1/B) sum_b (mean log pi over slate b's clicks); None if no slate has one."""
    pos = np.bincount(rows, weights=clicks, minlength=batch)
    if not pos.any():
        return None
    per_item = -clicks / np.where(pos > 0, pos, 1.0)[rows] / batch
    return ad.dot(ad.constant(per_item), log_probs)


# ---------------------------------------------------------------------------
# Agent
# ---------------------------------------------------------------------------


class Agent:
    """Policy, critic, target critic, and their optimizer plus the SID index
    and the catalog's (N, L) token matrix, built once here: every catalog id
    must be in the index (`UnknownItemError` names the first that is not)."""

    def __init__(self, policy_cfg: PolicyConfig, critic_cfg: CriticConfig,
                 train_cfg: TrainConfig, index: SidIndex, catalog: list[int],
                 seed: int, codebook: Codebook | None = None,
                 item_features: np.ndarray | None = None):
        rng = np.random.default_rng([seed, _STREAM_INIT])
        self.policy = PolicyParams(policy_cfg, rng, codebook, item_features)
        self.critic = CriticParams(critic_cfg, rng)
        self.target = TargetCritic(self.critic)
        self.cfg = train_cfg
        self.index = index
        self.sids = index.sid_matrix(catalog)
        self.catalog = np.array(catalog, dtype=np.int64)
        self.opt = Optimizer(
            list(self.policy.tensors().values()) + list(self.critic.tensors().values()),
            lr=train_cfg.learning_rate)
        self.updates = 0

    def _blocks(self) -> dict[str, Tensor]:
        """Checkpoint block name -> parameter: policy `hpn/`, then critic `mlc/`."""
        return {**{f"hpn/{k}": v for k, v in self.policy.tensors().items()},
                **{f"mlc/{k}": v for k, v in self.critic.tensors().items()}}

    def tensors(self) -> dict[str, np.ndarray]:
        return {name: t.data for name, t in self._blocks().items()}

    def load_arrays(self, named: dict[str, np.ndarray]) -> None:
        load_into(self._blocks(), named, "checkpoint")
        self.target.hard_sync()

    def weight_columns(self) -> np.ndarray:
        if self.cfg.variant in _CONTEXT_ZERO_CRITIC:
            return np.eye(self.critic.cfg.n_values)[0]
        return weight_snapshot(self.critic)


def rollout(agent: Agent, env: Environment, mode: str,
            rng_env: np.random.Generator,
            rng_act: np.random.Generator) -> tuple[list[Transition], EpisodeMetrics]:
    """Play one training episode, sampling each slate (`mode` must be
    "sample"; greedy episodes are `evaluate`'s).

    The policy runs without gradient tracking, and only on a step whose
    history differs from the one its last output was computed from: a slate
    with no click leaves the state as it was, and no update runs inside a
    rollout, so that output is exact; the simulator's `click_probs` reuses
    its state encoding likewise. Each transition keeps its slate's item ids,
    and each but the last the next state's context trajectory for the target
    critic.
    """
    if mode != "sample":
        raise ContractError(f"rollout samples its slates; got mode {mode!r}")
    flat = agent.cfg.variant == "flat_policy"
    session = env.reset(rng_env)
    transitions: list[Transition] = []
    done, seen = False, None
    while not done:
        if session.state != seen:
            with ad.no_grad():
                out = forward(agent.policy, encode(agent.policy.encoder, session.state),
                              flat=flat)
            seen = session.state
        if transitions:
            transitions[-1].next_contexts = [c.data for c in out.trajectory]
        slate = select_slate(out, agent.sids, agent.catalog,
                             env.cfg.slate_size, mode, rng_act)
        feedback, reward, nxt, done = env.step(session, slate, rng_env)
        transitions.append(Transition(session.state, tuple(slate), feedback, reward,
                                      int(done)))
        session = nxt
    return transitions, EpisodeMetrics(total_reward=sum(tr.reward for tr in transitions),
                                       depth=len(transitions))


@ad.checked()
def train_step(agent: Agent, transitions: list[Transition]) -> dict:
    """One joint update on a batch of transitions, through one graph; returns
    the loss report. Each loss is the batch mean of its per-transition term."""
    cfg, variant, batch = agent.cfg, agent.cfg.variant, len(transitions)
    if batch < 1:
        raise ContractError("empty batch")
    for i, tr in enumerate(transitions):  # before any state changes
        if len(tr.feedback) != len(tr.slate):
            raise ContractError(f"transition {i}: {len(tr.feedback)} feedback entries "
                                f"for a slate of {len(tr.slate)} items")
        if variant != "bc_only" and tr.done == 0 and tr.next_contexts is None:
            raise ContractError(f"transition {i}: done=0 with no next contexts to bootstrap")
    weights = {"loss_V": 1.0, "loss_PG": 1.0, "loss_BC": cfg.lambda_bc,
               "H_en": 0.0 if variant in ("no_entropy", "bc_only") else cfg.lambda_entropy}

    c0 = encode_batch(agent.policy.encoder, [tr.state for tr in transitions])
    out = forward(agent.policy, c0, flat=variant == "flat_policy")
    rows = np.repeat(np.arange(batch), [len(tr.slate) for tr in transitions])
    sids = agent.index.sid_matrix([item for tr in transitions for item in tr.slate])
    log_probs = per_item_log_probs(out, sids, rows)
    terms: dict[str, Tensor] = {}
    if variant != "bc_only":
        trajectory = [c0] if variant in _CONTEXT_ZERO_CRITIC else forward(
            agent.policy, c0, heads_detached=True).trajectory
        v_hat = aggregate(agent.critic, value_of_context(agent.critic, ad.stack(trajectory)))
        done = np.array([tr.done for tr in transitions])
        v_next = np.zeros(batch)
        if (boot := np.flatnonzero(done == 0)).size:
            v_next[boot] = agent.target.value(np.stack(
                [transitions[i].next_contexts[:len(trajectory)] for i in boot], axis=1))
        q = td_target(np.array([tr.reward for tr in transitions]), done, v_next, cfg.gamma)
        adv = advantage(q, v_hat.data, cfg.advantage_clip)
        terms["loss_V"] = value_loss(v_hat, q)
        terms["loss_PG"] = pg_loss(log_probs, rows, adv)
    if weights["H_en"]:
        terms["H_en"] = ad.scale(entropy_term(out), 1.0 / batch)
    if (cfg.lambda_bc > 0.0 and variant != "no_bc") or variant == "bc_only":
        clicks = np.concatenate([tr.feedback for tr in transitions])
        if (bc := bc_loss(log_probs, rows, clicks, batch)) is not None:
            terms["loss_BC"] = bc

    report = {key: float(terms[key].data) if key in terms else 0.0 for key in weights}
    # entropy_term's sums on plain arrays: the graph term's value when it is built
    report["H_en"] = float(sum((p.data * lp.data).sum() for p, lp in
                               zip(out.probs, out.log_probs)) * (1.0 / batch))
    parts = [term if weights[key] == 1.0 else ad.scale(term, weights[key])
             for key, term in terms.items() if weights[key] != 0.0]
    total = reduce(ad.add, parts) if parts else None
    if total is not None and total.requires_grad:
        agent.opt.zero_grad()
        ad.backward(total)
        agent.opt.step()
    agent.updates += 1

    if variant != "bc_only":
        agent.target.soft_update(cfg.target_tau)

    report["weights"] = agent.weight_columns()
    return report


# ---------------------------------------------------------------------------
# Training and evaluation loops
# ---------------------------------------------------------------------------


@dataclass
class ExperimentContext:
    """Frozen inputs shared by every run in an experiment."""

    policy_cfg: PolicyConfig
    critic_cfg: CriticConfig
    env_cfg: EnvConfig
    codebook: Codebook
    index: SidIndex
    catalog: list[int]
    train_env: Environment
    eval_env: Environment
    item_features: np.ndarray | None = None


class MetricsWriter:
    """Append-only CSV with a fixed header; floats use shortest round-trip."""

    def __init__(self, path, columns: list[str]):
        self.columns = columns
        self._fh = open(path, "w", newline="")
        self._writer = csv.writer(self._fh)
        self._writer.writerow(columns)
        self._fh.flush()

    def write(self, values) -> None:
        # repr(float(...)) is the shortest round-trip form and strips numpy
        # scalar wrappers, keeping files bitwise-stable across runs
        self._writer.writerow([repr(float(v)) if isinstance(v, float) else str(v)
                               for v in values])

    def close(self) -> None:
        self._fh.flush()
        self._fh.close()

    def __enter__(self) -> "MetricsWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def metrics_columns(levels: int) -> list[str]:
    return (["iteration", "total_reward", "depth", "loss_V", "loss_PG",
             "H_en", "loss_BC"]
            + [f"w_{l}" for l in range(levels + 1)] + ["seed"])


EVAL_COLUMNS = ["iteration", "episodes", "mean_total_reward",
                "median_total_reward", "std_total_reward", "mean_depth",
                "median_depth", "std_depth", "seed"]


def evaluate(agent: Agent, env: Environment, episodes: int, seed: int,
             tag: int = _FINAL_EVAL_TAG) -> list[EpisodeMetrics]:
    """Greedy episodes on the evaluation simulator, played in lockstep as
    the module docstring describes; episode i draws its user and its clicks
    from its own `[seed, EVAL, tag, i]` stream."""
    flat = agent.cfg.variant == "flat_policy"
    rngs = [np.random.default_rng([seed, _STREAM_EVAL, tag, i]) for i in range(episodes)]
    sessions = [env.reset(rng) for rng in rngs]
    rewards: list[list[float]] = [[] for _ in range(episodes)]
    live = list(range(episodes))
    while live:
        with ad.no_grad():
            out = forward(agent.policy, encode_batch(
                agent.policy.encoder, [sessions[i].state for i in live]), flat=flat)
        slates = select_slate(out, agent.sids, agent.catalog,
                              env.cfg.slate_size, "greedy")
        steps = env.step_batch([sessions[i] for i in live], slates,
                               [rngs[i] for i in live])
        for i, (_, reward, nxt, _) in zip(live, steps):
            rewards[i].append(reward)
            sessions[i] = nxt
        live = [i for i in live if not sessions[i].done]
    return [EpisodeMetrics(total_reward=sum(r), depth=len(r)) for r in rewards]


def summary_row(iteration: int, metrics: list[EpisodeMetrics], seed: int):
    rewards = [m.total_reward for m in metrics]
    depths = [float(m.depth) for m in metrics]
    return [iteration, len(metrics),
            float(np.mean(rewards)), float(median(rewards)), float(np.std(rewards)),
            float(np.mean(depths)), float(median(depths)), float(np.std(depths)),
            seed]


def run_training(agent: Agent, ctx: ExperimentContext, seed: int,
                 metrics_writer: MetricsWriter | None = None,
                 eval_writer: MetricsWriter | None = None) -> None:
    """Play one fresh episode per update until the interaction budget is
    spent."""
    cfg = agent.cfg
    iteration = episode = eval_bucket = 0
    while iteration < cfg.iterations:
        rng_env = np.random.default_rng([seed, _STREAM_ENV, episode])
        rng_act = np.random.default_rng([seed, _STREAM_ACTION, episode])
        transitions, metrics = rollout(agent, ctx.train_env, "sample",
                                       rng_env, rng_act)
        episode += 1
        iteration += metrics.depth
        report = train_step(agent, transitions)
        if metrics_writer is not None:
            metrics_writer.write(
                [iteration, metrics.total_reward, float(metrics.depth), report["loss_V"],
                 report["loss_PG"], report["H_en"], report["loss_BC"]]
                + [float(w) for w in report["weights"]] + [seed])
        if (eval_writer is not None and cfg.eval_every > 0
                and iteration // cfg.eval_every > eval_bucket):
            eval_bucket = iteration // cfg.eval_every
            metrics = evaluate(agent, ctx.eval_env, cfg.eval_episodes,
                               seed, eval_bucket)
            eval_writer.write(summary_row(iteration, metrics, seed))


def run_experiment(ctx: ExperimentContext, train_cfg: TrainConfig, seed: int,
                   metrics_writer: MetricsWriter | None = None,
                   eval_writer: MetricsWriter | None = None) -> tuple[Agent, list[EpisodeMetrics]]:
    """Train a fresh agent and score it on the evaluation simulator."""
    agent = Agent(ctx.policy_cfg, ctx.critic_cfg, train_cfg, ctx.index,
                  ctx.catalog, seed, ctx.codebook, ctx.item_features)
    run_training(agent, ctx, seed, metrics_writer, eval_writer)
    final = evaluate(agent, ctx.eval_env, train_cfg.eval_episodes, seed)
    return agent, final


def run_seeds(ctx: ExperimentContext, train_cfg: TrainConfig,
              seeds: list[int]) -> tuple[list[float], list[float]]:
    """Each seed's `run_experiment` mean final-eval total reward and depth."""
    rewards, depths = [], []
    for seed in seeds:
        _, metrics = run_experiment(ctx, train_cfg, seed)
        rewards.append(float(np.mean([m.total_reward for m in metrics])))
        depths.append(float(np.mean([m.depth for m in metrics])))
    return rewards, depths
