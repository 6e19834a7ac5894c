"""Joint actor-critic optimization driven by on-policy rollouts.

Each update consumes one freshly collected episode: the critic regresses
its fused value onto one-step bootstrap targets from the frozen target
critic, which trails the live critic by Polyak averaging, and the policy
follows clipped-advantage gradients plus entropy pressure and a
behavioral-cloning anchor on clicked items. Advantages and bootstrap
targets are constants by construction, and the critic reads the trajectory
through detached policy-head parameters, so neither loss leaks gradient
across the actor/critic boundary.

A sampled rollout records each state's encoding and policy forward on the
tape, and the update differentiates that recording rather than building it
again, then releases it. Each recording is keyed by the agent that made it
and that agent's parameter version. A transition without a recording (its
batch was trained on already), or whose key no longer matches (the agent
stepped or loaded a checkpoint since, or is a copy), is encoded and
forwarded afresh by the same calls.
"""

from __future__ import annotations

import csv
from contextlib import nullcontext
from dataclasses import dataclass, replace
from statistics import median

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .checkpoint import load_into
from .critic import (CriticConfig, CriticParams, TargetCritic,
                     trajectory_value, weight_snapshot)
from .encoder import UserState
from .env import Environment, EnvConfig, EpisodeMetrics
from .errors import ConfigError, ContractError
from .optim import Optimizer
from .policy import (PolicyConfig, PolicyParams, PolicyOutput, encode_state,
                     forward, per_item_log_probs, select_slate)
from .tokenizer import Codebook, SidIndex

ABLATION_VARIANTS = ("full", "no_entropy", "flat_policy", "no_bc", "single_critic")
TRAIN_VARIANTS = ABLATION_VARIANTS + ("bc_only",)

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
        if self.advantage_clip <= 0.0:
            raise ConfigError("advantage clip bound must be positive")
        if self.lambda_entropy < 0.0 or self.lambda_bc < 0.0:
            raise ConfigError("loss weights must be non-negative")
        if self.variant not in TRAIN_VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        if not 0.0 < self.target_tau <= 1.0:
            raise ConfigError("target_tau must lie in (0, 1]")
        if self.learning_rate <= 0.0:
            raise ConfigError("learning_rate must be positive")
        if self.iterations < 0:
            raise ConfigError("iterations must be >= 0")
        if self.eval_every < 0:
            raise ConfigError("eval_every must be >= 0 (0 turns periodic eval off)")
        if self.eval_episodes < 1:
            raise ConfigError("eval_episodes must be >= 1")


@dataclass
class Transition:
    state: UserState
    sids: tuple[tuple[int, ...], ...]
    feedback: np.ndarray
    reward: float
    done: int
    next_contexts: list[np.ndarray] | None = None
    # the rollout's recorded (c0, policy output) and the key it is valid
    # under, (agent, parameter version); train_step releases both
    graph: tuple[Tensor, PolicyOutput] | None = None
    graph_key: tuple[Agent, int] | None = None


# ---------------------------------------------------------------------------
# Loss pieces
# ---------------------------------------------------------------------------


def td_target(reward: float, done: int, v_next: float, gamma: float) -> float:
    """Q = r + gamma * (1 - d) * V'(s')."""
    if done not in (0, 1):
        raise ContractError("done flag must be 0 or 1")
    return reward + gamma * (1 - done) * v_next


def advantage(q: float, v: float, clip: float = 1.0) -> float:
    """Clipped advantage feeding the policy gradient."""
    return min(max(q - v, -clip), clip)


def slate_log_prob(output: PolicyOutput, sids) -> Tensor:
    """Mean SID log-likelihood over the slate under one shared forward pass."""
    return ad.vmean(per_item_log_probs(output, sids))


def entropy_term(output: PolicyOutput) -> Tensor:
    """sum_l sum_z p log p (negative entropy, <= 0); maximized via the loss."""
    total = ad.dot(output.probs[0], output.log_probs[0])
    for lvl in range(1, len(output.probs)):
        total = ad.add(total, ad.dot(output.probs[lvl], output.log_probs[lvl]))
    return total


def bc_loss(output: PolicyOutput, sids, feedback: np.ndarray) -> Tensor | None:
    """Click-weighted negative log-likelihood; None when the slate has no
    positive feedback (exactly zero loss and zero gradient)."""
    feedback = np.asarray(feedback, dtype=np.float64)
    if len(feedback) != len(sids):
        raise ContractError("feedback and slate lengths differ")
    pos = feedback.sum()
    if pos == 0:
        return None
    weights = ad.constant(feedback / pos)
    return ad.scale(ad.dot(weights, per_item_log_probs(output, sids)), -1.0)


# ---------------------------------------------------------------------------
# Agent
# ---------------------------------------------------------------------------


class Agent:
    """Policy, critic, target critic, and their optimizer plus the SID index."""

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
        self.catalog = np.array(catalog, dtype=np.int64)
        self.opt = Optimizer(
            list(self.policy.tensors().values()) + list(self.critic.tensors().values()),
            lr=train_cfg.learning_rate)
        self.updates = 0
        self._loads = 0

    @property
    def version(self) -> int:
        """Counts the events that move parameters: optimizer steps and
        checkpoint loads, so it changes whenever either happens."""
        return self.opt.step_count + self._loads

    def _blocks(self) -> dict[str, Tensor]:
        """Checkpoint block name -> parameter: policy `hpn/`, then critic `mlc/`."""
        return {**{f"hpn/{k}": v for k, v in self.policy.tensors().items()},
                **{f"mlc/{k}": v for k, v in self.critic.tensors().items()}}

    def tensors(self) -> dict[str, np.ndarray]:
        return {name: t.data for name, t in self._blocks().items()}

    def load_arrays(self, named: dict[str, np.ndarray]) -> None:
        load_into(self._blocks(), named, "checkpoint")
        self._loads += 1
        self.target.hard_sync(self.critic)

    def weight_columns(self) -> np.ndarray:
        if self.cfg.variant == "single_critic":
            return np.eye(self.critic.cfg.n_values)[0]
        return weight_snapshot(self.critic)


def rollout(agent: Agent, env: Environment, mode: str,
            rng_env: np.random.Generator,
            rng_act: np.random.Generator | None) -> tuple[list[Transition], EpisodeMetrics]:
    """Play one episode; sample mode trains, greedy mode evaluates.

    Sample mode records each step's encode and forward with gradient
    tracking and keeps them on its transition for `train_step`; greedy mode
    records nothing.
    """
    flat = agent.cfg.variant == "flat_policy"
    record = mode == "sample"
    key = (agent, agent.version) if record else None
    session = env.reset(rng_env)
    transitions: list[Transition] = []
    total = 0.0
    done = False
    while not done:
        with nullcontext() if record else ad.no_grad():
            c0 = encode_state(agent.policy, session.state)
            out = forward(agent.policy, c0, flat=flat)
        if transitions:
            # a copy: with an empty history trajectory[0] is the start
            # parameter itself, which the optimizer updates in place, so a
            # batch trained on again would otherwise read a moved target
            transitions[-1].next_contexts = [c.data.copy() for c in out.trajectory]
        slate = select_slate(out, agent.index, agent.catalog,
                             env.cfg.slate_size, mode, rng_act)
        feedback, reward, nxt, done = env.step(session, slate, rng_env)
        transitions.append(Transition(
            state=session.state,
            sids=tuple(agent.index.sid_of(i) for i in slate),
            feedback=feedback,
            reward=reward,
            done=int(done),
            graph=(c0, out) if record else None,
            graph_key=key,
        ))
        total += reward
        session = nxt
    return transitions, EpisodeMetrics(total_reward=total, depth=len(transitions))


def _batch_mean(terms: list[Tensor], batch: int) -> Tensor:
    total = terms[0]
    for t in terms[1:]:
        total = ad.add(total, t)
    return ad.scale(total, 1.0 / batch)


def train_step(agent: Agent, transitions: list[Transition]) -> dict:
    """One joint update on a batch of transitions; returns the loss report."""
    cfg = agent.cfg
    batch = len(transitions)
    if batch < 1:
        raise ContractError("empty batch")
    flat = cfg.variant == "flat_policy"
    single = cfg.variant == "single_critic"
    bc_only = cfg.variant == "bc_only"
    entropy_weight = (0.0 if cfg.variant in ("no_entropy", "bc_only")
                      else cfg.lambda_entropy)
    use_bc = cfg.lambda_bc > 0.0 and cfg.variant != "no_bc"

    critic_terms, pg_terms, ent_terms, bc_terms = [], [], [], []

    for tr in transitions:
        if tr.graph_key == (agent, agent.version):
            c0, out = tr.graph
        else:
            c0 = encode_state(agent.policy, tr.state)
            out = forward(agent.policy, c0, flat=flat)
        tr.graph = tr.graph_key = None

        if not bc_only:
            trajectory = [c0] if single else forward(
                agent.policy, c0, flat=flat, heads_detached=True).trajectory
            v_hat = trajectory_value(agent.critic, trajectory)
            if tr.done:
                q = tr.reward
            else:
                contexts = tr.next_contexts[:1] if single else tr.next_contexts
                q = td_target(tr.reward, 0, agent.target.value(contexts), cfg.gamma)
            adv = advantage(q, float(v_hat.data), cfg.advantage_clip)

            diff = ad.shift(v_hat, -q)
            critic_terms.append(ad.mul(diff, diff))
            pg_terms.append(ad.scale(slate_log_prob(out, tr.sids), -adv))
        # reported for every variant; weighted into the loss when it is on,
        # and kept off the tape when it is not
        with nullcontext() if entropy_weight else ad.no_grad():
            ent_terms.append(entropy_term(out))

        if use_bc or bc_only:
            term = bc_loss(out, tr.sids, tr.feedback)
            if term is not None:
                bc_terms.append(term)

    report = {"loss_V": 0.0, "loss_PG": 0.0, "H_en": 0.0, "loss_BC": 0.0}
    total: Tensor | None = None
    for key, parts, weight in (("loss_V", critic_terms, 1.0),
                               ("loss_PG", pg_terms, 1.0),
                               ("H_en", ent_terms, entropy_weight),
                               ("loss_BC", bc_terms, cfg.lambda_bc)):
        if not parts:
            continue
        with nullcontext() if weight else ad.no_grad():
            mean = _batch_mean(parts, batch)
        report[key] = float(mean.data)
        if weight != 0.0:
            part = ad.scale(mean, weight) if weight != 1.0 else mean
            total = part if total is None else ad.add(total, part)

    if total is not None and total.requires_grad:
        agent.opt.zero_grad()
        ad.backward(total)
        agent.opt.step()
    agent.updates += 1

    if not bc_only:
        agent.target.soft_update(agent.critic, cfg.target_tau)

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


def metrics_columns(levels: int) -> list[str]:
    return (["iteration", "total_reward", "depth", "loss_V", "loss_PG",
             "H_en", "loss_BC"]
            + [f"w_{l}" for l in range(levels + 1)] + ["seed"])


EVAL_COLUMNS = ["iteration", "episodes", "mean_total_reward",
                "median_total_reward", "std_total_reward", "mean_depth",
                "median_depth", "std_depth", "seed"]


def evaluate(agent: Agent, env: Environment, episodes: int, seed: int,
             tag: int) -> list[EpisodeMetrics]:
    """Greedy episodes on the evaluation simulator with per-episode streams."""
    out = []
    for i in range(episodes):
        rng_env = np.random.default_rng([seed, _STREAM_EVAL, tag, i])
        _, metrics = rollout(agent, env, "greedy", rng_env, None)
        out.append(metrics)
    return out


def _summary_row(iteration: int, metrics: list[EpisodeMetrics], seed: int):
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
    iteration = 0
    episode = 0
    eval_bucket = 0
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
                [iteration, metrics.total_reward,
                 float(metrics.depth), report["loss_V"],
                 report["loss_PG"], report["H_en"], report["loss_BC"]]
                + [float(w) for w in report["weights"]] + [seed])
        if (eval_writer is not None and cfg.eval_every > 0
                and iteration // cfg.eval_every > eval_bucket):
            eval_bucket = iteration // cfg.eval_every
            metrics = evaluate(agent, ctx.eval_env, cfg.eval_episodes,
                               seed, eval_bucket)
            eval_writer.write(_summary_row(iteration, metrics, seed))


def run_experiment(ctx: ExperimentContext, train_cfg: TrainConfig, seed: int,
                   metrics_writer: MetricsWriter | None = None,
                   eval_writer: MetricsWriter | None = None) -> tuple[Agent, list[EpisodeMetrics]]:
    """Train a fresh agent and score it on the evaluation simulator."""
    agent = Agent(ctx.policy_cfg, ctx.critic_cfg, train_cfg, ctx.index,
                  ctx.catalog, seed, ctx.codebook, ctx.item_features)
    run_training(agent, ctx, seed, metrics_writer, eval_writer)
    final = evaluate(agent, ctx.eval_env, train_cfg.eval_episodes, seed,
                     _FINAL_EVAL_TAG)
    return agent, final


def run_ablation(variant: str, ctx: ExperimentContext, base_cfg: TrainConfig,
                 seeds: list[int]) -> dict:
    """Train/eval one ablation variant across seeds under shared budgets."""
    if variant not in ABLATION_VARIANTS:
        raise ConfigError(f"unknown ablation variant {variant!r}")
    cfg = replace(base_cfg, variant=variant)
    rewards, depths = [], []
    for seed in seeds:
        _, metrics = run_experiment(ctx, cfg, seed)
        rewards.append(float(np.mean([m.total_reward for m in metrics])))
        depths.append(float(np.mean([m.depth for m in metrics])))
    return {
        "variant": variant,
        "median_total_reward": float(median(rewards)),
        "median_depth": float(median(depths)),
        "per_seed_total_reward": rewards,
        "per_seed_depth": depths,
    }
