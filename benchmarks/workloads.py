"""The benchmark's workloads and the calls it times.

Every call goes through an attribute of an `hsrl` module looked up at call
time (`env_mod.fit_simulators`, `tr.run_training`, ...), so the tracer's
wrappers see the same calls an untraced run makes.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from hsrl import env as env_mod
from hsrl import tokenizer as tok_mod
from hsrl import trainer as tr
from hsrl.critic import CriticConfig
from hsrl.policy import PolicyConfig

from tracer import node_counter, wall

# Acceptance criterion 6 builds one context from tokenizer seed 7 and
# simulator seed 11 and trains agent seeds 13..17 on it. The benchmark does
# the same: --seed n trains agent seed 13 + n, which draws the agent's
# initial weights and every sampled user session, on that fixed context.
TOKENIZER_SEED = 7
SIMULATOR_SEED = 11
AGENT_SEED = 13
DATA_SEED_TAG = 100          # criterion 6 seeds the synthetic data [11, 100]
FINAL_EVAL_TAG = 999         # run_experiment's final-eval stream tag
SETUP_REPEATS = 3
EVAL_REPEATS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    variant: str
    n_items: int
    n_clusters: int
    dim: int
    slates_per_user: int
    vocab: tuple[int, ...]
    steps_per_second: int     # training rate on the reference host
    eval_episodes: int

    def iterations(self, seconds: int) -> int:
        """Interaction budget that trains for about `seconds` on the
        reference host; a fixed count keeps every result deterministic."""
        return self.steps_per_second * seconds


# Why each workload exists: README.md and BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("desk_full", "full", 300, 8, 16, 16, (16, 16, 16), 280, 30),
    Workload("desk_bc_only", "bc_only", 300, 8, 16, 16, (16, 16, 16), 480, 30),
    Workload("catalog_5k", "full", 5000, 32, 32, 8, (64, 64, 64), 160, 10),
)}

HORIZON = 20


def build_context(w: Workload) -> tr.ExperimentContext:
    """Synthetic data, codebook, both simulators and the user pool, as
    acceptance criterion 6 builds them."""
    synth = env_mod.generate_synthetic(
        env_mod.SynthConfig(n_items=w.n_items, n_clusters=w.n_clusters,
                            dim=w.dim, slates_per_user=w.slates_per_user),
        [SIMULATOR_SEED, DATA_SEED_TAG])
    book, index = tok_mod.fit_codebook(synth.items, w.vocab, TOKENIZER_SEED)
    train_sim, eval_sim = env_mod.fit_simulators(
        synth.records, w.n_items, env_mod.SimFitConfig(), SIMULATOR_SEED,
        synth.items.vectors)
    pool = env_mod.make_user_pool(synth.records)
    env_cfg = env_mod.EnvConfig(slate_size=5, patience=3, horizon=HORIZON)
    return tr.ExperimentContext(
        policy_cfg=PolicyConfig(n_items=w.n_items, vocab_sizes=w.vocab),
        critic_cfg=CriticConfig(d_model=32, levels=len(w.vocab)),
        env_cfg=env_cfg, codebook=book, index=index,
        catalog=list(range(w.n_items)),
        train_env=env_mod.Environment(train_sim, pool, env_cfg),
        eval_env=env_mod.Environment(eval_sim, pool, env_cfg),
        item_features=synth.items.vectors)


def fingerprint(ctx: tr.ExperimentContext) -> str:
    """Digest of everything set-up produces; equal contexts, equal digests."""
    h = hashlib.sha256()
    for c in ctx.codebook.centroids:
        h.update(c.tobytes())
    h.update(ctx.index.sid_matrix(ctx.catalog).tobytes())
    for env in (ctx.train_env, ctx.eval_env):
        for name, t in sorted(env.model.tensors().items()):
            h.update(name.encode())
            h.update(t.data.tobytes())
    h.update(repr(ctx.train_env.pool).encode())
    return h.hexdigest()


@dataclass
class Progress:
    """Operations attempted and failed: set-ups, optimizer updates and eval
    episodes. Planned set-ups and episodes count as attempted from the start,
    so a run that aborts counts everything it did not finish as failed."""

    planned: int              # set-ups plus eval episodes
    done: int = 0             # set-ups plus eval episodes finished
    updates: int = 0          # updates of finished trainings
    log: "UpdateLog | None" = None   # training in progress

    def counts(self) -> tuple[int, int]:
        attempted = self.planned + self.updates
        failed = self.planned - self.done
        if self.log is not None:      # the update in flight when it stopped
            attempted += len(self.log.rows) + 1
            failed += 1
        return attempted, failed


class UpdateLog:
    """`metrics_writer` stand-in: run_training writes one row per optimizer
    update; this keeps the row and the time it arrived."""

    def __init__(self):
        self.times: list[float] = []
        self.rows: list[list] = []

    def write(self, values) -> None:
        self.times.append(perf_counter())
        self.rows.append(list(values))


@dataclass
class AgentRun:
    agent: tr.Agent
    iterations: int
    start: float
    log: UpdateLog
    train_nodes: int
    evals: list            # per repeat: list of EpisodeMetrics
    eval_spans: list[tuple[float, float]]
    eval_nodes: list[int]

    @property
    def steps(self) -> int:
        return int(self.log.rows[-1][0])

    def train_seconds(self, seconds=wall) -> float:
        return seconds(self.start, self.log.times[-1])

    def update_ms_per_step(self, seconds=wall) -> list[float]:
        """One sample per update: its rollout plus train_step, per step."""
        out, prev = [], self.start
        for t, row in zip(self.log.times, self.log.rows):
            out.append(1e3 * seconds(prev, t) / row[2])
            prev = t
        return out

    def eval_rates(self, seconds=wall) -> list[float]:
        return [self.eval_steps() / seconds(a, b) for a, b in self.eval_spans]

    def eval_steps(self) -> int:
        return sum(m.depth for m in self.evals[0])

    def eval_reward(self) -> float:
        return float(np.mean([m.total_reward for m in self.evals[0]]))

    def loss_trace(self) -> list[list]:
        return [row[:-1] for row in self.log.rows]


def train_and_eval(ctx: tr.ExperimentContext, w: Workload, seed: int,
                   iterations: int, progress: Progress,
                   tracer=None) -> AgentRun:
    """run_experiment's steps (agent, run_training, final greedy eval) with
    the eval repeated for timing; same config as acceptance criterion 6."""
    agent_seed = AGENT_SEED + seed
    cfg = tr.TrainConfig(iterations=iterations, gamma=0.9, eval_every=0,
                         eval_episodes=w.eval_episodes, variant=w.variant)
    agent = tr.Agent(ctx.policy_cfg, ctx.critic_cfg, cfg, ctx.index,
                     ctx.catalog, agent_seed, ctx.codebook, ctx.item_features)
    log = progress.log = UpdateLog()
    if tracer:
        tracer.set_phase("train")
    n0, start = node_counter(), perf_counter()
    tr.run_training(agent, ctx, agent_seed, log)
    train_nodes = node_counter() - n0
    progress.updates += len(log.rows)
    progress.log = None

    if tracer:
        tracer.set_phase("eval")
    evals, spans, nodes = [], [], []
    for _ in range(EVAL_REPEATS):
        n0, t0 = node_counter(), perf_counter()
        metrics = tr.evaluate(agent, ctx.eval_env, cfg.eval_episodes,
                              agent_seed, FINAL_EVAL_TAG)
        spans.append((t0, perf_counter()))
        nodes.append(node_counter() - n0)
        evals.append(metrics)
        progress.done += len(metrics)
    return AgentRun(agent, iterations, start, log, train_nodes, evals, spans,
                    nodes)


def check_run(run: AgentRun) -> list[str]:
    """Output checks; returns the failures found."""
    bad = []
    lo, hi = -0.2 * HORIZON, float(HORIZON)
    if run.steps < run.iterations:
        bad.append(f"trained {run.steps} of {run.iterations} steps")
    prev = 0
    for row in run.log.rows:
        iteration, reward, depth, losses = row[0], row[1], row[2], row[3:7]
        if not all(math.isfinite(x) for x in losses):
            bad.append(f"non-finite loss at iteration {iteration}: {losses}")
        if not lo <= reward <= hi:
            bad.append(f"episode reward {reward} outside [{lo}, {hi}]")
        if not 1 <= depth <= HORIZON or iteration - prev != depth:
            bad.append(f"episode depth {depth} at iteration {iteration}")
        prev = iteration
    for m in run.evals[0]:
        if not lo <= m.total_reward <= hi or not 1 <= m.depth <= HORIZON:
            bad.append(f"eval episode reward {m.total_reward} depth {m.depth}")
    if any(e != run.evals[0] for e in run.evals[1:]):
        bad.append("repeated greedy evals disagree")
    if len(set(run.eval_nodes)) != 1:
        bad.append(f"eval node counts differ across repeats: {run.eval_nodes}")
    return bad
