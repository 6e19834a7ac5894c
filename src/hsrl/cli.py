"""Command-line harness tying the pipeline together.

Commands: tokenize, fit-sim, train, eval, sweep, ablate, gen-data. Every
run resolves its configuration document, writes a manifest before doing
any work, and emits CSV outputs that are bitwise-reproducible for a fixed
(config, seeds) pair. `eval` reads `codebook.bin` and `sim_eval.ckpt` from
the checkpoint's directory. Exit codes: 0 success, 2 config error, 3 data
or format error, 4 numeric abort, 5 internal error (any other exception).
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from dataclasses import replace
from pathlib import Path
from statistics import median

import numpy as np

from . import env as env_mod
from . import tokenizer as tok_mod
from . import trainer as tr_mod
from .checkpoint import load_tensors, save_tensors
from .config import (Manifest, RunConfig, apply_seed_overrides, default_config,
                     load_config)
from .errors import ConfigError, DataError, FormatError, NumericsError

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
EXIT_INTERNAL = 5

SWEEP_GRIDS = {
    "entropy": [0.0, 0.1, 0.2, 0.3],
    "vocab": [16, 32, 64, 80, 128],
    "levels": [2, 3, 4, 5],
}
# axis -> the (section, key) its grid values set
_SWEEP_KEYS = {"entropy": ("training", "lambda_entropy"),
               "vocab": ("tokenizer", "vocab_size"), "levels": ("tokenizer", "levels")}

_DATA_SEED_TAG = 100


# ---------------------------------------------------------------------------
# Pipeline builders
# ---------------------------------------------------------------------------


def _synthesize(cfg: RunConfig, out: Path) -> env_mod.SyntheticDataset:
    synth = env_mod.generate_synthetic(
        cfg.synth_config(), [cfg["seeds"]["simulator"], _DATA_SEED_TAG])
    tok_mod.save_embeddings(out / "embeddings.tsv", synth.items)
    env_mod.save_records(out / "records.tsv", synth.records)
    return synth


def _read(load, path, what: str, *args):
    """`load(path, *args)`; a file it cannot open is a data error, and a
    malformed or unusable one names its path."""
    try:
        return load(path, *args)
    except FileNotFoundError:
        raise DataError(f"{what} not found: {path}") from None
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from None
    except (DataError, FormatError) as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def _check_records(items, records) -> None:
    known = set(items.ids.tolist())
    for n, rec in enumerate(records, start=1):
        unknown = set(rec.history + rec.slate) - known
        if unknown:
            raise DataError(f"record {n} names item {min(unknown)}, which is "
                            f"not in the embeddings catalog")


def _load_dataset(cfg: RunConfig, out: Path):
    """Resolve (items, records) from the synthetic generator or user files."""
    data = cfg["data"]
    if data["source"] == "synthetic":
        synth = _synthesize(cfg, out)
        return synth.items, synth.records

    if not data["embeddings_path"]:
        raise DataError("data.source=files needs data.embeddings_path")
    items = _read(tok_mod.load_embeddings, data["embeddings_path"], "embeddings file")
    slate_size = cfg["env"]["slate_size"]
    if slate_size > len(items):
        raise DataError(f"slate size {slate_size} exceeds the {len(items)} "
                        f"items of the embeddings catalog")
    if data["records_path"]:
        records = _read(env_mod.load_records, data["records_path"], "records file")
    elif data["ratings_path"]:
        records = _read(env_mod.ingest_ml1m_style, data["ratings_path"],
                        "ratings file")
    else:
        raise DataError("data.source=files needs records_path or ratings_path")
    _check_records(items, records)
    return items, records


def _n_items(items) -> int:
    """Table rows for the catalog. Item ids index rows directly, so the
    sorted ids must be exactly 0..N-1."""
    gaps = np.flatnonzero(items.ids != np.arange(len(items)))
    if gaps.size:
        raise DataError(f"item ids must be 0..N-1 with none missing; "
                        f"id {int(gaps[0])} is missing from the catalog")
    return len(items)


def _build_simulators(cfg: RunConfig, items, n_items: int, records, out: Path,
                      manifest: Manifest):
    """Fit, save and score the two simulators. The manifest gets the train
    simulator's log loss on the records it was not fitted on, next to that of
    a constant predictor at the train split's click rate."""
    train_sim, eval_sim = env_mod.fit_simulators(
        records, n_items, cfg.sim_config(), cfg["seeds"]["simulator"],
        item_features=items.vectors)
    env_mod.save_response_model(out / "sim_train.ckpt", train_sim)
    env_mod.save_response_model(out / "sim_eval.ckpt", eval_sim)
    split = env_mod.train_split(records)
    rate = float(np.mean([y for rec in records[:split] for y in rec.labels]))
    manifest.record("simulator_fit", {
        "held_out_log_loss": env_mod.held_out_log_loss(train_sim, records[split:]),
        "constant_log_loss": env_mod.constant_log_loss(rate, records[split:]),
    })
    return train_sim, eval_sim


def build_contexts(cfg: RunConfig, out: Path, manifest: Manifest,
                   grid: list[RunConfig] | None = None) -> list[tr_mod.ExperimentContext]:
    """One experiment context per config point: `cfg` alone, whose codebook
    is saved as `codebook.bin`, or each point of a sweep's `grid`. The data
    comes first, then every point's codebook, then the two simulators, fitted
    once for all points, so a grid the catalog cannot tokenize fails before
    any simulator is fitted or any agent trained."""
    items, records = _load_dataset(cfg, out)
    n_items = _n_items(items)
    points = grid or [cfg]
    books = [tok_mod.fit_codebook(items, p.vocab_sizes(), p["seeds"]["tokenizer"])
             for p in points]
    if not grid:
        tok_mod.save_codebook(out / "codebook.bin", *books[0])
    train_sim, eval_sim = _build_simulators(cfg, items, n_items, records, out,
                                            manifest)
    pool = env_mod.make_user_pool(records)
    contexts = []
    for point, (book, index) in zip(points, books):
        env_cfg = point.env_config()
        contexts.append(tr_mod.ExperimentContext(
            point.policy_config(n_items), point.critic_config(), env_cfg, book,
            index, [int(i) for i in items.ids],
            env_mod.Environment(train_sim, pool, env_cfg),
            env_mod.Environment(eval_sim, pool, env_cfg), items.vectors))
    return contexts


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_gen_data(cfg: RunConfig, out: Path, args) -> int:
    synth = _synthesize(cfg, out)
    with open(out / "clusters.tsv", "w") as fh:
        for i, c in enumerate(synth.item_clusters):
            fh.write(f"item\t{i}\t{c}\n")
        for u, p in enumerate(synth.user_prefs):
            fh.write(f"user\t{u}\t{p}\n")
    print(f"wrote {len(synth.items)} items and {len(synth.records)} records to {out}")
    return 0


def cmd_tokenize(cfg: RunConfig, out: Path, args) -> int:
    items, _ = _load_dataset(cfg, out)
    book, index = tok_mod.fit_codebook(items, cfg.vocab_sizes(),
                                       cfg["seeds"]["tokenizer"])
    tok_mod.save_codebook(out / "codebook.bin", book, index)
    report = tok_mod.collision_report(index, book.vocab_sizes)
    print(f"codebook: L={book.levels} d={book.dim} vocab={book.vocab_sizes}")
    print(f"items={report.n_items} sids={report.n_sids} "
          f"collided={report.n_collided_sids} max_bucket={report.max_bucket}")
    for lvl, h in enumerate(report.level_entropy):
        cap = float(np.log(book.vocab_sizes[lvl]))
        print(f"level {lvl + 1}: token entropy {h:.4f} (max {cap:.4f})")
    return 0


def cmd_fit_sim(cfg: RunConfig, out: Path, args) -> int:
    items, records = _load_dataset(cfg, out)
    _build_simulators(cfg, items, _n_items(items), records, out, args.manifest)
    print(f"fitted train/eval simulators on {len(records)} records -> {out}")
    return 0


def cmd_train(cfg: RunConfig, out: Path, args) -> int:
    ctx, = build_contexts(cfg, out, args.manifest)
    train_cfg = cfg.train_config()
    seed = cfg["seeds"]["agent"]
    agent = tr_mod.Agent(ctx.policy_cfg, ctx.critic_cfg, train_cfg, ctx.index,
                         ctx.catalog, seed, ctx.codebook, ctx.item_features)
    columns = tr_mod.metrics_columns(len(cfg.vocab_sizes()))
    with (tr_mod.MetricsWriter(out / "metrics.csv", columns) as metrics,
          tr_mod.MetricsWriter(out / "eval_metrics.csv", tr_mod.EVAL_COLUMNS) as evals):
        try:
            tr_mod.run_training(agent, ctx, seed, metrics, evals)
        except NumericsError as exc:
            # The parameters are the last completed update's: an optimizer step
            # that raises has written nothing.
            save_tensors(out / "agent.ckpt", agent.tensors())
            (out / "abort.json").write_text(json.dumps(
                {"error": str(exc), "updates": agent.updates}, indent=2) + "\n")
            raise
    save_tensors(out / "agent.ckpt", agent.tensors())
    final = tr_mod.evaluate(agent, ctx.eval_env, train_cfg.eval_episodes, seed)
    rewards = [m.total_reward for m in final]
    depths = [m.depth for m in final]
    print(f"trained {agent.updates} updates over {train_cfg.iterations} "
          f"interaction steps (variant={train_cfg.variant})")
    if final:
        print(f"eval: mean total reward {np.mean(rewards):.4f}, "
              f"mean depth {np.mean(depths):.2f} over {len(final)} episodes")
    return 0


def cmd_eval(cfg: RunConfig, out: Path, args) -> int:
    ckpt = Path(args.checkpoint) if args.checkpoint else out / "agent.ckpt"
    named = _read(load_tensors, ckpt, "checkpoint")
    book_path = ckpt.parent / "codebook.bin"
    book, index = _read(tok_mod.load_codebook, book_path, "codebook")
    eval_sim = _read(env_mod.load_response_model, ckpt.parent / "sim_eval.ckpt",
                     "simulator checkpoint", len(index), cfg.sim_config())
    items, records = _load_dataset(cfg, out)
    misfit = f"codebook {book_path} does not fit this config and catalog"
    if not np.array_equal(index.ids, items.ids):
        raise DataError(misfit)  # before `Agent` looks every catalog id up
    train_cfg = cfg.train_config()
    seed = cfg["seeds"]["agent"]
    agent = tr_mod.Agent(cfg.policy_config(_n_items(items)), cfg.critic_config(),
                         train_cfg, index, items.ids, seed, book, items.vectors)
    agent.load_arrays(named)  # a checkpoint that does not fit the config is named first
    if book.vocab_sizes != cfg.vocab_sizes():
        raise DataError(misfit)
    env = env_mod.Environment(eval_sim, env_mod.make_user_pool(records),
                              cfg.env_config())
    episodes = tr_mod.evaluate(agent, env, train_cfg.eval_episodes, seed)
    row = tr_mod.summary_row(0, episodes, seed)
    with tr_mod.MetricsWriter(out / "eval_summary.csv", tr_mod.EVAL_COLUMNS) as writer:
        writer.write(row)
    _, n, r_mean, r_median, r_std, d_mean, d_median, d_std, _ = row
    print(f"episodes={n}")
    print(f"total_reward mean={r_mean:.4f} median={r_median:.4f} std={r_std:.4f}")
    print(f"depth mean={d_mean:.2f} median={d_median:.2f} std={d_std:.2f}")
    return 0


def cmd_ablate(cfg: RunConfig, out: Path, args) -> int:
    ctx, = build_contexts(cfg, out, args.manifest)
    seeds = cfg.agent_seeds()
    base_cfg = cfg.train_config()
    medians = {}  # variant -> (median total reward, median depth) over seeds
    for variant in tr_mod.ABLATION_VARIANTS:
        runs = tr_mod.run_seeds(ctx, replace(base_cfg, variant=variant), seeds)
        medians[variant] = tuple(float(median(values)) for values in runs)
    full_reward, full_depth = medians["full"]
    with tr_mod.MetricsWriter(out / "ablation.csv", [
            "variant", "median_total_reward", "median_depth",
            "delta_total_reward_pct", "delta_depth_pct", "n_seeds"]) as writer:
        for variant, (reward, depth) in medians.items():
            d_r = _pct_delta(reward, full_reward)
            d_d = _pct_delta(depth, full_depth)
            writer.write([variant, reward, depth, d_r, d_d, len(seeds)])
            print(f"{variant}: median reward {reward:.4f} "
                  f"({d_r:+.1f}%), median depth {depth:.2f}")
    return 0


def _pct_delta(value: float, reference: float) -> float:
    if reference == 0.0:
        return 0.0
    return 100.0 * (value - reference) / abs(reference)


def cmd_sweep(cfg: RunConfig, out: Path, args) -> int:
    axis = args.axis
    section, key = _SWEEP_KEYS[axis]
    seeds = cfg.agent_seeds()
    grid = []
    for value in SWEEP_GRIDS[axis]:
        point = RunConfig({s: dict(sec) for s, sec in cfg.values.items()})
        point.values[section][key] = value
        grid.append(point)
    contexts = build_contexts(cfg, out, args.manifest, grid)
    with tr_mod.MetricsWriter(out / "sweep.csv", [
            "axis", "value", "median_total_reward", "mean_total_reward",
            "median_depth", "mean_depth", "n_seeds"]) as writer:
        for value, point, ctx in zip(SWEEP_GRIDS[axis], grid, contexts):
            rewards, depths = tr_mod.run_seeds(ctx, point.train_config(), seeds)
            writer.write([axis, value, float(median(rewards)),
                          float(np.mean(rewards)), float(median(depths)),
                          float(np.mean(depths)), len(seeds)])
            print(f"{axis}={value}: median reward {median(rewards):.4f}")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


_COMMANDS = {
    "gen-data": (cmd_gen_data, "generate the synthetic catalog and logs"),
    "tokenize": (cmd_tokenize, "fit the semantic-ID codebook"),
    "fit-sim": (cmd_fit_sim, "fit the train/eval user simulators"),
    "train": (cmd_train, "train the agent and write metrics"),
    "eval": (cmd_eval, "evaluate a checkpoint on the eval simulator"),
    "sweep": (cmd_sweep, "sensitivity sweep over one axis"),
    "ablate": (cmd_ablate, "run the ablation variants"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hsrl")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="path to the run configuration document")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed-tok", type=int, dest="seed_tok")
        p.add_argument("--seed-sim", type=int, dest="seed_sim")
        p.add_argument("--seed-agent", type=int, dest="seed_agent")
        if name == "eval":
            p.add_argument("--checkpoint", help="agent checkpoint to evaluate")
        if name == "sweep":
            p.add_argument("--axis", required=True, choices=sorted(SWEEP_GRIDS))
    return parser


# error type -> (stderr label, exit code); any other exception is internal
_FAILURES = ((ConfigError, "config error", EXIT_CONFIG),
             ((DataError, FormatError), "data error", EXIT_DATA),
             (NumericsError, "numeric abort", EXIT_NUMERIC))


def _start_run(out: Path, command: str, cfg: RunConfig) -> Manifest:
    """Create the output directory and its running manifest. A path that
    cannot hold them is a config error, as a bad `--seed-*` is."""
    try:
        out.mkdir(parents=True, exist_ok=True)
        return Manifest(out, command, cfg, outputs=[str(out)])
    except OSError as exc:
        raise ConfigError(f"cannot write the output directory {out}: {exc}") from None


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    manifest = None
    try:
        cfg = load_config(args.config) if args.config else default_config()
        apply_seed_overrides(cfg, tokenizer=args.seed_tok,
                             simulator=args.seed_sim, agent=args.seed_agent)
        out = Path(args.out)
        # commands add what they measure to the manifest
        args.manifest = manifest = _start_run(out, args.command, cfg)
        code = _COMMANDS[args.command][0](cfg, out, args)
    except Exception as exc:
        label, code = next(((label, code) for kind, label, code in _FAILURES
                            if isinstance(exc, kind)), ("internal error", EXIT_INTERNAL))
        error, trace = str(exc), None
        if code == EXIT_INTERNAL:
            error, trace = f"{type(exc).__name__}: {exc}", traceback.format_exc()
        if manifest is not None:
            manifest.finalize("failed", error, trace)
        print(f"{label}: {error}", file=sys.stderr)
        return code
    manifest.finalize("complete")
    return code


if __name__ == "__main__":
    sys.exit(main())
