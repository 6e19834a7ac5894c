"""The benchmark (`benchmarks/run.py`) drives hsrl through `benchmarks/workloads.py`:
it builds a context with `fit_simulators` and `ExperimentContext`'s keywords,
makes an `Agent` with positional `codebook` and `item_features`, trains,
evaluates, and samples extra episodes with `rollout(..., "sample", ...)`.
A signature change in `src/` that breaks those calls must fail here, in the
unit suite, not only when the benchmark runs. Its hand-built contexts are
the ones `cli.build_contexts` builds from the configs its workloads stand for."""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

import hsrl.trainer as trainer
from hsrl.cli import build_contexts
from hsrl.config import Manifest, default_config

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(BENCHMARKS))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(BENCHMARKS))


def test_a_short_benchmark_run_passes_its_output_checks(workloads):
    w = workloads.WORKLOADS["desk_bc_only"]
    ctx = workloads.build_context(w)
    progress = workloads.Progress(planned=workloads.EVAL_REPEATS * w.eval_episodes)
    run = workloads.train_and_eval(ctx, w, 0, 100, progress)
    assert workloads.check_run(run) == []
    assert progress.counts()[1] == 0
    # the critic probe's call: a sampled episode, then one update on it
    rngs = [np.random.default_rng([0, 1000 + stream]) for stream in (0, 1)]
    transitions, _ = trainer.rollout(run.agent, ctx.train_env, "sample", *rngs)
    report = trainer.train_step(run.agent, transitions)
    assert transitions and np.isfinite(report["loss_BC"])


@pytest.mark.parametrize("name, overrides", [
    ("desk_full", {"tokenizer": {"vocab_size": 16}}),
    ("catalog_5k", {"data": {"n_items": 5000, "n_clusters": 32, "embed_dim": 32,
                             "slates_per_user": 8},
                    "tokenizer": {"vocab_size": 64}}),
])
def test_the_benchmark_measures_the_context_the_cli_builds(workloads, tmp_path,
                                                           name, overrides):
    cfg = default_config()
    for section, values in overrides.items():
        cfg[section].update(values)
    cli_ctx, = build_contexts(cfg, tmp_path, Manifest(tmp_path, "train", cfg,
                                                      [str(tmp_path)]))
    bench_ctx = workloads.build_context(workloads.WORKLOADS[name])
    assert workloads.fingerprint(cli_ctx) == workloads.fingerprint(bench_ctx)
    for field in ("policy_cfg", "critic_cfg", "env_cfg", "catalog"):
        assert getattr(cli_ctx, field) == getattr(bench_ctx, field), field
