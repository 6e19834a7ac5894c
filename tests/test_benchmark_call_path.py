"""The benchmark (`benchmarks/run.py`) drives hsrl through `benchmarks/workloads.py`:
it builds a context with `fit_simulators` and `ExperimentContext`'s keywords,
makes an `Agent` with positional `codebook` and `item_features`, trains,
evaluates, and samples extra episodes with `rollout(..., "sample", ...)`.
A signature change in `src/` that breaks those calls must fail here, in the
unit suite, not only when the benchmark runs."""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

import hsrl.trainer as trainer

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
