"""Self-tests of the benchmark's tracer and measurement on a small seeded
workload.

    python3 -m pytest benchmarks -q
"""

import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import hsrl  # noqa: E402
from hsrl import trainer as tr  # noqa: E402
from pace import REFERENCE_S, Pacer  # noqa: E402
from tracer import FUNCTIONS, METHODS, Summary, Tracer  # noqa: E402
from workloads import (AGENT_SEED, EVAL_REPEATS, WORKLOADS, Progress,  # noqa: E402
                       UpdateLog, build_context, check_run, fingerprint,
                       train_and_eval)

ITERATIONS = 120


def small(variant: str):
    return replace(WORKLOADS["desk_full"], variant=variant, n_items=60,
                   n_clusters=4, dim=8, slates_per_user=2, vocab=(4, 4, 4),
                   eval_episodes=4)


def bindings() -> dict:
    """Every hsrl module attribute and traced class method, by identity."""
    out = {}
    for name, mod in sys.modules.items():
        if name == "hsrl" or name.startswith("hsrl."):
            out.update({(name, k): v for k, v in vars(mod).items()})
    for modname, cls_name, attr, _ in METHODS:
        cls = getattr(sys.modules[modname], cls_name)
        out[modname, cls_name, attr] = cls.__dict__[attr]
    return out


@pytest.fixture(scope="module")
def ctx():
    return build_context(small("full"))


@pytest.mark.parametrize("variant,critic_views", [("full", 2), ("bc_only", 1)])
def test_call_counts_and_wrapper_removal(ctx, variant, critic_views):
    w = small(variant)
    before = bindings()
    tracer = Tracer()
    with tracer:
        # every binding of a traced function now points at its wrapper
        for modname, attr, _ in FUNCTIONS:
            traced = getattr(sys.modules[modname], attr)
            assert hasattr(traced, "__wrapped__")
            assert all(v is not traced.__wrapped__
                       for v in bindings().values())
        run = train_and_eval(ctx, w, 0, ITERATIONS, Progress(planned=0), tracer)
    assert bindings() == before          # every wrapper removed
    assert hsrl.trainer.forward is hsrl.policy.forward

    s = Summary(tracer.spans)
    steps, eval_steps = run.steps, EVAL_REPEATS * run.eval_steps()
    assert s.errors == 0
    assert s.calls("trainer.train_step") == len(run.log.rows)
    assert s.calls("trainer.rollout") == len(run.log.rows)
    # rollout: one no-grad forward per step; train_step: the actor pass and,
    # for full, the heads-detached critic view per transition
    assert s.calls("policy.forward") == steps + critic_views * steps
    assert s.calls("policy.forward", ("eval",)) == eval_steps
    for phase, n in (("train", steps), ("eval", eval_steps)):
        for name in ("tokenizer.sid_matrix", "policy.select_slate", "env.step"):
            assert s.calls(name, (phase,)) == n, (name, phase)
    # encode: policy state in the rollout, simulator in env.step, and the
    # train_step re-encode of every transition
    assert s.calls("encoder.encode") == 3 * steps
    assert s.calls("autodiff.backward") == s.calls("optim.step")
    if variant == "full":
        assert s.calls("critic.aggregate") == steps
        assert s.calls("critic.value") == 4 * steps
        assert s.calls("critic.target_update") == len(run.log.rows)
    else:
        for name in ("critic.value", "critic.aggregate", "critic.target_value",
                     "critic.target_update"):
            assert s.calls(name) == 0
    assert s.nodes("trainer.rollout") + s.nodes("trainer.train_step") == run.train_nodes


@pytest.mark.parametrize("variant", ["full", "bc_only"])
def test_tracing_changes_nothing(ctx, variant):
    w = small(variant)
    plain = train_and_eval(ctx, w, 1, ITERATIONS, Progress(planned=0))
    tracer = Tracer()
    with tracer:
        traced_ctx = build_context(w)
        traced = train_and_eval(traced_ctx, w, 1, ITERATIONS, Progress(planned=0),
                                tracer)
    assert fingerprint(traced_ctx) == fingerprint(ctx)
    assert traced.loss_trace() == plain.loss_trace()
    assert traced.evals == plain.evals
    assert traced.train_nodes == plain.train_nodes
    assert traced.eval_nodes == plain.eval_nodes
    assert check_run(plain) == [] and check_run(traced) == []


def test_final_eval_matches_run_experiment(ctx):
    """The benchmark's eval is run_experiment's final greedy eval."""
    w = small("full")
    run = train_and_eval(ctx, w, 2, ITERATIONS, Progress(planned=0))
    cfg = tr.TrainConfig(iterations=ITERATIONS, gamma=0.9, eval_every=0,
                         eval_episodes=w.eval_episodes, variant=w.variant)
    agent, final = tr.run_experiment(ctx, cfg, AGENT_SEED + 2)
    assert final == run.evals[0]
    for a, b in zip(agent.tensors().values(), run.agent.tensors().values()):
        np.testing.assert_array_equal(a, b)


def test_progress_counts_unfinished_operations_as_failed():
    p = Progress(planned=3 + 10)        # 3 set-ups, 10 eval episodes
    p.done = 3
    p.log = UpdateLog()
    p.log.write([5, 1.0, 5, 0.0, 0.0, 0.0, 0.0, 0])     # one update finished
    assert p.counts() == (3 + 10 + 2, 10 + 1)


def test_pacer_reads_intervals_at_reference_speed():
    p = Pacer()
    # chunks at 2x the reference cost (half speed), then at the reference
    p.times = [0.0, 0.05, 0.10, 0.15, 1.0, 1.05, 1.10]
    p.costs = [2 * REFERENCE_S] * 4 + [REFERENCE_S] * 3
    busy = 0.2 - 4 * 2 * REFERENCE_S
    assert p.seconds(0.0, 0.2) == pytest.approx(0.5 * busy)
    assert p.seconds(1.0, 1.2) == pytest.approx(0.2 - 3 * REFERENCE_S)
    # a short interval is read at the speed of the chunks around it
    assert p.seconds(1.06, 1.07) == pytest.approx(0.01)
