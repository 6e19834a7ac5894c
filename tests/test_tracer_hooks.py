"""The benchmark tracer (`benchmarks/tracer.py`) wraps hsrl functions and
methods by name. A rename in `src/` must fail here, in the unit suite, not
only when a benchmark runs with `--trace 1`."""

import importlib
import importlib.util
import inspect
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import hsrl.trainer as trainer

from test_trainer import _agent, _env

_SPEC = importlib.util.spec_from_file_location(
    "benchmark_tracer",
    Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py")
tracer = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracer)


@pytest.mark.parametrize("module, attr, span", tracer.FUNCTIONS,
                         ids=[f"{m}.{a}" for m, a, _ in tracer.FUNCTIONS])
def test_traced_function_resolves(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("module, cls, attr, span", tracer.METHODS,
                         ids=[f"{c}.{a}" for _, c, a, _ in tracer.METHODS])
def test_traced_method_resolves(module, cls, attr, span):
    # the tracer patches the class's own attribute, not an inherited one
    assert callable(vars(getattr(importlib.import_module(module), cls))[attr])


# span -> (defining module, function, {position: parameter name}) for every
# positional argument a `tracer.WORK` extractor reads
WORK_PARAMETERS = {
    "policy.select_slate": ("hsrl.policy", "select_slate", {2: "candidates"}),
    "env.fit_response_model": ("hsrl.env", "fit_response_model",
                               {0: "records", 2: "cfg"}),
}


def test_every_work_extractor_is_checked():
    assert set(tracer.WORK) == set(WORK_PARAMETERS)


@pytest.mark.parametrize("module, attr, positions", WORK_PARAMETERS.values(),
                         ids=list(WORK_PARAMETERS))
def test_work_extractor_reads_the_parameter_it_means(module, attr, positions):
    # `tracer.WORK` reads positional arguments by index; a reordered
    # signature would silently count the wrong argument
    names = list(inspect.signature(
        getattr(importlib.import_module(module), attr)).parameters)
    assert {i: names[i] for i in positions} == positions


@pytest.mark.parametrize("variant", ["full", "bc_only"])
def test_traced_train_step_sees_the_batched_critic(variant):
    # the live critic runs once per update inside `train_step`, and the
    # target critic once inside `TargetCritic.value` when a transition
    # bootstraps; bc_only has no critic
    agent = _agent(seed=3, variant=variant)
    transitions, _ = trainer.rollout(agent, _env(), "sample",
                                     np.random.default_rng([3, 0]),
                                     np.random.default_rng([3, 1]))
    assert any(not tr.done for tr in transitions)
    with tracer.Tracer() as traced:
        trainer.train_step(agent, transitions)
    spans = traced.spans
    seen = Counter((s[tracer.NAME], spans[s[tracer.PARENT]][tracer.NAME])
                   for s in spans if s[tracer.NAME] in ("critic.value", "critic.aggregate"))
    expected = {} if variant == "bc_only" else {
        (name, parent): 1 for name in ("critic.value", "critic.aggregate")
        for parent in ("trainer.train_step", "critic.target_value")}
    assert seen == expected
    assert tracer.Summary(spans).errors == 0


def test_traced_lockstep_evaluate_nests_its_work_under_evaluate():
    # one lockstep step per step of the longest episode, each with one
    # policy forward and one greedy selection on the agent's token matrix,
    # so no sid_matrix; the states go through encode_batch, which the
    # tracer does not wrap, and the sessions through Environment.step_batch,
    # so no encode or env.step
    agent = _agent(seed=4)
    with tracer.Tracer() as traced:
        metrics = trainer.evaluate(agent, _env(), 4, seed=4, tag=0)
    spans = traced.spans
    assert tracer.Summary(spans).errors == 0
    assert [s[tracer.PARENT] for s in spans
            if s[tracer.NAME] == "trainer.evaluate"] == [-1]

    def under_evaluate(span):
        while span[tracer.PARENT] >= 0:
            span = spans[span[tracer.PARENT]]
        return span[tracer.NAME] == "trainer.evaluate"

    steps = max(m.depth for m in metrics)
    seen = Counter(s[tracer.NAME] for s in spans if s[tracer.NAME] in (
        "policy.forward", "policy.select_slate", "tokenizer.sid_matrix",
        "encoder.encode", "env.step"))
    assert seen == {"policy.forward": steps, "policy.select_slate": steps}
    assert all(under_evaluate(s) for s in spans)
