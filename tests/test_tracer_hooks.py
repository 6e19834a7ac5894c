"""The benchmark tracer (`benchmarks/tracer.py`) wraps hsrl functions and
methods by name. A rename in `src/` must fail here, in the unit suite, not
only when a benchmark runs with `--trace 1`."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

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
