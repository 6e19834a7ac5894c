"""The benchmark tracer (`benchmarks/tracer.py`) wraps hsrl functions and
methods by name. A rename in `src/` must fail here, in the unit suite, not
only when a benchmark runs with `--trace 1`."""

import importlib
import importlib.util
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
