"""Every name a module exports resolves."""

from __future__ import annotations

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import snakeq

# importing snakeq.__main__ runs the command line, and it exports nothing
MODULES = ["snakeq"] + [
    f"snakeq.{info.name}"
    for info in pkgutil.iter_modules(snakeq.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [x for x in module.__all__ if not hasattr(module, x)]
    assert missing == []


# library names the benchmark scripts perfbench/run.py and perfbench/record.py
# call; the benchmark runs against both sides of a change, so these must stay
BENCHMARK_NAMES = [
    ("snakeq", "Triangulation.from_dict"),
    ("snakeq", "Arc.from_dict"),
    ("snakeq", "signed_adjacency"),
    ("snakeq", "principal_lambda"),
    ("snakeq", "principal_seed"),
    ("snakeq", "trace_arc"),
    ("snakeq", "Seed"),
    ("snakeq", "Seed.to_dict"),
    ("snakeq", "LambdaForm"),
    ("snakeq", "LambdaForm.rows"),
    ("snakeq", "SnakeGraph.twist_graph"),
    ("snakeq.cli", "main"),
]


@pytest.mark.parametrize("module_name, path", BENCHMARK_NAMES)
def test_every_name_the_benchmark_calls_resolves(module_name, path):
    target = importlib.import_module(module_name)
    for attr in path.split("."):
        target = getattr(target, attr)


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# names perfbench/tracing.py patches for its per-layer metrics; the tracer
# skips a name that is gone, so a rename would read 0 without this test.
# ``snakeq.cli.omega`` was already gone before this test was written, and
# ``snakeq.expansion.compute_valuation`` was an import that nothing in the
# module called; ``valuation.compute_valuation`` read 0 with or without it.
# ``snakeq.cli.compute_valuation`` went when the matchings listing began to
# read the listing's masks; no benchmark mode runs that listing.
_TRACING = _load_tracing()
GONE = {
    ("snakeq.cli", "omega"),
    ("snakeq.cli", "compute_valuation"),
    ("snakeq.expansion", "compute_valuation"),
}
TRACED_FUNCTIONS = [
    (module, attr)
    for module, attr, _ in _TRACING.FUNCTION_SPANS
    if (module, attr) not in GONE
]
TRACED_METHODS = [
    (module, cls, attr)
    for module, cls, attr, _ in _TRACING.METHOD_SPANS + _TRACING.METHOD_COUNTS
]


@pytest.mark.parametrize("module_name, attr", TRACED_FUNCTIONS)
def test_every_function_the_benchmark_traces_resolves(module_name, attr):
    assert hasattr(importlib.import_module(module_name), attr)


@pytest.mark.parametrize("module_name, cls, attr", TRACED_METHODS)
def test_every_method_the_benchmark_traces_resolves(module_name, cls, attr):
    # the tracer patches only methods defined on the class itself
    assert attr in vars(getattr(importlib.import_module(module_name), cls))
