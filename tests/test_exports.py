"""Every name a module exports resolves."""

from __future__ import annotations

import importlib
import pkgutil

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
