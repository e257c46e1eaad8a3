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
