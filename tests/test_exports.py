"""Every name a module exports in ``__all__`` exists on that module."""

import importlib

import pytest

import seidelkit


@pytest.mark.parametrize("name", ["graphs", "spectral", "theory", "search"])
def test_all_names_resolve(name):
    module = importlib.import_module(f"seidelkit.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    # the package re-exports each module's public names
    assert [n for n in module.__all__ if not hasattr(seidelkit, n)] == []
