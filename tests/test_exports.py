"""Every name a module exports in ``__all__`` exists on that module, and
every public name the package re-exports is in its module's ``__all__``."""

import ast
import importlib
from pathlib import Path

import pytest

import seidelkit


@pytest.mark.parametrize("name", ["graphs", "spectral", "theory", "search"])
def test_all_names_resolve(name):
    module = importlib.import_module(f"seidelkit.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    # the package re-exports each module's public names
    assert [n for n in module.__all__ if not hasattr(seidelkit, n)] == []


def test_package_reexports_only_exported_names():
    # every ``from .module import name`` in the package's ``__init__``, so a
    # name deleted from a module's ``__all__`` cannot linger as a re-export
    tree = ast.parse(Path(seidelkit.__file__).read_text())
    imports = [node for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert {node.module for node in imports} == {
        "graphs", "spectral", "theory", "search"}
    stale = [f"{node.module}.{alias.name}" for node in imports
             for alias in node.names
             if alias.name not in importlib.import_module(
                 f"seidelkit.{node.module}").__all__]
    assert stale == []
