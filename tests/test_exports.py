"""Every name a module exports in ``__all__`` exists on that module and has
a caller, every public name the package re-exports is in its module's
``__all__``, the scan reaches the spectral layer only through ``theory``,
no module reads the environment, each blow-up parameter rule is raised at
one site, and neither the bound rule's slack nor a line's budget bytes
have a second copy."""

import ast
import importlib
from pathlib import Path

import pytest

import seidelkit

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", ["graphs", "spectral", "theory", "search"])
def test_all_names_resolve(name):
    module = importlib.import_module(f"seidelkit.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    # the package re-exports each module's public names
    assert [n for n in module.__all__ if not hasattr(seidelkit, n)] == []


def test_package_reexports_only_exported_names():
    # the package's ``__init__`` re-exports ``graphs``, ``spectral`` and
    # ``theory`` by one ``import *`` each, so each module's ``__all__`` is
    # the one list of its public names; every name of its table of lazy
    # ``search`` re-exports is in ``search.__all__``, and the package has
    # no other public name, so a name deleted from a module's ``__all__``
    # cannot linger as a re-export
    tree = ast.parse(Path(seidelkit.__file__).read_text())
    imports = {node.module: [alias.name for alias in node.names]
               for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1}
    assert imports == dict.fromkeys(("graphs", "spectral", "theory"), ["*"])
    modules = ("graphs", "spectral", "theory", "search")
    exported = {name: set(importlib.import_module(f"seidelkit.{name}").__all__)
                for name in modules}
    assert set(seidelkit._SEARCH) <= exported["search"]
    public = {name for name in dir(seidelkit) if not name.startswith("_")}
    # ``cli`` is an attribute once anything has imported ``seidelkit.cli``
    assert public - {"cli"} == set(modules).union(*exported.values())


class _Loads(ast.NodeVisitor):
    """The names a module loads, bare or as an attribute, each outside the
    function or class that defines that name, so recursion is no caller."""

    def __init__(self):
        self.defining = []
        self.loaded = set()

    def _definition(self, node):
        self.defining.append(node.name)
        self.generic_visit(node)
        self.defining.pop()

    visit_FunctionDef = visit_ClassDef = _definition

    def _load(self, name, node):
        if isinstance(node.ctx, ast.Load) and name not in self.defining:
            self.loaded.add(name)
        self.generic_visit(node)

    def visit_Name(self, node):
        self._load(node.id, node)

    def visit_Attribute(self, node):
        self._load(node.attr, node)


def _traced():
    """The (module, function) pairs of the benchmark's ``TRACED`` list."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    traced = next(node.value for node in tree.body
                  if isinstance(node, ast.Assign)
                  and getattr(node.targets[0], "id", None) == "TRACED")
    return {(entry.elts[0].value, entry.elts[1].value)
            for entry in traced.elts}


def test_every_export_has_a_caller():
    # an exported name that no module of the package loads, and that the
    # benchmark does not trace, is API only its own tests use
    loads = _Loads()
    for path in sorted((ROOT / "src" / "seidelkit").glob("*.py")):
        loads.visit(ast.parse(path.read_text()))
    traced = _traced()
    uncalled = [f"{name}.{export}"
                for name in ("graphs", "spectral", "theory", "search")
                for export in importlib.import_module(
                    f"seidelkit.{name}").__all__
                if export not in loads.loaded
                and (f"seidelkit.{name}", export) not in traced]
    assert uncalled == []


def test_search_imports_nothing_from_spectral():
    # the build, solve and bound screen of a block belong to
    # ``theory._certify_block``; the scan reaches them only through it
    tree = ast.parse((ROOT / "src" / "seidelkit" / "search.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            # ``from . import spectral`` as well as ``from .spectral import x``
            parts = ["seidelkit"] * (node.level > 0) + [node.module or ""]
            base = ".".join(filter(None, parts))
            imported.update(f"{base}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert imported and not [name for name in imported
                             if name.startswith("seidelkit.spectral")]


def test_no_module_reads_the_environment():
    # a setting read from the environment is an option no call site shows
    reads = []
    for path in sorted((ROOT / "src" / "seidelkit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr] * (getattr(node.value, "id", None) == "os")
            else:
                continue
            reads += [f"{path.name}:{node.lineno} os.{name}" for name in names
                      if name in ("environ", "getenv", "environb", "getenvb")]
    assert reads == []


def test_each_blowup_rule_is_raised_at_one_site():
    # the theorem and m rules belong to ``graphs._check_blowup``, which
    # every public entry calls; a second copy could drift from the first
    sites = {"theorem must be 1 or 2": [],
             "blow-up multiplicity must be >= 2": []}
    for path in sorted((ROOT / "src" / "seidelkit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            text = "".join(part.value for part in ast.walk(node.exc)
                           if isinstance(part, ast.Constant)
                           and isinstance(part.value, str))
            for message, raised in sites.items():
                if message in text:
                    raised.append(f"{path.name}:{node.lineno}")
    assert {message: len(raised) for message, raised in sites.items()} == {
        message: 1 for message in sites}, sites


def _sites(text: str) -> list[str]:
    """file:line of each source line under ``src/seidelkit`` holding ``text``."""
    return [f"{path.name}:{number}"
            for path in sorted((ROOT / "src" / "seidelkit").glob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if text in line]


def test_the_bound_rule_has_no_second_copy():
    # ``HypothesisReport.bound_met`` is the one bound rule, which the block
    # pipeline's screen and verdicts read through ``theory._hypotheses``; a
    # second copy of its slack could drift from the first
    sites = _sites(">= -ZERO_TOL")
    assert len(sites) <= 1, sites


def test_the_line_budget_has_no_second_copy():
    # ``search._line_cost`` is the one rule for a line's budget bytes, which
    # the blocks and the ``--jobs`` pre-pass both read; a second copy could
    # count a line the other skips
    sites = _sites("8 * n * n")
    assert len(sites) <= 1, sites
