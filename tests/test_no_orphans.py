"""Every module-level function or class of the package is reached: named by
package code outside its own definition, or wrapped by the benchmark
tracer's ``TRACED`` table.  Every method and property of a package class
is reached too: named by package code outside its own body, or named by
the tracer, whose counters read some results' properties.  Dunder
methods are exempt, since Python calls them.  Being imported by the
package's ``__init__`` or listed in an ``__all__`` does not count, since
neither runs the code; a definition that only tests call is an old path
that a deletion stranded.  The check reads each module and the tracer's
source with ``ast``, so it imports neither and needs no linter."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "multisect"
TRACING = ROOT / "perfbench" / "tracing.py"

# reached only through TRACED: no package code calls them
TRACED_ONLY = ["abelian.enumerate_abelian_groups",
               "presentations.verify_free_of_rank",
               "presentations.enumerate_finite_abelian_quotients",
               "diagrams.read_against", "nielsen.orbit_enumerate",
               "nielsen.connect_tuples"]


def _assigned(tree: ast.Module, name: str):
    """The value a top-level ``name = ...`` binds, read as a literal."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    return ()


def _names(node: ast.AST) -> Counter:
    """How often each name is read, or looked up as an attribute, in ``node``."""
    found = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            found[n.id] += 1
        elif isinstance(n, ast.Attribute):
            found[n.attr] += 1
    return found


def orphaned_definitions(sources: dict[str, str], traced: tuple) -> list[str]:
    """``module.name`` for each top-level function or class of a module in
    ``sources`` (keyed by module name) that no module names outside that
    definition and that ``traced``, pairs of (module, attribute path) as
    in the tracer's table, does not name.  An import or an ``__all__``
    string is not a name read, so neither reaches a definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reached = {f"{module}.{path.partition('.')[0]}" for module, path in traced}
    everywhere = sum((_names(tree) for tree in trees.values()), Counter())
    orphans = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if f"{module}.{node.name}" in reached:
                continue
            # a recursive call is no use
            if everywhere[node.name] == _names(node)[node.name]:
                orphans.append(f"{module}.{node.name}")
    return orphans


def orphaned_members(sources: dict[str, str], tracer: str) -> list[str]:
    """``module.Class.member`` for each method or property, dunders
    aside, of a top-level class of a module in ``sources`` that no module
    names outside the member's own body and that the ``tracer`` source
    does not name."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    everywhere = sum((_names(tree) for tree in trees.values()), Counter())
    traced = _names(ast.parse(tracer))
    orphans = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        or node.name.startswith("__") or traced[node.name]:
                    continue
                if everywhere[node.name] == _names(node)[node.name]:
                    orphans.append(f"{module}.{cls.name}.{node.name}")
    return orphans


def stale_exports(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each ``__all__`` entry that no top-level
    definition or assignment of its module binds; ``import *`` would
    raise on it."""
    stale = []
    for module, source in sources.items():
        tree = ast.parse(source)
        bound = {node.name for node in tree.body if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
        bound.update(t.id for node in tree.body if isinstance(node, ast.Assign)
                     for t in node.targets if isinstance(t, ast.Name))
        stale += [f"{module}.{name}" for name in _assigned(tree, "__all__")
                  if name not in bound]
    return stale


def test_the_check_finds_orphaned_definitions():
    # imported by __init__ and listed in __all__, yet called by nothing
    sources = {
        "__init__": "from .a import exported\n",
        "a": ("def exported():\n    pass\ndef traced():\n    pass\n"
              "def listed():\n    pass\n__all__ = ['listed']\n"
              "def used():\n    pass\nclass Holder:\n    pass\n"
              "def recursive(n):\n    return recursive(n)\n"
              "def _helper():\n    pass\n"),
        "b": "from . import a\nx = a.Holder()\ndef run():\n    return used()\n",
    }
    traced = (("a", "traced"), ("b", "run.attr"))
    assert orphaned_definitions(sources, traced) == [
        "a.exported", "a.listed", "a.recursive", "a._helper"]


def test_the_check_finds_orphaned_members():
    sources = {
        "a": ("class Holder:\n    def __len__(self):\n        return 0\n"
              "    def used(self):\n        return self.counted\n"
              "    @property\n    def counted(self):\n        return 1\n"
              "    @property\n    def traced(self):\n        return 2\n"
              "    def recursive(self):\n        return self.recursive()\n"
              "    @property\n    def unread(self):\n        return 3\n"),
        "b": "from .a import Holder\ndef run():\n    return Holder().used()\n",
    }
    tracer = "def count(result):\n    return result.traced\n"
    assert orphaned_members(sources, tracer) == ["a.Holder.recursive", "a.Holder.unread"]


def test_the_check_finds_stale_exports():
    sources = {"a": ("from os import path\nX = 1\ndef f():\n    pass\nclass C:\n    pass\n"
                     "__all__ = ['X', 'f', 'C', 'gone', 'path']\n")}
    assert stale_exports(sources) == ["a.gone", "a.path"]


def test_every_definition_is_reached():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    traced = _assigned(ast.parse(TRACING.read_text(encoding="utf-8")), "TRACED")
    assert ("matrices", "smith_normal_form") in traced
    assert orphaned_definitions(sources, traced) == []
    assert sorted(orphaned_definitions(sources, ())) == sorted(TRACED_ONLY)


def test_every_export_is_defined():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert "FormatError" in _assigned(ast.parse(sources["words"]), "__all__")
    assert stale_exports(sources) == []


def test_every_member_is_reached():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    tracer = TRACING.read_text(encoding="utf-8")
    assert orphaned_members(sources, tracer) == []
    # the tracer's counters read these, and no package code does
    assert sorted(orphaned_members(sources, "")) == [
        "nielsen.OrbitPartition.tuple_count", "presentations.TietzeResult.steps_used"]
