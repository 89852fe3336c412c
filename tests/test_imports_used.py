"""Every name a package module binds by a top-level import is used in that
module or listed in its ``__all__``, so an import that a deletion left
behind shows here; the package's ``__init__`` only re-exports and is
skipped.  Every private module-level name (``_name``) is used somewhere
in the package outside its own definition, so an orphaned helper shows
too.  The check reads each module with ``ast``, so no linter is
needed."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "multisect"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound, exported = set(), set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names if a.name != "*")
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - used - exported)


def test_the_check_finds_unused_imports():
    source = ("import os.path\nimport re as regex\nfrom a import b, c as d, e\n"
              "__all__ = ['e']\nb(os)\n")
    assert unused_imports(source) == ["d", "regex"]
    assert "constructions.py" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _reads(node: ast.AST, name: str) -> bool:
    if isinstance(node, ast.Name):
        return node.id == name and not isinstance(node.ctx, ast.Store)
    return isinstance(node, ast.Attribute) and node.attr == name


def orphaned_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each private function, class or constant that
    a module defines at top level and no module uses outside that
    definition (a recursive call is no use)."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    defined = []  # (module, name, definition node)
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(module, name, node) for name in names if _private(name)]
    orphans = []
    for module, name, definition in defined:
        inside = {id(n) for n in ast.walk(definition)}
        if not any(_reads(n, name) and id(n) not in inside
                   for tree in trees.values() for n in ast.walk(tree)):
            orphans.append(f"{module}.{name}")
    return orphans


def test_the_check_finds_orphaned_private_names():
    sources = {"a": "_USED = 1\n_ORPHAN = 2\ndef _recursive(n):\n    return _recursive(n)\n"
                    "class _Kept:\n    pass\ndef public():\n    return _USED\n",
               "b": "from a import _Kept\nx = _Kept()\n"}
    assert orphaned_private_names(sources) == ["a._ORPHAN", "a._recursive"]


def test_every_private_name_is_used():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert orphaned_private_names(sources) == []
