"""Every name a package module binds by a top-level import is used in that
module or listed in its ``__all__``, so an import that a deletion left
behind shows here; the package's ``__init__`` only re-exports and is
skipped.  The check reads each module with ``ast``, so no linter is
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
