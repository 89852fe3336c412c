"""No package module keeps state from one call to the next: no
module-level name other than ``__all__`` and no name in a class body is
bound to a mutable container, and no function is wrapped in
``functools.lru_cache`` or ``functools.cache``.  So every memo lives in
one call, one reader or one object, and a long-running process pays what
a fresh one pays.  The check reads each module with ``ast``, so no
linter is needed."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "multisect"
MODULES = sorted(p.name for p in SRC.glob("*.py"))

_DISPLAYS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
_FACTORIES = {"list", "dict", "set", "bytearray", "defaultdict", "OrderedDict",
              "Counter", "deque", "ChainMap", "WeakKeyDictionary",
              "WeakValueDictionary", "WeakSet"}
_CACHES = {"lru_cache", "cache"}


def _called(node: ast.AST) -> str | None:
    """The name behind a call or a decorator: ``f`` for ``f``, ``m.f``,
    ``f(...)`` and ``f(...)(...)``."""
    while isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _holds_state(value: ast.AST) -> bool:
    """A mutable container, a tuple holding one, or a cache wrapper."""
    if isinstance(value, ast.Tuple):
        return any(_holds_state(v) for v in value.elts)
    return isinstance(value, _DISPLAYS) or (
        isinstance(value, ast.Call) and _called(value) in _FACTORIES | _CACHES)


def module_state(source: str) -> list[str]:
    """The module-level and class-level names bound to state and the
    functions wrapped in a cache, in line order."""
    tree = ast.parse(source)
    found = []
    classes = [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
    for node in tree.body + [stmt for c in classes for stmt in c.body]:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)) and \
                node.value is not None and _holds_state(node.value):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(node.lineno, n.id) for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name) and n.id != "__all__"]
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and \
                any(_called(d) in _CACHES for d in node.decorator_list):
            found.append((node.lineno, node.name))
    return [name for _, name in sorted(found)]


def test_the_check_finds_module_state():
    source = ("import functools\nfrom functools import cache\n"
              "__all__ = ['f']\n_MEMO = {}\nSEEN: set = set()\nPAIR = ([], 1)\n"
              "KEPT = (1, frozenset([2]))\n"
              "@functools.lru_cache(maxsize=None)\ndef f(x):\n    return x\n"
              "class C:\n    @cache\n    def g(self):\n        local = {}\n"
              "        return local\n"
              "h = functools.lru_cache()(len)\n"
              "class D:\n    NAMES = ('a',)\n    SHARED: dict = {}\n")
    assert module_state(source) == ["_MEMO", "SEEN", "PAIR", "f", "g", "h", "SHARED"]
    assert "diagrams.py" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_no_module_keeps_state_between_calls(module):
    assert module_state((SRC / module).read_text(encoding="utf-8")) == []
