"""The benchmark's span tracer (``perfbench/tracing.py``) still fits the package.

The tracer wraps the names listed in its ``TRACED`` table and rebinds every
module global that refers to them.  A traced name that moves or is renamed
would otherwise show only when the benchmark runs with ``--trace 1``.  The
tracer's source is read and executed here, never imported from its
directory, so the test leaves that directory as it is.
"""

import importlib
import types
from pathlib import Path

import multisect
import multisect.cli  # imports every module the tracer names
from multisect import matrices

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    module = types.ModuleType("multisect_bench_tracing")
    module.__file__ = str(TRACING)
    source = TRACING.read_text(encoding="utf-8")
    exec(compile(source, str(TRACING), "exec"), module.__dict__)
    return module


def _traced_originals(tracing):
    """(owner, attribute, value) for every binding the tracer replaces."""
    found = []
    for module_name, path in tracing.TRACED:
        module = importlib.import_module(f"multisect.{module_name}")
        head, _, method = path.partition(".")
        owner = getattr(module, head)
        if method:
            found.append((owner, method, getattr(owner, method)))
        elif isinstance(owner, type):
            found.append((owner, "__post_init__", owner.__post_init__))
        else:
            for m in tracing.package_modules(multisect):
                found += [(m, attr, value) for attr, value in vars(m).items()
                          if value is owner]
    return found


def test_trace_installs_on_every_traced_name_and_uninstalls():
    tracing = _load_tracing()
    originals = _traced_originals(tracing)
    assert any(owner is matrices and attr == "smith_normal_form"
               for owner, attr, _ in originals)
    original_ids = {id(value) for _, _, value in originals}
    tracer = tracing.Tracer()
    try:
        # install raises RuntimeError when a reference escapes rebinding
        tracer.install(multisect)
        for owner, attr, value in originals:
            assert getattr(owner, attr) is not value, f"{owner.__name__}.{attr}"
        for m in tracing.package_modules(multisect):
            assert not any(id(v) in original_ids for v in vars(m).values()), m
        matrices.smith_normal_form([[2, 4], [6, 8]], 2)
        assert tracer.calls[tracer.names.index("matrices.smith_normal_form")] == 1
    finally:
        tracer.uninstall()
    for owner, attr, value in originals:
        assert getattr(owner, attr) is value, f"{owner.__name__}.{attr}"


def _traced_functions(tracing):
    """The function objects that ``TRACED`` names (not constructors)."""
    found = []
    for module_name, path in tracing.TRACED:
        value = importlib.import_module(f"multisect.{module_name}")
        for attr in path.split("."):
            value = getattr(value, attr)
        if isinstance(value, types.FunctionType):
            found.append(value)
    return found


def _held_in_containers(modules, functions) -> list[str]:
    """Module globals that are a dict, list, tuple or set holding one of
    ``functions``, directly or in a container one level down: rebinding
    the module global cannot reach such a reference."""
    ids = {id(fn) for fn in functions}

    def items(value):
        if isinstance(value, dict):
            return [*value.keys(), *value.values()]
        return list(value) if isinstance(value, (list, tuple, set, frozenset)) else []

    held = []
    for m in modules:
        for attr, value in vars(m).items():
            inner = items(value)
            if any(id(v) in ids for v in inner + [w for v in inner for w in items(v)]):
                held.append(f"{m.__name__}.{attr}")
    return held


def test_the_container_check_finds_a_held_traced_function():
    tracing = _load_tracing()
    functions = _traced_functions(tracing)
    assert matrices.smith_normal_form in functions
    fake = types.ModuleType("fake")
    fake.TABLE = {"snf": (matrices.smith_normal_form, 1)}
    fake.NAMES = ("smith_normal_form",)
    assert _held_in_containers([fake], functions) == ["fake.TABLE"]


def test_no_module_level_container_holds_a_traced_function():
    tracing = _load_tracing()
    modules = tracing.package_modules(multisect)
    assert _held_in_containers(modules, _traced_functions(tracing)) == []
