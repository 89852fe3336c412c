"""Span tracing of the multisect layers, installed from outside the package.

Nothing under ``src/`` knows about this module.  ``Tracer.install`` wraps
the public functions named in ``TRACED`` and swaps the wrapper into every
binding that refers to the original: modules import names directly
(``smith_normal_form`` is bound in ``matrices``, ``diagrams``,
``presentations`` and ``nielsen``), so patching the defining module alone
would miss most calls.  Constructors are traced through the class's
``__post_init__``, which the dataclass ``__init__`` looks up on the class
at call time; methods are traced by replacing the class attribute.

Each call records one span (name, start, end, parent span, stage id) in
flat arrays kept in memory; ``write_spans`` writes them once at the end,
with raw times.  Per-name totals are aggregated as calls arrive and
scaled by the stage's speed adjustment when the stage ends: inclusive
time counts only the outermost of nested calls of one name, and self time
is the span's duration minus the time covered by traced children.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import types
from array import array
from time import perf_counter

# (module, attribute path) in the order the per-layer metrics list them.
# A class name alone means its constructor (traced via __post_init__).
TRACED = (
    ("words", "Word"),
    ("words", "FreeAutomorphism"),
    ("words", "apply"),
    ("words", "compose"),
    ("words", "parse_word"),
    ("words", "format_word"),
    ("matrices", "smith_normal_form"),
    ("matrices", "determinant"),
    ("abelian", "FiniteAbelianGroup.generates"),
    ("abelian", "enumerate_abelian_groups"),
    ("presentations", "tietze_simplify"),
    ("presentations", "abelianization"),
    ("presentations", "verify_free_of_rank"),
    ("presentations", "enumerate_finite_abelian_quotients"),
    ("diagrams", "parse_diagram"),
    ("diagrams", "format_diagram"),
    ("diagrams", "parse_heegaard"),
    ("diagrams", "CutSystem"),
    ("diagrams", "MultisectionDiagram"),
    ("diagrams", "read_against"),
    ("diagrams", "validate"),
    ("diagrams", "pi1_of_diagram"),
    ("diagrams", "connected_sum"),
    ("constructions", "bisection_from_heegaard"),
    ("constructions", "double_bisection"),
    ("constructions", "insert_parallel_sectors"),
    ("constructions", "glue_bisections"),
    ("constructions", "cap_off"),
    ("constructions", "merge_adjacent_sectors"),
    ("nielsen", "distinguish"),
    ("nielsen", "flip_check"),
    ("nielsen", "spine_tuple"),
    ("nielsen", "orbit_enumerate"),
    ("nielsen", "free_tuple_search"),
    ("nielsen", "connect_tuples"),
    ("render", "diagram_to_svg"),
    ("cli", "main"),
)

# Counters read off arguments and return values, as seen from outside.
COUNTERS = (
    "presentations.tietze_simplify.steps",
    "presentations.enumerate_finite_abelian_quotients.surjections",
    "presentations.enumerate_finite_abelian_quotients.candidates",
    "nielsen.orbit_enumerate.tuples",
    "nielsen.free_tuple_search.found",
    "diagrams.parse_diagram.bytes",
    "diagrams.validate.pairs",
    "diagrams.validate.verified",
    "diagrams.validate.unknown",
    "nielsen.distinguish.decided",
)


def _count_tietze(c, args, kwargs, result):
    c["presentations.tietze_simplify.steps"] += result.steps_used


def _count_quotients(c, args, kwargs, result):
    pres, targets = args[0], args[1]
    base = "presentations.enumerate_finite_abelian_quotients"
    c[base + ".surjections"] += len(result)
    c[base + ".candidates"] += sum(t.order ** pres.generator_count
                                   for t in targets)


def _count_orbits(c, args, kwargs, result):
    c["nielsen.orbit_enumerate.tuples"] += result.tuple_count


def _count_free_search(c, args, kwargs, result):
    c["nielsen.free_tuple_search.found"] += result is not None


def _count_parse(c, args, kwargs, result):
    c["diagrams.parse_diagram.bytes"] += len(args[0].encode("utf-8"))


def _count_validate(c, args, kwargs, result):
    statuses = [verdict.status for _, _, verdict in result.entries]
    c["diagrams.validate.pairs"] += len(statuses)
    c["diagrams.validate.verified"] += statuses.count("verified")
    c["diagrams.validate.unknown"] += statuses.count("unknown")


def _count_distinguish(c, args, kwargs, result):
    c["nielsen.distinguish.decided"] += result.verdict != "inconclusive"


ON_RETURN = {
    "presentations.tietze_simplify": _count_tietze,
    "presentations.enumerate_finite_abelian_quotients": _count_quotients,
    "nielsen.orbit_enumerate": _count_orbits,
    "nielsen.free_tuple_search": _count_free_search,
    "diagrams.parse_diagram": _count_parse,
    "diagrams.validate": _count_validate,
    "nielsen.distinguish": _count_distinguish,
}


class Tracer:
    """Records spans and per-name totals while installed."""

    def __init__(self):
        self.names = [module + "." + path for module, path in TRACED]
        n = len(self.names)
        self.calls = [0] * n
        self.inclusive = [0.0] * n
        self.self_time = [0.0] * n
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.stage = 0
        self.stage_labels: list[str] = []
        self._stage_inclusive = [0.0] * n  # raw seconds of the open stage
        self._stage_self = [0.0] * n
        self._active = [0] * n  # open calls per name, for recursion
        self._stack: list[list] = []  # [span id, time covered by children]
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_stage = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._patches: list[tuple[object, str, object]] = []

    # -- stages ------------------------------------------------------------

    def begin_stage(self, label: str) -> None:
        """Spans from here on belong to a new stage."""
        self.stage_labels.append(label)
        self.stage = len(self.stage_labels)

    def end_stage(self, scale: float) -> None:
        """Add the stage's seconds to the totals times ``scale``, the
        stage's speed adjustment."""
        for idx in range(len(self.names)):
            self.inclusive[idx] += self._stage_inclusive[idx] * scale
            self.self_time[idx] += self._stage_self[idx] * scale
        self._stage_inclusive = [0.0] * len(self.names)
        self._stage_self = [0.0] * len(self.names)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, idx: int, fn):
        on_return = ON_RETURN.get(self.names[idx])
        tracer = self
        stack = self._stack
        active = self._active

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(tracer.span_start)
            tracer.span_name.append(idx)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            tracer.span_stage.append(tracer.stage)
            frame = [sid, 0.0]
            stack.append(frame)
            active[idx] += 1
            tracer.span_end.append(0.0)
            start = perf_counter()
            tracer.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.span_end[sid] = end
                stack.pop()
                active[idx] -= 1
                duration = end - start
                tracer.calls[idx] += 1
                tracer._stage_self[idx] += duration - frame[1]
                if not active[idx]:
                    tracer._stage_inclusive[idx] += duration
                if stack:
                    stack[-1][1] += duration
            if on_return is not None:
                on_return(tracer.counters, args, kwargs, result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every traced function of ``package`` (the imported
        ``multisect`` module) and rebind every reference to it."""
        for idx, (module_name, path) in enumerate(TRACED):
            module = importlib.import_module(f"{package.__name__}.{module_name}")
            head, _, method = path.partition(".")
            owner = getattr(module, head)
            if method:
                self._patch(owner, method, self._wrap(idx, getattr(owner, method)))
            elif isinstance(owner, type):
                self._patch(owner, "__post_init__",
                            self._wrap(idx, owner.__post_init__))
            else:
                wrapper = self._wrap(idx, owner)
                for m in package_modules(package):
                    for attr, value in list(vars(m).items()):
                        if value is owner:
                            self._patch(m, attr, wrapper)
        self._check_rebound(package_modules(package))

    def _patch(self, obj, attr: str, value) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _check_rebound(self, modules) -> None:
        """Fail loudly if a traced original is still reachable through a
        module global, a class attribute or a function default."""
        originals = {id(orig) for _, _, orig in self._patches}
        for m in modules:
            for attr, value in vars(m).items():
                if id(value) in originals:
                    raise RuntimeError(f"{m.__name__}.{attr} escaped tracing")
                scopes = [value]
                if isinstance(value, type) and value.__module__ == m.__name__:
                    scopes = list(vars(value).values())
                for fn in scopes:
                    if isinstance(fn, types.FunctionType):
                        for default in (fn.__defaults__ or ()) + tuple(
                                (fn.__kwdefaults__ or {}).values()):
                            if id(default) in originals:
                                raise RuntimeError(
                                    f"default of {m.__name__}.{attr} escaped tracing")

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def write_spans(self, path) -> None:
        """One JSON document: the name and stage tables, then one
        ``[name, start, end, parent, stage]`` row per span, with times in
        seconds relative to the first span."""
        origin = self.span_start[0] if self.span_start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"names": ' + json.dumps(self.names))
            fh.write(', "stages": ' + json.dumps(self.stage_labels))
            fh.write(', "columns": ["name", "start", "end", "parent", "stage"]')
            fh.write(', "spans": [')
            rows = zip(self.span_name, self.span_start, self.span_end,
                       self.span_parent, self.span_stage)
            for k, (name, start, end, parent, stage) in enumerate(rows):
                fh.write(f'{"," if k else ""}\n[{name},{start - origin:.7f},'
                         f'{end - origin:.7f},{parent},{stage}]')
            fh.write("\n]}\n")


def package_modules(package) -> list[types.ModuleType]:
    """The package and its imported submodules."""
    prefix = package.__name__
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == prefix or name.startswith(prefix + "."))]
