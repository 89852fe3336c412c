"""The README's Python examples run, in order, in one namespace, and every
expression they show evaluates to the value its comment states."""

import ast
import re
from pathlib import Path

from multisect.presentations import AbelianInvariants

README = Path(__file__).resolve().parent.parent / "README.md"

# (block number, expression) -> the value the comment after it states
EXPECTED = {
    (0, "validate(b).ok"): True,
    (0, "b.boundary_invariants"): AbelianInvariants(0, (2, 2)),
    (0, "abelianization(pi1_of_diagram(b))"): AbelianInvariants(0, (2,)),
    (0, "cert.verdict"): "same_orbit",
    (1, "flip_check(bisection_from_heegaard(lens_diagram(5, 2))).verdict"): "distinct",
    (1, "flip_check(bisection_from_heegaard(lens_diagram(3, 2))).verdict"): "same_orbit",
    (2, "cert.verdict"): "distinct",
}


def _shown(value) -> str:
    """A value as the README comments write it."""
    return value.describe() if isinstance(value, AbelianInvariants) else repr(value)


def _run_blocks():
    """Run every ``python`` block; return the namespace, the value and
    comment of each expression statement, and the README text."""
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.S | re.M)
    namespace, shown = {}, {}
    for number, source in enumerate(blocks):
        lines = source.split("\n")
        for node in ast.parse(source).body:
            if isinstance(node, ast.Expr):
                value = eval(compile(ast.Expression(node.value), "README.md", "eval"),
                             namespace)
                comment = lines[node.lineno - 1].partition("#")[2].strip()
                shown[(number, ast.get_source_segment(source, node))] = (value, comment)
            else:
                exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    return namespace, shown, text


def test_readme_examples_show_what_their_comments_state():
    namespace, shown, text = _run_blocks()
    assert {key: value for key, (value, _) in shown.items()} == EXPECTED
    for key, (value, comment) in shown.items():
        assert comment.startswith(_shown(value)), key
    part = namespace["part"]
    assert (part.tuple_count, len(part.orbits)) == (480, 2)
    assert "# 480 tuples, 2 orbits" in text
    assert [len(namespace[name].sector_pairs()) for name in ("chain", "closed", "merged")] \
        == [4, 6, 5]
