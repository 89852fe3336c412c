"""The token grammar has one implementation: ``words.py`` parses every
word token and every integer, through ``_LineReader.words`` and
``_LineReader.integers`` for files and ``parse_word`` for single words,
so no other package module names the token, letters or integer parser.
A module that did would be splitting and parsing some line by hand, a
second grammar beside the reader's.  The one exception is the command
line, which reads each integer flag with ``parse_integer`` so that a
flag takes an integer exactly as a file does.  The check reads each module with
``ast``, so no linter is needed."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "multisect"
GRAMMAR = {"_parse_token", "_word_letters", "parse_integer"}
# a flag's value is one integer, not a line, so no line is split by hand
SINGLE_VALUES = {"cli.py": ["parse_integer"]}


def grammar_names(source: str) -> list[str]:
    """The grammar's parsers that ``source`` imports, reads or calls."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found.update(a.name for a in node.names)
        elif isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return sorted(found & GRAMMAR)


def test_the_check_finds_the_grammar_parsers():
    source = ("from .words import parse_integer as count\n"
              "from . import words\nwords._parse_token('g1', 1)\n"
              "letters = words._word_letters(['g1'], 1, {})\n")
    assert grammar_names(source) == ["_parse_token", "_word_letters", "parse_integer"]
    assert grammar_names("def parse(text):\n    return int(text)\n") == []


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")
                                          if p.name != "words.py"))
def test_only_words_parses_tokens_and_integers(module):
    assert grammar_names((SRC / module).read_text(encoding="utf-8")) == \
        SINGLE_VALUES.get(module, [])
