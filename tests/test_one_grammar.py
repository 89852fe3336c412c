"""The token grammar has one implementation, in ``words.py``, for both
directions.

Reading: ``words.py`` parses every word token and every integer, through
``_LineReader.words`` and ``_LineReader.integers`` for files and
``parse_word`` for single words, so no other package module names the
token, letters or integer parser.  A module that did would be splitting
and parsing some line by hand, a second grammar beside the reader's.  The
one exception is the command line, which reads each integer flag with
``parse_integer`` so that a flag takes an integer exactly as a file does.

Writing: ``words.py`` spells every ``g<k>`` and ``g<k>^-1`` token, through
``format_word`` for one word and a word writer for the words of one call,
so no other package module holds an f-string that writes ``g`` right
before a formatted value.  File bodies, presentations, reports,
certificate ``conj`` moves and SVG edge labels all spell their letters
through it, with no exemption.

The checks read each module with ``ast``, so no linter is needed."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "multisect"
OTHERS = sorted(p.name for p in SRC.glob("*.py") if p.name != "words.py")
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


@pytest.mark.parametrize("module", OTHERS)
def test_only_words_parses_tokens_and_integers(module):
    assert grammar_names((SRC / module).read_text(encoding="utf-8")) == \
        SINGLE_VALUES.get(module, [])


def token_spellings(source: str) -> list[str]:
    """The f-strings of ``source`` that spell a ``g<k>`` token by hand: a
    literal part ending in ``g`` right before a formatted value."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.JoinedStr):
            parts = node.values
            if any(isinstance(part, ast.Constant) and part.value.endswith("g")
                   and isinstance(after, ast.FormattedValue)
                   for part, after in zip(parts, parts[1:])):
                found.append(ast.unparse(node))
    return found


def test_the_check_finds_token_spellings():
    source = ('a = f"g{k}"\nb = f"conj g{k}{tag}"\nc = f"g{-lt}^-1"\n'
              'd = f"{x}g"\ne = f"tag {k}"\n')
    assert token_spellings(source) == ["f'g{k}'", "f'conj g{k}{tag}'", "f'g{-lt}^-1'"]
    assert token_spellings("label = format_word(Word(r, (k,)))\n") == []


@pytest.mark.parametrize("module", OTHERS)
def test_only_words_spells_tokens(module):
    assert token_spellings((SRC / module).read_text(encoding="utf-8")) == []
