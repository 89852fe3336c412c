"""Fuzz gate for the word, presentation and diagram parsers: every input
either parses or is refused with the documented error; presentation text
that parses formats back to itself, and a word that parses formats back
to text that parses to the same value.  A diagram, Heegaard or
presentation file, with repeated blocks or distinct ones, parses as a
reader with no memo, reading every word line on its own, reads it."""

import re
from dataclasses import replace
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

import multisect.diagrams
import multisect.presentations
from multisect.constructions import (auto_cap, bisection_from_heegaard, cap_off,
                                     double_bisection, glue_bisections, lens_diagram)
from multisect.diagrams import (connected_sum, format_diagram, format_heegaard,
                                parse_diagram, parse_heegaard)
from multisect.presentations import format_presentation, parse_presentation
from multisect.cli import main
from multisect.words import FormatError, Word, _LineReader, format_word, parse_word
from test_cli_fuzz import _one_token_edit
from test_golden import PRESENTATION

# the grammar's own characters, the whitespace and line ends that str
# methods treat specially, and lookalikes that int() would accept
_NEAR = " \t\n\r\v\f\x1c\x85\xa0\u2028gens0123456789^-+_\u0661"
_CHARS = st.one_of(st.sampled_from(sorted(set(PRESENTATION + _NEAR))),
                   st.characters())
_TEXT = st.text(_CHARS, max_size=40)


def _check_presentation(text):
    try:
        pres = parse_presentation(text)
    except FormatError as exc:
        # the format's lines are the \n-separated ones
        assert exc.line is not None and 1 <= exc.line <= text.count("\n") + 1
        return
    assert format_presentation(pres) == text


@settings(max_examples=400, deadline=None)
@given(st.one_of(_TEXT, _TEXT.map(lambda body: "gens 2\n" + body)))
def test_presentation_text_parses_or_names_its_line(text):
    _check_presentation(text)


def test_error_lines_count_newlines_only():
    # \x85 and \u2028 are line breaks to str.splitlines but not in the
    # format, where they are whitespace other than a single space
    for text in ("gens 1\n\x85\ng7", "gens 1\n\u2028g1\ng7"):
        with pytest.raises(FormatError) as info:
            parse_presentation(text)
        assert info.value.line == 2


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(("insert", "delete", "substitute")),
       st.integers(0, 10 ** 4), _CHARS)
def test_one_character_edits_of_a_presentation(edit, position, char):
    i = position % (len(PRESENTATION) + (edit == "insert"))
    mutated = (PRESENTATION[:i] + ("" if edit == "delete" else char)
               + PRESENTATION[i + (edit != "insert"):])
    _check_presentation(mutated)


@settings(max_examples=400, deadline=None)
@given(st.one_of(_TEXT, st.lists(st.sampled_from(
    ("g1", "g2", "g3", "g1^-1", "g2^-1", "g0", "g12", "1", "^-1", " ", "  ")),
    max_size=8).map(" ".join)), st.integers(0, 3))
def test_word_text_parses_or_is_a_value_error(text, rank):
    try:
        word = parse_word(text, rank)
    except ValueError:
        return
    assert word.rank == rank
    assert format_word(word) == text


def _accepts(parse, text):
    try:
        parse(text)
    except FormatError:
        return False
    return True


# a canonical word, the identity, and texts that fault spacing, tokens,
# range and reduction, over the free group of rank 2
_WORD_CORPUS = ("g1 g2^-1", "1", "", "g1  g2", " g1", "g1 ", "g1\tg2", "g01", "g0",
                "g-1", "g3", "g1 g1^-1")


@pytest.mark.parametrize("text", _WORD_CORPUS)
def test_words_relators_and_tuple_entries_share_one_grammar(text, tmp_path, capsys):
    def word(t):
        return _accepts(lambda u: parse_word(u, 2), t)
    assert word(text) == (text in ("g1 g2^-1", "1"))
    assert _accepts(parse_presentation, f"gens 2\n{text}\n") == word(text)
    free = tmp_path / "free.txt"
    free.write_text("gens 2\n")
    code = main(["distinguish", "--presentation", str(free),
                 "--tuple1", f"{text}, g1, g2", "--tuple2", "1, g1, g2"])
    # an entry is stripped of the spaces around it, where ", " leaves them
    assert (code == 10) == word(text.strip(" "))
    if code != 10:
        assert code == 2 and capsys.readouterr().err.startswith("error: --tuple1: entry 1")


# files whose systems are mostly relabelled copies: the double repeats
# beta as delta, and the capped 3-copy chain of lens(2,1) holds eight
# systems copied from three
_LENS = lens_diagram(2, 1)
_REPEATING_MSDS = (format_diagram(double_bisection(bisection_from_heegaard(_LENS))),
                   format_diagram(cap_off(glue_bisections(_LENS, 3), auto_cap(_LENS, 3))))


_INTEGER_LINES = (("gens", PRESENTATION, parse_presentation),
                  ("genus", format_heegaard(_LENS), parse_heegaard),
                  ("params", format_heegaard(_LENS), parse_heegaard),
                  *((keyword, _REPEATING_MSDS[0], parse_diagram)
                    for keyword in ("genus", "types", "reading")))


@pytest.mark.parametrize("values", ("x", "01", "-0", "+1", "1 x"))
@pytest.mark.parametrize("keyword, text, parse", _INTEGER_LINES,
                         ids=[f"{k}-{parse.__name__}" for k, _, parse in _INTEGER_LINES])
def test_a_malformed_integer_line_fails_at_its_line(keyword, text, parse, values):
    lines = text.split("\n")
    number = next(i for i, line in enumerate(lines, 1) if line.startswith(keyword + " "))
    lines[number - 1] = f"{keyword} {values}"
    with pytest.raises(FormatError, match=f"^line {number}: expected '{keyword} <"):
        parse("\n".join(lines))


def _outcome(parse, write, text):
    try:
        return write(parse(text))
    except FormatError as exc:
        return str(exc), exc.line


def _diagram_outcome(text):
    return _outcome(parse_diagram, format_diagram, text)


def _reference_word(text, rank):
    """One word text read on its own, token by token, as the grammar
    reads it: the oracle for the reader's block sweep."""
    if text == "1":
        return Word(rank, ())
    letters = []
    for token in text.split(" "):
        match = re.fullmatch(r"g(0|-?[1-9][0-9]*)(\^-1)?", token)
        if match is None:
            raise ValueError(f"bad word token {token!r}")
        k = int(match[1])
        if not 1 <= k <= rank:
            raise ValueError(f"generator g{k} out of range for rank {rank}")
        letters.append(-k if match[2] else k)
    if len(Word(rank, tuple(letters))) != len(letters):
        raise ValueError("word is not freely reduced")
    return Word(rank, tuple(letters))


class _PerLineReader(_LineReader):
    """The reader with no memo: every word line read on its own, in order,
    and refused at its line."""

    def words(self, keyword, count, rank):
        start = self.pos
        lines = self.lines[start:start + count]
        words = []
        for number, line in enumerate(lines, start + 1):
            head, _, text = line.partition(" ")
            if head != keyword or not text:
                raise FormatError(f"expected '{keyword} <word>'", number)
            words.append(self.word(text, rank, number))
        if len(lines) < count:
            raise FormatError("unexpected end of file", len(self.lines) + 1)
        self.pos = start + count
        return tuple(words)

    def word(self, text, rank, line=None):
        try:
            return _reference_word(text, rank)
        except ValueError as exc:
            raise FormatError(str(exc), line or self.pos) from None


def _fresh_outcome(parse, write, text):
    """The outcome read by the per-line reader, with each system block
    checked as if it were the first."""
    parse_system = multisect.diagrams._parse_system
    with patch.object(multisect.diagrams, "_LineReader", _PerLineReader), \
            patch.object(multisect.presentations, "_LineReader", _PerLineReader), \
            patch.object(multisect.diagrams, "_parse_system",
                         lambda reader, surface, seen: parse_system(reader, surface, {})):
        return _outcome(parse, write, text)


def _check_against_the_per_line_reader(parse, write, text):
    outcome = _outcome(parse, write, text)
    assert outcome == _fresh_outcome(parse, write, text)
    if isinstance(outcome, str):
        assert outcome == text
    else:
        assert outcome[1] is not None and 1 <= outcome[1] <= text.count("\n") + 1


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_REPEATING_MSDS).flatmap(_one_token_edit))
def test_one_token_edits_of_repeated_blocks_parse_as_if_read_afresh(text):
    _check_against_the_per_line_reader(parse_diagram, format_diagram, text)


# files whose blocks of word lines are all distinct: the bisection of
# lens(5,2) # lens(3,1) and that sum itself, and a presentation
_SUM = connected_sum(lens_diagram(5, 2), lens_diagram(3, 1))
_DISTINCT_FILES = ((format_diagram(bisection_from_heegaard(_SUM)), parse_diagram, format_diagram),
                   (format_heegaard(_SUM), parse_heegaard, format_heegaard),
                   (PRESENTATION, parse_presentation, format_presentation))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_DISTINCT_FILES).flatmap(
    lambda case: st.tuples(st.just(case), _one_token_edit(case[0]))))
def test_one_token_edits_of_distinct_blocks_parse_as_the_per_line_reader_reads(edited):
    (_, parse, write), text = edited
    _check_against_the_per_line_reader(parse, write, text)


def _layout_outcome(text):
    try:
        return _LineReader(text).lines
    except FormatError as exc:
        return str(exc), exc.line


def _per_line_layout(text):
    """The layout check scanning every line, as an oracle for the
    reader's whole-text test."""
    lines = text.split("\n")
    for number, line in enumerate(lines[:-1], 1):
        if not line or " ".join(line.split()) != line:
            return str(FormatError("blank line or whitespace other than single "
                                   "spaces between tokens", number)), number
    if lines.pop():
        return str(FormatError("missing final newline", len(lines) + 1)), len(lines) + 1
    return lines


_LAYOUT_CHARS = (" ", "\t", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f",
                 "\x85", "\xa0", "\u2028", "\n")
_LAYOUT_FILES = (("msd", _REPEATING_MSDS[0], parse_diagram, format_diagram),
                 ("hd", format_heegaard(_LENS), parse_heegaard, format_heegaard))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(_LAYOUT_FILES), st.sampled_from(("insert", "substitute")),
       st.integers(0, 10 ** 5), st.sampled_from(_LAYOUT_CHARS))
def test_whitespace_edits_fail_the_layout_check_as_the_per_line_scan_does(
        case, edit, position, char):
    _, text, parse, write = case
    i = position % (len(text) + (edit == "insert"))
    mutated = text[:i] + char + text[i + (edit == "substitute"):]
    expected = _per_line_layout(mutated)
    assert _layout_outcome(mutated) == expected
    try:
        outcome = write(parse(mutated))
    except FormatError as exc:
        outcome = str(exc), exc.line
    if isinstance(expected, tuple):
        assert outcome == expected  # the layout fault is the one reported
    else:
        assert outcome == mutated or isinstance(outcome, tuple)


@pytest.mark.parametrize("label", ("bêta", "β", "系统", "a\u0301"))
def test_a_non_ascii_label_parses_and_round_trips(label):
    b = bisection_from_heegaard(_LENS)
    systems = (b.systems[0].relabelled(label),) + b.systems[1:]
    text = format_diagram(replace(b, systems=systems))
    assert not text.isascii()
    assert format_diagram(parse_diagram(text)) == text
    h = replace(_LENS, beta=_LENS.beta.relabelled(label))
    assert format_heegaard(parse_heegaard(format_heegaard(h))) == format_heegaard(h)
