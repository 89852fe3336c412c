"""Words and explicit automorphisms of finite-rank free groups.

Letters are nonzero integers: ``k`` is the k-th generator and ``-k`` its
inverse, with ``1 <= k <= rank``.  Words reduce freely on construction, so
every :class:`Word` in circulation is reduced; relators and curve classes
are additionally cyclically reduced where they are declared as such.

All values are immutable and every operation is pure, so shared use from
multiple threads is safe.

>>> w = Word(2, (1, 2, -2, 1))
>>> w.letters
(1, 1)
>>> w.inverse().letters
(-1, -1)
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, repeat
from operator import eq, itemgetter, neg
from typing import Iterable, Iterator, Mapping, Sequence

from .matrices import determinant

__all__ = [
    "Word",
    "FreeAutomorphism",
    "apply",
    "compose",
    "canonical_cyclic",
    "identity_automorphism",
    "automorphism",
    "invert_all",
    "flip_letters",
    "relabel",
    "block_automorphism",
    "FormatError",
    "parse_integer",
    "parse_word",
    "format_word",
]

# the form ``str(int)`` writes back; [0-9] rather than \d keeps it ASCII
_INTEGER = "0|-?[1-9][0-9]*"
_INTEGER_RE = re.compile(_INTEGER)
_TOKEN_RE = re.compile(rf"g({_INTEGER})(\^-1)?")


class FormatError(ValueError):
    """Text that does not parse, with the 1-based number of the line at
    fault when one is known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class _LineReader:
    """The lines of a text file in one of the formats, which must be laid
    out the one way the formatters write them: every line ends in a
    newline and holds tokens separated by single spaces.  A blank line, a
    tab, a carriage return, leading, trailing or repeated whitespace and a
    missing final newline are each a FormatError at the first line at
    fault, so that a file that parses formats back to itself.  Lines are
    scanned only for text that fails a test all laid-out ASCII text passes."""

    def __init__(self, text: str):
        lines = text.split("\n")
        if not text.isascii() or text.startswith((" ", "\n")) or \
                "  " in text.replace("\n", " ") or \
                any(c in text for c in "\t\r\x0b\x0c\x1c\x1d\x1e\x1f"):
            for number, line in enumerate(lines[:-1], 1):
                if not line or " ".join(line.split()) != line:
                    raise FormatError("blank line or whitespace other than single "
                                      "spaces between tokens", number)
        if lines.pop():
            raise FormatError("missing final newline", len(lines) + 1)
        self.lines = lines
        self.pos = 0
        self._letters: dict[int, dict[str, int]] = {}  # rank -> token -> letter
        self._words: dict[int, dict[str, Word]] = {}  # rank -> text -> word
        self._blocks: dict[tuple, tuple[Word, ...]] = {}  # words() call -> words

    def peek(self) -> str | None:
        return self.lines[self.pos] if self.pos < len(self.lines) else None

    def take(self) -> str:
        line = self.peek()
        if line is None:
            raise FormatError("unexpected end of file", self.pos + 1)
        self.pos += 1
        return line

    def words(self, keyword: str, count: int, rank: int) -> tuple[Word, ...]:
        """The next ``count`` lines, each ``<keyword> <word>``, as words, once
        per distinct block and reader: its unseen texts parsed and tested
        together, and its lines scanned only to name the first at fault."""
        start = self.pos
        lines = tuple(self.lines[start:start + count])
        key = (keyword, count, rank, lines)
        words = self._blocks.get(key)
        if words is None:
            texts = list(map(itemgetter(slice(len(keyword) + 1, None)), lines))
            memo = self._words.setdefault(rank, {})
            try:
                if not all(map(str.startswith, lines, repeat(keyword + " "))) or "" in texts:
                    raise ValueError(keyword)
                new = list(set(texts).difference(memo))
                letters = _word_letters(new, rank, self._letters.setdefault(rank, {}))
                memo.update(zip(new, map(Word._made, repeat(rank), letters)))
            except ValueError:
                for number, line in enumerate(lines, start + 1):
                    head, _, text = line.partition(" ")
                    if head != keyword or not text:
                        raise FormatError(f"expected '{keyword} <word>'", number)
                    self.word(text, rank, number)
                raise AssertionError(f"block at line {start + 1} failed with no line at fault")
            if len(lines) < count:
                raise FormatError("unexpected end of file", len(self.lines) + 1)
            words = self._blocks[key] = tuple(map(memo.__getitem__, texts))
        self.pos = start + count
        return words

    def word(self, text: str, rank: int, line: int | None = None) -> Word:
        """``text``, from line ``line`` (by default the line just taken),
        as a word, parsed as :func:`parse_word` parses it.  Each distinct
        text and token is parsed once per rank and reader; a text that
        raises is not kept, so each copy raises at its line."""
        memo = self._words.setdefault(rank, {})
        if text not in memo:
            try:
                letters = _word_letters([text], rank, self._letters.setdefault(rank, {}))
            except ValueError as exc:
                raise FormatError(str(exc), line or self.pos) from None
            memo[text] = Word._made(rank, letters[0])
        return memo[text]

    def integers(self, keyword: str, shape: str, count: int | None = None) -> tuple[int, ...]:
        """The next line as ``<keyword>`` and ``count`` integers (any number
        if None), or the FormatError ``expected '<keyword> <shape>'``."""
        head, *values = self.take().split(" ")
        try:
            if head != keyword or count not in (None, len(values)):
                raise ValueError(head)
            return tuple(map(parse_integer, values))
        except ValueError:
            raise FormatError(f"expected '{keyword} {shape}'", self.pos) from None


def _reduce(letters: Iterable[int]) -> tuple[int, ...]:
    stack: list[int] = []
    for lt in letters:
        if stack and stack[-1] == -lt:
            stack.pop()
        else:
            stack.append(lt)
    return tuple(stack)


def _cyclic_core(letters: tuple[int, ...]) -> tuple[int, ...]:
    """The cyclic reduction of a freely reduced letter tuple: strip
    letters from both ends while the first inverts the last."""
    start, stop = 0, len(letters)
    while stop - start >= 2 and letters[start] == -letters[stop - 1]:
        start, stop = start + 1, stop - 1
    return letters[start:stop]


def _letters_product(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Reduced product of two freely reduced letter tuples: letters cancel
    only at the junction."""
    k, most = 0, min(len(a), len(b))
    while k < most and a[-1 - k] == -b[k]:
        k += 1
    return a[:len(a) - k] + b[k:]


def _letters_inverse(a: tuple[int, ...]) -> tuple[int, ...]:
    """The inverse of a letter tuple: reversed, every letter negated."""
    return tuple(map(neg, reversed(a)))


def _letters_conjugate(a: tuple[int, ...], c: int) -> tuple[int, ...]:
    """Reduced c a c^-1 for a freely reduced letter tuple and one letter
    c: at the front drop a leading c^-1 or prepend c, then at the back
    drop a trailing c or append c^-1."""
    a = a[1:] if a and a[0] == -c else (c,) + a
    return a[:-1] if a and a[-1] == c else a + (-c,)


@dataclass(frozen=True)
class Word:
    """A freely reduced word in the free group of the given rank."""

    rank: int
    letters: tuple[int, ...] = ()

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("rank must be non-negative")
        letters = tuple(self.letters)
        for lt in letters:
            if type(lt) is not int or lt == 0 or abs(lt) > self.rank:
                raise ValueError(f"letter {lt!r} is not valid in rank {self.rank}")
        object.__setattr__(self, "letters", _reduce(letters))

    @classmethod
    def _made(cls, rank: int, letters: tuple[int, ...]) -> "Word":
        """The word of letters that are in range and freely reduced by how
        they were made: ``Word(rank, letters)`` without the checks."""
        word = object.__new__(cls)
        fields = word.__dict__
        fields["rank"], fields["letters"] = rank, letters
        return word

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __repr__(self) -> str:
        return f"Word({self.rank}, {format_word(self)!r})"

    def __mul__(self, other: "Word") -> "Word":
        if self.rank != other.rank:
            raise ValueError("rank mismatch in word product")
        return Word(self.rank, self.letters + other.letters)

    def is_identity(self) -> bool:
        return not self.letters

    def inverse(self) -> "Word":
        return Word._made(self.rank, _letters_inverse(self.letters))

    def letter_inverse(self) -> "Word":
        """Flip the sign of every letter, keeping the order."""
        return Word._made(self.rank, tuple(map(neg, self.letters)))

    def cyclic_reduce(self) -> "Word":
        """This word cyclically reduced: itself when it already is."""
        core = _cyclic_core(self.letters)
        return self if len(core) == len(self.letters) else Word._made(self.rank, core)

    def exponent_sums(self) -> tuple[int, ...]:
        """Exponent sum of each of the ``rank`` generators."""
        sums = [0] * self.rank
        for lt in self.letters:
            sums[abs(lt) - 1] += 1 if lt > 0 else -1
        return tuple(sums)

    def shift(self, offset: int, new_rank: int) -> "Word":
        """The word with every generator index shifted up by ``offset``."""
        if offset < 0 or self.rank + offset > new_rank:
            raise ValueError(f"cannot shift rank {self.rank} by {offset} "
                             f"into rank {new_rank}")
        return Word._made(new_rank, tuple(lt + offset if lt > 0 else lt - offset
                                          for lt in self.letters))


def _least_rotation(s: tuple[int, ...]) -> tuple[int, ...]:
    """The least rotation of a non-empty tuple in tuple order, by the
    two-pointer minimal-expression scan in O(len(s)) comparisons.  When
    the rotations starting at i and j agree on k letters and then
    differ, neither the one with the larger letter nor any of the k
    rotations starting just after it is least, so its start skips k + 1."""
    n, doubled = len(s), s + s
    i, j, k = 0, 1, 0
    while j < n and k < n:
        a, b = doubled[i + k], doubled[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        elif i > j:
            i, j = j, i
        k = 0
    return doubled[i:i + n]


def _canonical_letters(letters: tuple[int, ...]) -> tuple[int, ...]:
    """The least rotation of the cyclic reduction of a freely reduced
    letter tuple or of its inverse, in tuple order."""
    base = _cyclic_core(letters)
    if base:
        base = min(_least_rotation(base),
                   _least_rotation(_letters_inverse(base)))
    return base


def canonical_cyclic(w: Word) -> Word:
    """Canonical representative of the conjugacy class of ``w`` and its
    inverse: the least rotation of either, in tuple order."""
    return Word._made(w.rank, _canonical_letters(w.letters))


def _signed_table(images: Sequence[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    """The :func:`_substitute` table: entry k is images[k - 1], entry -k its inverse."""
    return ((), *images, *map(_letters_inverse, reversed(images)))


def _substitute(table: Sequence[tuple[int, ...]], letters: Iterable[int]) -> tuple[int, ...]:
    """Substitute ``table[lt]`` for every letter ``lt``, freely reduced.
    ``table`` is signed, as :func:`_signed_table` builds it, and holds
    freely reduced entries, so the output so far and the next entry
    cancel only where they meet (Lyndon & Schupp, ch. I.1): an entry whose
    first letter does not invert the last one out is appended whole."""
    out: list[int] = []
    for lt in letters:
        image = table[lt]
        if not (out and image and out[-1] == -image[0]):
            out += image
            continue
        k = 0
        while out and k < len(image) and out[-1] == -image[k]:
            out.pop()
            k += 1
        out += image[k:]
    return tuple(out)


@dataclass(frozen=True)
class FreeAutomorphism:
    """An automorphism given by generator images.

    When the generator images of the inverse are known they are carried
    along, which keeps inversion available without ever searching for it,
    and they are the validity check: phi(psi(x_k)) must reduce to x_k for
    every generator.  That proves phi surjective, and finitely generated
    free groups are Hopfian (a surjective endomorphism is an
    automorphism), so it proves phi an automorphism with inverse psi; it
    also makes the abelianized matrices mutually inverse, so no
    determinant is computed.  Without an inverse the check is that the
    abelianized matrix has determinant +-1, which is necessary but not
    sufficient, so such an automorphism, and any composed from it, is
    trusted at the caller's risk.
    """

    rank: int
    images: tuple[Word, ...]
    inverse_images: tuple[Word, ...] | None = None

    def __post_init__(self):
        if len(self.images) != self.rank:
            raise ValueError("need one image per generator")
        for img in self.images:
            if img.rank != self.rank:
                raise ValueError("image rank mismatch")
        if self.inverse_images is None:
            if determinant([img.exponent_sums() for img in self.images]) not in (1, -1):
                raise ValueError(
                    "abelianized determinant is not +-1; not an automorphism")
            return
        if len(self.inverse_images) != self.rank:
            raise ValueError("need one inverse image per generator")
        for k, img in enumerate(self.inverse_images):
            if img.rank != self.rank:
                raise ValueError("inverse image rank mismatch")
            if _substitute(self.table, img.letters) != (k + 1,):
                raise ValueError("declared inverse does not invert the automorphism")

    @cached_property
    def table(self) -> tuple[tuple[int, ...], ...]:
        """The images as the signed table of :func:`_substitute`, built once."""
        return _signed_table([img.letters for img in self.images])

    def inverse(self) -> "FreeAutomorphism":
        """phi^-1, unchecked: phi psi = 1 passed, so psi phi = 1 as well."""
        if self.inverse_images is None:
            raise ValueError("inverse images were not tracked for this automorphism")
        return _proven(self.rank, self.inverse_images, self.images)


def apply(phi: FreeAutomorphism, w: Word) -> Word:
    """Image of ``w`` under the substitution homomorphism, freely reduced."""
    if phi.rank != w.rank:
        raise ValueError("rank mismatch between automorphism and word")
    return Word._made(phi.rank, _substitute(phi.table, w.letters))


def compose(phi: FreeAutomorphism, psi: FreeAutomorphism) -> FreeAutomorphism:
    """The automorphism sending w to phi(psi(w)).  With both inverses tracked
    it is not checked again: psi^-1 phi^-1 inverts it, as phi and psi passed."""
    if phi.rank != psi.rank:
        raise ValueError("rank mismatch in composition")
    images = tuple(Word._made(phi.rank, _substitute(phi.table, img.letters))
                   for img in psi.images)
    if phi.inverse_images is None or psi.inverse_images is None:
        return FreeAutomorphism(phi.rank, images)
    psi_inverse = _signed_table([img.letters for img in psi.inverse_images])
    inverse = tuple(Word._made(phi.rank, _substitute(psi_inverse, img.letters))
                    for img in phi.inverse_images)
    return _proven(phi.rank, images, inverse)


def _proven(rank: int, images: tuple[Word, ...], inverse: tuple[Word, ...]) -> FreeAutomorphism:
    """``FreeAutomorphism(rank, images, inverse)`` for an inverse proven by construction."""
    if len(images) != rank:  # a negative rank
        raise ValueError("need one image per generator")
    phi = object.__new__(FreeAutomorphism)
    phi.__dict__.update(rank=rank, images=images, inverse_images=inverse)
    return phi


def _check_generators(rank: int, gens: Iterable[int]) -> None:
    if not all(map(range(1, rank + 1).__contains__, gens)):
        raise ValueError(f"a generator is outside 1..{rank}")


def identity_automorphism(rank: int) -> FreeAutomorphism:
    return flip_letters(rank, ())


def automorphism(rank: int,
                 images: Mapping[int, Iterable[int]],
                 inverse: Mapping[int, Iterable[int]] | None = None) -> FreeAutomorphism:
    """Build an automorphism from sparse generator images.

    Generators absent from ``images`` map to themselves; the same default
    applies to ``inverse`` when given.
    """
    def full(sparse: Mapping[int, Iterable[int]]) -> tuple[Word, ...]:
        _check_generators(rank, sparse)
        return tuple(Word(rank, tuple(sparse.get(k, (k,)))) for k in range(1, rank + 1))

    return FreeAutomorphism(rank, full(images), None if inverse is None else full(inverse))


def invert_all(rank: int) -> FreeAutomorphism:
    """The involution sending every generator to its inverse."""
    return flip_letters(rank, range(1, rank + 1))


def flip_letters(rank: int, gens: Iterable[int]) -> FreeAutomorphism:
    """Invert the listed generators, fixing all others; an involution."""
    flip = set(gens)
    _check_generators(rank, flip)
    images = tuple(Word._made(rank, (-k if k in flip else k,)) for k in range(1, rank + 1))
    return _proven(rank, images, images)


def relabel(rank: int, mapping: Mapping[int, int]) -> FreeAutomorphism:
    """Permute generators: generator k maps to generator mapping[k]."""
    _check_generators(rank, mapping)
    perm = {k: mapping.get(k, k) for k in range(1, rank + 1)}
    if sorted(perm.values()) != list(range(1, rank + 1)):
        raise ValueError("relabeling is not a permutation")
    images = tuple(Word._made(rank, (perm[k],)) for k in range(1, rank + 1))
    # generator perm[k] goes back to k: the generators in order of their images
    inverse = tuple(Word._made(rank, (k,)) for k in sorted(perm, key=perm.__getitem__))
    return _proven(rank, images, inverse)


def block_automorphism(blocks: Iterable[FreeAutomorphism]) -> FreeAutomorphism:
    """Block-diagonal automorphism: each block acts on its own run of
    consecutive generators, inverted by the blocks' tracked inverses."""
    blocks = list(blocks)
    offsets = [0, *accumulate(b.rank for b in blocks)]
    rank = offsets[-1]

    def joined(parts: list[tuple[Word, ...]]) -> tuple[Word, ...]:
        return tuple(img.shift(offset, rank) for part, offset in zip(parts, offsets) for img in part)

    images, inverses = joined([b.images for b in blocks]), [b.inverse_images for b in blocks]
    if None in inverses:
        return FreeAutomorphism(rank, images)
    return _proven(rank, images, joined(inverses))


def format_word(w: Word) -> str:
    """Serialize in the shared word grammar: ``g<k>`` and ``g<k>^-1``
    tokens separated by spaces, with ``1`` for the empty word."""
    if w.is_identity():
        return "1"
    return " ".join(f"g{lt}" if lt > 0 else f"g{-lt}^-1" for lt in w.letters)


def parse_integer(text: str) -> int:
    """A decimal integer written the one way ``str`` writes it back (ASCII
    digits, an optional leading minus, no leading zero, no ``+`` or
    ``_``), so that every accepted token formats back to itself."""
    if _INTEGER_RE.fullmatch(text) is None:
        raise ValueError(f"bad integer {text!r}")
    return int(text)


def parse_word(text: str, rank: int) -> Word:
    """A word as :func:`format_word` writes it, or a :class:`FormatError`:
    ``1``, or ``g<k>`` and ``g<k>^-1`` tokens joined by single spaces, each
    ``<k>`` in [1, rank] as :func:`parse_integer` reads it, freely reduced."""
    try:
        return Word(rank, _word_letters([text], rank, {})[0])
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def _word_letters(texts: list[str], rank: int, tokens: dict[str, int]) -> list[tuple[int, ...]]:
    """The letters of each :func:`parse_word` text of ``texts``, or ValueError:
    split as one text, mapped through ``tokens`` (the tokens parsed at this
    rank, which takes new ones) and tested for reduction all together."""
    parts = [text for text in texts if text != "1"]
    # a "\n" token between two texts reads as letter 0, which inverts no letter
    split = " \n ".join(parts).split(" ") if parts else []
    for token in dict.fromkeys(split):
        if token not in tokens and token != "\n":
            tokens[token] = _parse_token(token, rank)
    letters = tuple(map(tokens.get, split, repeat(0)))
    # in range, and freely reduced unless letters[i] == -letters[i + 1]
    if any(map(eq, letters, map(neg, letters[1:]))):
        raise ValueError("word is not freely reduced")
    out, at = [], 0
    for text in texts:  # a text "1" has no tokens and no "\n" after them
        end = at if text == "1" else at + text.count(" ") + 1
        out.append(letters[at:end])
        at = end if text == "1" else end + 1
    return out


def _parse_token(token: str, rank: int) -> int:
    """One ``g<k>`` or ``g<k>^-1`` token of the word grammar as a letter."""
    match = _TOKEN_RE.fullmatch(token)
    if match is None:
        raise ValueError(f"bad word token {token!r}")
    idx = int(match[1])
    if not 1 <= idx <= rank:
        raise ValueError(f"generator g{idx} out of range for rank {rank}")
    return -idx if match[2] else idx
