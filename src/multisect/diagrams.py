"""Algebraic models of Heegaard and multisection diagrams.

A genus-G central surface is modelled by the free group of its once
punctured copy: rank 2G, with the symplectic basis pairing generator
2i-1 (a-type) with generator 2i (b-type).  A cut system is G curve words
together with a standardizing automorphism carrying the curves to G
distinct positive letters; killing those letters leaves a free group on
the surviving letters, so reading any curve against the system is one
substitution by the system's dual images: the standardizer's images with
the standard letters deleted and the survivors renamed.  No planar curve
geometry appears anywhere: geometric realizability of user-supplied
systems is an assumption, recorded as such, while constructed systems
are realizable by construction.

Reading direction convention: ``reading (i, j)`` expresses the curves of
system j against system i.  A bounded diagram stores its boundary pair as
(s, 1).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from functools import cache, cached_property

from .presentations import (AbelianInvariants, GroupPresentation, SectorVerdict,
                            TietzeResult, abelianization, tietze_simplify,
                            DEFAULT_TIETZE_BUDGET)
from .words import (FormatError, FreeAutomorphism, Word, _LineReader,
                    _canonical_letters, _cyclic_core, _signed_table, _substitute,
                    block_automorphism, compose, flip_letters, format_word,
                    identity_automorphism, invert_all, parse_integer)


class DiagramError(ValueError):
    """An inconsistent diagram.  ``where`` names the part at fault when
    it is one line of the file format: ``"types"`` or a reading pair."""

    def __init__(self, message: str, where: str | tuple[int, int] | None = None):
        self.where = where
        super().__init__(message)


@dataclass(frozen=True)
class SurfaceModel:
    """A closed orientable surface of the given genus, seen through the
    rank-2G free group of its punctured copy."""

    genus: int

    def __post_init__(self):
        if self.genus < 0:
            raise ValueError("genus must be non-negative")

    @property
    def rank(self) -> int:
        return 2 * self.genus

    def a_letter(self, i: int) -> int:
        if not 1 <= i <= self.genus:
            raise ValueError("handle index out of range")
        return 2 * i - 1

    def b_letter(self, i: int) -> int:
        if not 1 <= i <= self.genus:
            raise ValueError("handle index out of range")
        return 2 * i


@dataclass(frozen=True)
class CutSystem:
    """G disjoint curves cutting the surface to a planar piece, given as
    words plus a standardizing automorphism.

    The exponent vectors of the curves must be part of a basis of Z^2G
    (necessary for any cut system).  When a standardizer is present it
    must carry the curves to pairwise distinct positive single letters,
    the system's standard letters; the complementary letters, in
    increasing order, name the dual generators 1..G of the free quotient,
    onto which a reading is one substitution by ``dual_images``.

    With a standardizer, checking the standard letters is the whole
    check: the standardizer's abelianized matrix M is unimodular (its
    construction checks that), and the curves' exponent vectors are the
    rows of M^-1 at the distinct standard letters, so they are part of a
    basis.  Only a system without a standardizer pays for a Smith normal
    form of its exponent matrix, which must have rank G and all
    invariant factors 1.  A checked system takes another label through
    :meth:`relabelled`, which checks only the label.
    """

    surface: SurfaceModel
    curves: tuple[Word, ...]
    standardizer: FreeAutomorphism | None = None
    label: str = "system"

    def __post_init__(self):
        genus = self.surface.genus
        if len(self.curves) != genus:
            raise DiagramError(f"system {self.label!r}: expected {genus} curves")
        for c in self.curves:
            if c.rank != self.surface.rank:
                raise DiagramError(f"system {self.label!r}: curve rank mismatch")
            if genus > 0 and c.is_identity():
                raise DiagramError(f"system {self.label!r}: empty curve word")
            if _cyclic_core(c.letters) != c.letters:
                raise DiagramError(
                    f"system {self.label!r}: curve not cyclically reduced")
        _check_label(self.label)
        if self.standardizer is None:
            # part of a basis of Z^2G: the quotient by the curves is Z^G
            if abelianization(GroupPresentation(self.surface.rank, self.curves)) \
                    != AbelianInvariants(genus):
                raise DiagramError(
                    f"system {self.label!r}: exponent matrix is not part of a basis")
            return
        if self.standardizer.rank != self.surface.rank:
            raise DiagramError(f"system {self.label!r}: standardizer rank mismatch")
        _ = self.standard_letters  # force validation

    def relabelled(self, label: str) -> "CutSystem":
        """This system under another label.  Its curves and standardizer
        passed this system's checks, so only the label is checked, and the
        copy shares the standard letters and dual images."""
        _check_label(label)
        if self.standardizer is not None:
            _ = self.dual_table  # derived once for every copy
        clone = object.__new__(CutSystem)
        clone.__dict__.update(self.__dict__, label=label)
        return clone

    @cached_property
    def standard_letters(self) -> tuple[int, ...]:
        if self.standardizer is None:
            raise DiagramError(f"system {self.label!r} has no standardizer")
        letters = []
        for c in self.curves:
            image = _substitute(self.standardizer.table, c.letters)
            if len(image) != 1 or image[0] < 0:
                raise DiagramError(
                    f"system {self.label!r}: standardizer sends {format_word(c)} "
                    f"to {format_word(Word(c.rank, image))}, not a positive letter")
            letters.append(image[0])
        if len(set(letters)) != len(letters):
            raise DiagramError(f"system {self.label!r}: standard letters collide")
        return tuple(letters)

    @cached_property
    def surviving_letters(self) -> tuple[int, ...]:
        dead = set(self.standard_letters)
        return tuple(k for k in range(1, self.surface.rank + 1) if k not in dead)

    @cached_property
    def dual_images(self) -> tuple[tuple[int, ...], ...]:
        """The reading homomorphism, as the letters of each generator's
        image in the dual generators: its standardizer image with the
        standard letters deleted and the surviving letters renamed 1..G
        in increasing order, freely reduced."""
        dual = [()] * self.surface.rank
        for n, lt in enumerate(self.surviving_letters, 1):
            dual[lt - 1] = (n,)
        table = _signed_table(dual)
        return tuple(_substitute(table, img.letters) for img in self.standardizer.images)

    @cached_property
    def dual_table(self) -> tuple[tuple[int, ...], ...]:
        """The dual images as the signed table of :func:`_substitute`."""
        return _signed_table(self.dual_images)


def _check_label(label: str) -> None:
    if " " in label or not label:
        raise DiagramError("system labels must be nonempty and space-free")


def express_against(w: Word, system: CutSystem) -> Word:
    """Image of a based word in the free quotient by the system, written
    in the dual generators (freely but not cyclically reduced): one
    substitution by the system's dual images."""
    if w.rank != system.surface.rank:
        raise DiagramError("word rank does not match the system's surface")
    return Word._made(system.surface.genus, _substitute(system.dual_table, w.letters))


def read_against(curve: Word, system: CutSystem) -> Word:
    """Relator word of a curve against a cut system: its image under the
    system's dual images, reduced cyclically."""
    if curve.rank != system.surface.rank:
        raise DiagramError("word rank does not match the system's surface")
    return Word._made(system.surface.genus,
                      _cyclic_core(_substitute(system.dual_table, curve.letters)))


def standard_alpha_system(surface: SurfaceModel, label: str = "alpha") -> CutSystem:
    """The a-type letters as a cut system, standardized by the identity."""
    curves = tuple(Word(surface.rank, (surface.a_letter(i),))
                   for i in range(1, surface.genus + 1))
    return CutSystem(surface, curves, identity_automorphism(surface.rank), label)


@dataclass(frozen=True)
class GeometricHeegaardDiagram:
    """A genus-g Heegaard diagram whose alpha system is the standard
    a-type basis; only the beta system needs storing."""

    genus: int
    beta: CutSystem
    name: str = ""
    params: tuple[int, int] | None = None

    def __post_init__(self):
        if self.beta.surface.genus != self.genus:
            raise DiagramError("beta system lives on the wrong surface")
        if self.beta.standardizer is None:
            raise DiagramError("Heegaard diagrams here require a beta standardizer")

    @property
    def surface(self) -> SurfaceModel:
        return self.beta.surface

    @cached_property
    def alpha(self) -> CutSystem:
        return standard_alpha_system(self.surface)

    def relators(self) -> tuple[Word, ...]:
        """Readings of the beta curves against alpha: relators of the
        fundamental group of the underlying 3-manifold."""
        return read_system(self.alpha, self.beta)

    def pi1_presentation(self) -> GroupPresentation:
        return GroupPresentation(self.genus, self.relators())

    def homology(self) -> AbelianInvariants:
        return abelianization(self.pi1_presentation())


def connected_sum(h1: GeometricHeegaardDiagram,
                  h2: GeometricHeegaardDiagram) -> GeometricHeegaardDiagram:
    """Connected sum: genus adds, curves of the second summand move into
    fresh handles, standardizers combine blockwise."""
    g = h1.genus + h2.genus
    surface = SurfaceModel(g)
    shifted = tuple(c.shift(2 * h1.genus, surface.rank) for c in h2.beta.curves)
    kept = tuple(Word(surface.rank, c.letters) for c in h1.beta.curves)
    std = block_automorphism([h1.beta.standardizer, h2.beta.standardizer])
    name = f"{h1.name}#{h2.name}" if h1.name and h2.name else (h1.name or h2.name)
    beta = CutSystem(surface, kept + shifted, std, "beta")
    return GeometricHeegaardDiagram(g, beta, name, None)


def mirror(h: GeometricHeegaardDiagram) -> GeometricHeegaardDiagram:
    """Orientation reversal: every curve letter flips sign in place, and
    the standardizer is conjugated by the all-inverting involution (with
    a final sign fix so standard letters stay positive)."""
    rank = h.surface.rank
    inv = invert_all(rank)
    conj = compose(inv, compose(h.beta.standardizer, inv))
    std = compose(flip_letters(rank, h.beta.standard_letters), conj)
    curves = tuple(c.letter_inverse().cyclic_reduce() for c in h.beta.curves)
    beta = CutSystem(h.surface, curves, std, "beta")
    name = f"-{h.name}" if h.name else ""
    return GeometricHeegaardDiagram(h.genus, beta, name, None)


def stabilize(h: GeometricHeegaardDiagram) -> GeometricHeegaardDiagram:
    """Add a trivial handle: the connected sum with the genus-1 diagram
    of S3 whose curve is the b-type letter, so the new dual generator
    acquires a killing relator.  Name and parameters are kept."""
    beta = CutSystem(SurfaceModel(1), (Word(2, (2,)),), identity_automorphism(2), "beta")
    sphere = GeometricHeegaardDiagram(1, beta)
    return replace(connected_sum(h, sphere), params=h.params)


Pair = tuple[int, int]


def adjacent_pairs(count: int, closed: bool) -> tuple[Pair, ...]:
    """Pairs (i, i + 1) of ``count`` systems in order, and (count, 1)
    when the family closes up: the sector pairs of a diagram."""
    if closed:
        return tuple((i, i % count + 1) for i in range(1, count + 1))
    return tuple((i, i + 1) for i in range(1, count))


@dataclass(frozen=True)
class MultisectionDiagram:
    """An ordered family of cut systems on one central surface.

    Adjacent systems (cyclically, for closed diagrams) cut out the sector
    interfaces; for bounded diagrams the pair (s, 1) is the boundary
    Heegaard diagram rather than a sector.  ``claimed_types`` lists one
    handlebody rank per sector.  Cached readings are re-derived from the
    standardizers at construction time, once per distinct pair of home
    dual images and other curves, and every cached word must agree with
    its re-derivation up to rotation and inversion.
    """

    surface: SurfaceModel
    systems: tuple[CutSystem, ...]
    closed: bool
    claimed_types: tuple[int, ...]
    readings: tuple[tuple[Pair, tuple[Word, ...]], ...] = ()

    def __post_init__(self):
        s = len(self.systems)
        if s < 3:
            raise DiagramError("a multisection diagram needs at least 3 systems")
        for system in self.systems:
            if system.surface != self.surface:
                raise DiagramError("all systems must share the central surface")
        labels = [sys.label for sys in self.systems]
        if len(set(labels)) != len(labels):
            raise DiagramError("system labels must be distinct")
        expected = s if self.closed else s - 1
        if len(self.claimed_types) != expected:
            raise DiagramError(
                f"expected {expected} claimed sector types, got {len(self.claimed_types)}",
                "types")
        for k in self.claimed_types:
            if not 0 <= k <= self.surface.genus:
                raise DiagramError(f"claimed sector rank {k} is outside "
                                   f"0..{self.surface.genus}", "types")
        readings = tuple(sorted(((pair, tuple(words)) for pair, words in self.readings),
                                key=lambda item: item[0]))
        object.__setattr__(self, "readings", readings)
        for (pair, _), (following, _) in zip(readings, readings[1:]):
            if pair == following:
                raise DiagramError(f"duplicate reading pair {pair}", pair)
        # (ids of the home dual table and other curves) -> cores, and those
        # keys with the ids of cached words that agree; copies share them
        derived, agreed = {}, set()
        for (i, j), words in readings:
            if not (1 <= i <= s and 1 <= j <= s and i != j):
                raise DiagramError(f"reading pair {(i, j)} out of range", (i, j))
            if len(words) != self.surface.genus:
                raise DiagramError(f"reading {(i, j)}: expected one word per curve",
                                   (i, j))
            for w in words:
                if w.rank != self.surface.genus:
                    raise DiagramError(f"reading {(i, j)}: dual rank mismatch", (i, j))
            home, other = self.systems[i - 1], self.systems[j - 1]
            if home.standardizer is None:
                continue
            key = (id(home.dual_table), id(other.curves))
            if (key, id(words)) in agreed:
                continue
            if key not in derived:
                derived[key] = tuple(_cyclic_core(_substitute(home.dual_table, c.letters))
                                     for c in other.curves)
            for cached, core in zip(words, derived[key]):
                # the cyclic core is what readings cache; compare
                # conjugacy classes only when the cached word differs
                if cached.letters != core and \
                        _canonical_letters(cached.letters) != _canonical_letters(core):
                    raise DiagramError(
                        f"cached reading {(i, j)} disagrees with recomputation",
                        (i, j))
            agreed.add((key, id(words)))

    @property
    def sector_count(self) -> int:
        return len(self.systems) if self.closed else len(self.systems) - 1

    @cached_property
    def reading_map(self) -> dict[Pair, tuple[Word, ...]]:
        return {pair: words for pair, words in self.readings}

    def sector_pairs(self) -> tuple[Pair, ...]:
        return adjacent_pairs(len(self.systems), self.closed)

    def boundary_pair(self) -> Pair | None:
        if self.closed:
            return None
        return (len(self.systems), 1)

    @cached_property
    def boundary_invariants(self) -> AbelianInvariants:
        """Abelian invariants of the boundary pair presentation of a
        bounded diagram, computed once per diagram.  The pair is stored as
        (s, 1) but read from system 1's side first."""
        if self.closed:
            raise DiagramError("closed diagrams have no boundary")
        home, other = readable_sides(self, 1, len(self.systems))[0]
        return abelianization(presentation_of_pair(self, home, other))


def read_system(system_i: CutSystem, system_j: CutSystem) -> tuple[Word, ...]:
    """Curves of system j read against system i."""
    return tuple(read_against(c, system_i) for c in system_j.curves)


def readable_sides(d: MultisectionDiagram, i: int, j: int) -> tuple[Pair, ...]:
    """The sides from which the pair {i, j} can be read, (i, j) before
    (j, i): those whose reading is cached or whose home system has a
    standardizer.  Both present one group; :func:`settle_pair` reads the
    second side only when the first does not simplify to a free one."""
    sides = tuple((h, o) for h, o in ((i, j), (j, i))
                  if (h, o) in d.reading_map or d.systems[h - 1].standardizer is not None)
    if not sides:
        raise DiagramError(
            f"pair ({i}, {j}) is unreadable: no cache and no standardizer")
    return sides


def reading_of_pair(d: MultisectionDiagram, i: int, j: int) -> tuple[Word, ...]:
    """System j read against system i, cached or by substitution; a
    system reads trivially against itself, its curves bounding disks."""
    return read_pair(d.systems, d.reading_map, i, j)


def read_pair(systems: tuple[CutSystem, ...], cache: dict[Pair, tuple[Word, ...]],
              i: int, j: int) -> tuple[Word, ...]:
    """:func:`reading_of_pair` of systems and cached readings that need
    not form a checked diagram."""
    if i == j:
        genus = systems[0].surface.genus
        return (Word(genus, ()),) * genus
    cached = cache.get((i, j))
    if cached is not None:
        return cached
    if systems[i - 1].standardizer is None:
        raise DiagramError(
            f"pair ({i}, {j}) is unreadable: no cache and no standardizer")
    return read_system(systems[i - 1], systems[j - 1])


def presentation_of_pair(d: MultisectionDiagram, i: int, j: int) -> GroupPresentation:
    """Generators: duals of system i; relators: system j read against it."""
    return GroupPresentation(d.surface.genus, reading_of_pair(d, i, j))


def pi1_of_diagram(d: MultisectionDiagram) -> GroupPresentation:
    """Fundamental group of the underlying 4-manifold: duals of system 1,
    with every other system read against it."""
    relators: list[Word] = []
    for j in range(2, len(d.systems) + 1):
        relators.extend(reading_of_pair(d, 1, j))
    return GroupPresentation(d.surface.genus, tuple(relators))


@dataclass(frozen=True)
class ValidationReport:
    entries: tuple[tuple[Pair, int, SectorVerdict], ...]
    boundary: tuple[Pair, AbelianInvariants] | None

    @property
    def ok(self) -> bool:
        return all(verdict.is_verified for _, _, verdict in self.entries)


def settle_pair(d: MultisectionDiagram, sides, budget: int = DEFAULT_TIETZE_BUDGET,
                settled: dict | None = None) -> tuple[Pair, TietzeResult] | None:
    """Tietze-simplify the pair presentation of each of ``sides`` in
    order, and return the first side that simplifies to a free
    presentation with its result; when none does, the first side and its
    result, or None for no sides.

    ``settled``, when given, keeps each result under the budget, the
    generator count and the relator letters it was computed from, so a
    caller settling many pairs simplifies each distinct presentation
    once: :func:`tietze_simplify` is deterministic, so an equal input
    has an equal result, trace and verdict."""
    settled = {} if settled is None else settled
    first = None
    for side in sides:
        pres = presentation_of_pair(d, *side)
        key = (budget, pres.generator_count, tuple(rel.letters for rel in pres.relators))
        result = settled.get(key)
        if result is None:
            result = settled[key] = tietze_simplify(pres, budget)
        if not result.presentation.relators:
            return side, result
        first = first or (side, result)
    return first


def validate(d: MultisectionDiagram,
             budget: int = DEFAULT_TIETZE_BUDGET) -> ValidationReport:
    """Check every sector interface against its claimed handlebody rank,
    and report boundary homology for bounded diagrams."""
    entries, settled = [], {}
    for (i, j), claimed in zip(d.sector_pairs(), d.claimed_types):
        _, result = settle_pair(d, readable_sides(d, i, j), budget, settled)
        entries.append(((i, j), claimed, SectorVerdict.of(result, claimed)))
    pair = d.boundary_pair()
    boundary = None if pair is None else (pair, d.boundary_invariants)
    return ValidationReport(tuple(entries), boundary)


# ---------------------------------------------------------------------------
# file formats


def _system_body(system: CutSystem, text) -> list[str]:
    """The lines of a system block after its label line, each word
    written by ``text``."""
    lines = [f"curve {text(c)}" for c in system.curves]
    std = system.standardizer
    if std is not None:
        lines.append("standardizer")
        lines.extend(f"image {text(img)}" for img in std.images)
        if std.inverse_images is not None:
            lines.append("inverse")
            lines.extend(f"image {text(img)}" for img in std.inverse_images)
    return lines


def _parse_system(reader: _LineReader, surface: SurfaceModel,
                  seen: dict[tuple[str, ...], CutSystem]) -> CutSystem:
    """One system block, whose span after the label follows from its
    shape: genus curve lines, then rank image lines after ``standardizer``
    and rank more after ``inverse``.  A span that repeats one in ``seen``
    holds the same words, so it is that system relabelled, and is not
    read: the words passed every check but the label's already."""
    keyword, _, label = reader.take().partition(" ")
    if keyword != "system" or not label:
        raise FormatError("expected 'system <label>'", reader.pos)
    lines, start = reader.lines, reader.pos
    end = start + surface.genus
    if end < len(lines) and lines[end] == "standardizer":
        end += 1 + surface.rank
        if end < len(lines) and lines[end] == "inverse":
            end += 1 + surface.rank
    key = tuple(lines[start:end])
    copied = seen.get(key)
    if copied is None:
        curves = reader.words("curve", surface.genus, surface.rank)
        images = inverse = None
        if reader.peek() == "standardizer":
            reader.take()
            images = reader.words("image", surface.rank, surface.rank)
            if reader.peek() == "inverse":
                reader.take()
                inverse = reader.words("image", surface.rank, surface.rank)
    reader.pos = end  # past the block, whether read or copied
    try:
        if copied is not None:
            return copied.relabelled(label)
        std = None if images is None else FreeAutomorphism(surface.rank, images, inverse)
        seen[key] = system = CutSystem(surface, curves, std, label)
        return system
    except ValueError as exc:
        raise FormatError(str(exc), reader.pos) from None


def format_diagram(d: MultisectionDiagram) -> str:
    """The MSD text of ``d``.  Each distinct word is written once per
    call, through a letter -> token table, and so is the body of each
    system block, keyed by the identity of its curves and standardizer,
    which relabelled copies share and ``d`` keeps alive."""
    token = {lt: f"g{lt}" if lt > 0 else f"g{-lt}^-1"
             for lt in range(-d.surface.rank, d.surface.rank + 1) if lt}
    # format_word, through the table; the cache lives for this call only
    text = cache(lambda w: " ".join(map(token.__getitem__, w.letters)) or "1")
    lines = ["MSD 1",
             f"genus {d.surface.genus}",
             f"closed {'true' if d.closed else 'false'}",
             "types " + " ".join(str(k) for k in d.claimed_types)]
    bodies: dict[tuple[int, int], list[str]] = {}
    for system in d.systems:
        key = (id(system.curves), id(system.standardizer))
        if key not in bodies:
            bodies[key] = _system_body(system, text)
        lines.append(f"system {system.label}")
        lines.extend(bodies[key])
    for (i, j), words in d.readings:
        lines.append(f"reading {i} {j}")
        lines.extend(f"word {text(w)}" for w in words)
    return "\n".join(lines) + "\n"


def _parse_header(reader: _LineReader, header: str) -> int:
    """The header line, then ``genus <g>``; returns the genus."""
    if reader.take() != header:
        raise FormatError(f"expected '{header}' header", reader.pos)
    keyword, _, value = reader.take().partition(" ")
    if keyword != "genus":
        raise FormatError("expected 'genus <g>'", reader.pos)
    try:
        genus = parse_integer(value)
    except ValueError:
        genus = None
    if genus is None or genus < 0:
        raise FormatError("bad genus line", reader.pos)
    return genus


def parse_diagram(text: str) -> MultisectionDiagram:
    reader = _LineReader(text)
    surface = SurfaceModel(_parse_header(reader, "MSD 1"))
    line = reader.take()
    if line not in ("closed true", "closed false"):
        raise FormatError("expected 'closed <true|false>'", reader.pos)
    closed = line == "closed true"
    keyword, *values = reader.take().split(" ")
    if keyword != "types":
        raise FormatError("expected 'types <k1> <k2> ...'", reader.pos)
    try:
        types = tuple(parse_integer(tok) for tok in values)
    except ValueError:
        raise FormatError("bad types line", reader.pos) from None
    line_of = {"types": reader.pos}  # DiagramError.where -> line number

    systems, seen = [], {}
    while (line := reader.peek()) is not None and not line.startswith("reading "):
        systems.append(_parse_system(reader, surface, seen))
    readings = []
    unordered = None  # first reading line whose pair precedes the one before
    while reader.peek() is not None:
        keyword, *indices = reader.take().split(" ")
        if keyword == "system":
            raise FormatError("systems must come before the readings", reader.pos)
        if keyword != "reading" or len(indices) != 2:
            raise FormatError("expected 'reading <i> <j>'", reader.pos)
        try:
            pair = (parse_integer(indices[0]), parse_integer(indices[1]))
        except ValueError:
            raise FormatError("bad reading indices", reader.pos) from None
        if readings and pair < readings[-1][0] and unordered is None:
            unordered = reader.pos
        line_of[pair] = reader.pos
        words = reader.words("word", surface.genus, surface.genus)
        readings.append((pair, words))
    try:
        d = MultisectionDiagram(surface, tuple(systems), closed, types,
                                tuple(readings))
    except ValueError as exc:
        # a fault of the whole file (too few systems, a repeated label)
        # is reported at its last line
        where = getattr(exc, "where", None)
        raise FormatError(str(exc), line_of.get(where, reader.pos)) from None
    # checked last, so that a fault in a reading itself is what is reported
    if unordered is not None:
        raise FormatError("reading pairs out of order", unordered)
    return d


def format_heegaard(h: GeometricHeegaardDiagram) -> str:
    lines = ["HD 1", f"genus {h.genus}"]
    if h.name:
        lines.append(f"name {h.name}")
    if h.params is not None:
        lines.append(f"params {h.params[0]} {h.params[1]}")
    lines.append(f"system {h.beta.label}")
    lines.extend(_system_body(h.beta, format_word))
    return "\n".join(lines) + "\n"


def parse_heegaard(text: str) -> GeometricHeegaardDiagram:
    reader = _LineReader(text)
    genus = _parse_header(reader, "HD 1")
    name = ""
    if (reader.peek() or "").startswith("name "):
        name = reader.take()[len("name "):]
    params = None
    if (reader.peek() or "").startswith("params "):
        try:
            _, p, q = reader.take().split(" ")
            params = (parse_integer(p), parse_integer(q))
        except ValueError:
            raise FormatError("expected 'params <p> <q>'", reader.pos) from None
    beta = _parse_system(reader, SurfaceModel(genus), {})
    if reader.peek() is not None:
        raise FormatError("unexpected line after the beta system", reader.pos + 1)
    try:
        return GeometricHeegaardDiagram(genus, beta, name, params)
    except ValueError as exc:
        raise FormatError(str(exc), reader.pos) from None


def content_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
