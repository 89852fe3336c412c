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
from functools import cached_property

from .matrices import IntegerMatrix, smith_normal_form
from .presentations import (AbelianInvariants, GroupPresentation, SectorVerdict,
                            abelianization, verify_free_of_rank,
                            DEFAULT_TIETZE_BUDGET)
from .words import (FormatError, FreeAutomorphism, Word, _LineReader,
                    _apply_images, _canonical_letters, _cyclic_core, _reduce,
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
    invariant factors 1.
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
        if " " in self.label or not self.label:
            raise DiagramError("system labels must be nonempty and space-free")
        if self.standardizer is None:
            rows = [c.exponent_sums() for c in self.curves]
            snf = smith_normal_form(IntegerMatrix.from_rows(rows, self.surface.rank))
            if snf.rank != genus or snf.invariant_factors != ():
                raise DiagramError(
                    f"system {self.label!r}: exponent matrix is not part of a basis")
            return
        if self.standardizer.rank != self.surface.rank:
            raise DiagramError(f"system {self.label!r}: standardizer rank mismatch")
        _ = self.standard_letters  # force validation

    @cached_property
    def standard_letters(self) -> tuple[int, ...]:
        if self.standardizer is None:
            raise DiagramError(f"system {self.label!r} has no standardizer")
        letters = []
        for c in self.curves:
            image = _apply_images(self.standardizer.image_letters, c.letters)
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
        dual = {}
        for n, lt in enumerate(self.surviving_letters, 1):
            dual[lt], dual[-lt] = n, -n
        return tuple(_reduce(dual[lt] for lt in img if lt in dual)
                     for img in self.standardizer.image_letters)


def express_against(w: Word, system: CutSystem) -> Word:
    """Image of a based word in the free quotient by the system, written
    in the dual generators (freely but not cyclically reduced): one
    substitution by the system's dual images."""
    if w.rank != system.surface.rank:
        raise DiagramError("word rank does not match the system's surface")
    return Word(system.surface.genus, _apply_images(system.dual_images, w.letters))


def read_against(curve: Word, system: CutSystem) -> Word:
    """Relator word of a curve against a cut system: its image under the
    system's dual images, reduced cyclically."""
    if curve.rank != system.surface.rank:
        raise DiagramError("word rank does not match the system's surface")
    return Word(system.surface.genus,
                _cyclic_core(_apply_images(system.dual_images, curve.letters)))


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
    standardizers at construction time and must agree up to rotation and
    inversion of each word.
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
        for (i, j), words in readings:
            if not (1 <= i <= s and 1 <= j <= s and i != j):
                raise DiagramError(f"reading pair {(i, j)} out of range", (i, j))
            if len(words) != self.surface.genus:
                raise DiagramError(f"reading {(i, j)}: expected one word per curve",
                                   (i, j))
            for w in words:
                if w.rank != self.surface.genus:
                    raise DiagramError(f"reading {(i, j)}: dual rank mismatch", (i, j))
            if self.systems[i - 1].standardizer is not None:
                images = self.systems[i - 1].dual_images
                for cached, curve in zip(words, self.systems[j - 1].curves):
                    if _canonical_letters(cached.letters) != \
                            _canonical_letters(_apply_images(images, curve.letters)):
                        raise DiagramError(
                            f"cached reading {(i, j)} disagrees with recomputation",
                            (i, j))

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
        bounded diagram, computed once per diagram."""
        if self.closed:
            raise DiagramError("closed diagrams have no boundary")
        # the boundary pair is stored as (s, 1) but preferably read with
        # the roles reversed, presenting the boundary from the system-1
        # side; both orientations carry the same invariants, so fall back
        # when only one direction is readable
        s = len(self.systems)
        try:
            pres = presentation_of_pair(self, 1, s)
        except DiagramError:
            pres = presentation_of_pair(self, s, 1)
        return abelianization(pres)


def read_system(system_i: CutSystem, system_j: CutSystem) -> tuple[Word, ...]:
    """Curves of system j read against system i."""
    return tuple(read_against(c, system_i) for c in system_j.curves)


def reading_of_pair(d: MultisectionDiagram, i: int, j: int) -> tuple[Word, ...]:
    cached = d.reading_map.get((i, j))
    if cached is not None:
        return cached
    if d.systems[i - 1].standardizer is None:
        raise DiagramError(
            f"pair ({i}, {j}) is unreadable: no cache and no standardizer")
    return read_system(d.systems[i - 1], d.systems[j - 1])


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


def _pair_verdict(d: MultisectionDiagram, i: int, j: int, claimed: int,
                  budget: int) -> SectorVerdict:
    verdict = verify_free_of_rank(presentation_of_pair(d, i, j), claimed, budget)
    if verdict.status != "unknown":
        return verdict
    # the same splitting read from the other handlebody presents an
    # isomorphic group and is often easier to certify
    try:
        reverse = presentation_of_pair(d, j, i)
    except DiagramError:
        return verdict
    second = verify_free_of_rank(reverse, claimed, budget)
    return second if second.status != "unknown" else verdict


def validate(d: MultisectionDiagram,
             budget: int = DEFAULT_TIETZE_BUDGET) -> ValidationReport:
    """Check every sector interface against its claimed handlebody rank,
    and report boundary homology for bounded diagrams."""
    entries = []
    for idx, pair in enumerate(d.sector_pairs()):
        claimed = d.claimed_types[idx]
        verdict = _pair_verdict(d, pair[0], pair[1], claimed, budget)
        entries.append((pair, claimed, verdict))
    pair = d.boundary_pair()
    boundary = None if pair is None else (pair, d.boundary_invariants)
    return ValidationReport(tuple(entries), boundary)


# ---------------------------------------------------------------------------
# file formats


def _format_system(system: CutSystem, lines: list[str]) -> None:
    lines.append(f"system {system.label}")
    for c in system.curves:
        lines.append(f"curve {format_word(c)}")
    if system.standardizer is not None:
        lines.append("standardizer")
        for img in system.standardizer.images:
            lines.append(f"image {format_word(img)}")
        if system.standardizer.inverse_images is not None:
            lines.append("inverse")
            for img in system.standardizer.inverse_images:
                lines.append(f"image {format_word(img)}")


def _parse_words(reader: _LineReader, keyword: str, count: int, rank: int) -> tuple[Word, ...]:
    words = []
    for _ in range(count):
        head, _, text = reader.take().partition(" ")
        if head != keyword or not text:
            raise FormatError(f"expected '{keyword} <word>'", reader.line_no)
        words.append(reader.word(text, rank))
    return tuple(words)


def _parse_system(reader: _LineReader, surface: SurfaceModel) -> CutSystem:
    keyword, _, label = reader.take().partition(" ")
    if keyword != "system" or not label:
        raise FormatError("expected 'system <label>'", reader.line_no)
    curves = _parse_words(reader, "curve", surface.genus, surface.rank)
    std = None
    if reader.peek() == "standardizer":
        reader.take()
        images = _parse_words(reader, "image", surface.rank, surface.rank)
        inverse = None
        if reader.peek() == "inverse":
            reader.take()
            inverse = _parse_words(reader, "image", surface.rank, surface.rank)
        try:
            std = FreeAutomorphism(surface.rank, images, inverse)
        except ValueError as exc:
            raise FormatError(str(exc), reader.line_no) from None
    try:
        return CutSystem(surface, curves, std, label)
    except ValueError as exc:
        raise FormatError(str(exc), reader.line_no) from None


def format_diagram(d: MultisectionDiagram) -> str:
    lines = ["MSD 1",
             f"genus {d.surface.genus}",
             f"closed {'true' if d.closed else 'false'}",
             "types " + " ".join(str(k) for k in d.claimed_types)]
    for system in d.systems:
        _format_system(system, lines)
    for (i, j), words in d.readings:
        lines.append(f"reading {i} {j}")
        for w in words:
            lines.append(f"word {format_word(w)}")
    return "\n".join(lines) + "\n"


def _parse_header(reader: _LineReader, header: str) -> int:
    """The header line, then ``genus <g>``; returns the genus."""
    if reader.take() != header:
        raise FormatError(f"expected '{header}' header", reader.line_no)
    keyword, _, value = reader.take().partition(" ")
    if keyword != "genus":
        raise FormatError("expected 'genus <g>'", reader.line_no)
    try:
        genus = parse_integer(value)
    except ValueError:
        genus = None
    if genus is None or genus < 0:
        raise FormatError("bad genus line", reader.line_no)
    return genus


def parse_diagram(text: str) -> MultisectionDiagram:
    reader = _LineReader(text)
    surface = SurfaceModel(_parse_header(reader, "MSD 1"))
    line = reader.take()
    if line not in ("closed true", "closed false"):
        raise FormatError("expected 'closed <true|false>'", reader.line_no)
    closed = line == "closed true"
    keyword, *values = reader.take().split(" ")
    if keyword != "types":
        raise FormatError("expected 'types <k1> <k2> ...'", reader.line_no)
    try:
        types = tuple(parse_integer(tok) for tok in values)
    except ValueError:
        raise FormatError("bad types line", reader.line_no) from None
    line_of = {"types": reader.line_no}  # DiagramError.where -> line number

    systems = []
    while (line := reader.peek()) is not None and not line.startswith("reading "):
        systems.append(_parse_system(reader, surface))
    readings = []
    unordered = None  # first reading line whose pair precedes the one before
    while reader.peek() is not None:
        keyword, *indices = reader.take().split(" ")
        if keyword == "system":
            raise FormatError("systems must come before the readings", reader.line_no)
        if keyword != "reading" or len(indices) != 2:
            raise FormatError("expected 'reading <i> <j>'", reader.line_no)
        try:
            pair = (parse_integer(indices[0]), parse_integer(indices[1]))
        except ValueError:
            raise FormatError("bad reading indices", reader.line_no) from None
        if readings and pair < readings[-1][0] and unordered is None:
            unordered = reader.line_no
        line_of[pair] = reader.line_no
        words = _parse_words(reader, "word", surface.genus, surface.genus)
        readings.append((pair, words))
    try:
        d = MultisectionDiagram(surface, tuple(systems), closed, types,
                                tuple(readings))
    except ValueError as exc:
        # a fault of the whole file (too few systems, a repeated label)
        # is reported at its last line
        where = getattr(exc, "where", None)
        raise FormatError(str(exc), line_of.get(where, reader.line_no)) from None
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
    _format_system(h.beta, lines)
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
            raise FormatError("expected 'params <p> <q>'", reader.line_no) from None
    beta = _parse_system(reader, SurfaceModel(genus))
    if reader.peek() is not None:
        raise FormatError("unexpected line after the beta system", reader.line_no + 1)
    try:
        return GeometricHeegaardDiagram(genus, beta, name, params)
    except ValueError as exc:
        raise FormatError(str(exc), reader.line_no) from None


def content_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
