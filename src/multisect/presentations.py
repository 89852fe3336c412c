"""Finitely presented groups: simplification, exact homology, freeness
certification, and finite abelian quotient search.

Relators are conjugacy classes, so presentations cyclically reduce them on
construction.  Simplification is deliberately conservative: a generator is
eliminated only when it occurs exactly once in some relator, which is
always a valid Tietze move and needs no word-problem machinery.  The
payoff is a three-valued freeness check that never overclaims.

Simplification checks every move on the relators' exponent rows instead
of comparing Smith normal forms at both ends (see :func:`tietze_simplify`),
so the input's abelian invariants are those of the small simplified
presentation, and those of a free one need no computation at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product as iproduct

from .abelian import ORDER_BOUND, FiniteAbelianGroup
from .matrices import IntegerMatrix, smith_normal_form
from .words import (FormatError, Word, _apply_images, _letters_inverse,
                    canonical_cyclic, format_word, parse_integer, parse_word)

DEFAULT_TIETZE_BUDGET = 10_000


@dataclass(frozen=True)
class GroupPresentation:
    generator_count: int
    relators: tuple[Word, ...] = ()

    def __post_init__(self):
        if self.generator_count < 0:
            raise ValueError("generator count must be non-negative")
        fixed = []
        for rel in self.relators:
            if rel.rank != self.generator_count:
                raise ValueError("relator rank does not match generator count")
            fixed.append(rel.cyclic_reduce())
        object.__setattr__(self, "relators", tuple(fixed))

    def exponent_matrix(self) -> IntegerMatrix:
        return IntegerMatrix.from_rows(
            [rel.exponent_sums() for rel in self.relators], self.generator_count)


@dataclass(frozen=True)
class AbelianInvariants:
    """Isomorphism type of a finitely generated abelian group:
    Z^free_rank plus cyclic factors in divisibility order."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("free rank must be non-negative")
        torsion = tuple(int(d) for d in self.torsion)
        object.__setattr__(self, "torsion", torsion)
        for d in torsion:
            if d <= 1:
                raise ValueError("torsion coefficients must exceed 1")
        for x, y in zip(torsion, torsion[1:]):
            if y % x != 0:
                raise ValueError("torsion coefficients must form a divisibility chain")

    def describe(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"

    @property
    def minimal_generators(self) -> int:
        """Rank of the group: a lower bound for any generating set."""
        return self.free_rank + len(self.torsion)


def abelianization(pres: GroupPresentation) -> AbelianInvariants:
    """Invariants of the quotient by the commutator subgroup, from the
    Smith normal form of the relator exponent matrix."""
    snf = smith_normal_form(pres.exponent_matrix())
    return AbelianInvariants(pres.generator_count - snf.rank, snf.invariant_factors)


@dataclass(frozen=True)
class TietzeResult:
    presentation: GroupPresentation
    trace: tuple[str, ...]
    steps_used: int
    surviving_generators: tuple[int, ...]
    """Original 1-based ids of the generators that survived, in order."""
    generator_images: tuple[Word, ...]
    """For each original generator, its expression in the simplified
    presentation's generators (the isomorphism witness)."""

    @cached_property
    def invariants(self) -> AbelianInvariants:
        """Abelian invariants of the input.  The per-step row checks prove
        them equal to those of ``presentation``: Z^gens when no relator is
        left, else one Smith normal form of the simplified matrix."""
        if not self.presentation.relators:
            return AbelianInvariants(self.presentation.generator_count)
        return abelianization(self.presentation)


def _elimination_images(gens: int, gen: int, replacement: Word) -> tuple[Word, ...]:
    """Generator images that eliminate ``gen`` in favour of
    ``replacement`` and renumber the generators above it down by one."""
    images: list[Word | None] = [Word(gens - 1, (k if k < gen else k - 1,))
                                 if k != gen else None for k in range(1, gens + 1)]
    # the replacement avoids gen, so renumbering it never reads the hole
    images[gen - 1] = _apply_images(images, replacement, gens - 1)
    return tuple(images)


def _rotated_product_length(r: tuple[int, ...], s: tuple[int, ...],
                            shift: int) -> int:
    """Length of the cyclic reduction of ``r`` times the rotation
    ``s[shift:] + s[:shift]``, by index arithmetic on the letters.

    ``r`` must be freely reduced and ``s`` cyclically reduced, so that
    every rotation of ``s`` is freely reduced.  Then the product cancels
    only at the junction, k letters from each side, and cyclic reduction
    strips c more pairs from the ends of what is left.
    """
    a, b = len(r), len(s)
    k = 0
    while k < a and k < b and r[a - 1 - k] == -s[(shift + k) % b]:
        k += 1
    n = a + b - 2 * k
    head = a - k  # the reduced product is r[:head] then the rotation from k on

    def at(i: int) -> int:
        return r[i] if i < head else s[(shift + k + i - head) % b]

    c = 0
    while n - 2 * c >= 2 and at(c) == -at(n - 1 - c):
        c += 1
    return n - 2 * c


def _overlap_reduction(relators: list[Word]) -> tuple[int, int, int, Word] | None:
    """First relator that shrinks when multiplied by a rotation of
    another relator or its inverse (a conjugate, so the normal closure
    is unchanged), as ``(index, other index, sign, shorter word)``.
    Scan order is fixed, so the choice is deterministic.  Lengths are
    tested on the letter tuples; only the chosen word is built.
    """
    for i, r in enumerate(relators):
        letters = r.letters
        if not letters:
            continue
        inv_first, inv_last = -letters[0], -letters[-1]
        for j, other in enumerate(relators):
            if i == j or other.is_identity():
                continue
            inverse = _letters_inverse(other.letters)
            for sign, s in ((1, other.letters), (-1, inverse)):
                for shift in range(len(s)):
                    # without cancellation at the junction or at the ends
                    # the product keeps every letter and cannot be shorter
                    if s[shift] != inv_last and s[shift - 1] != inv_first:
                        continue
                    length = _rotated_product_length(letters, s, shift)
                    if length < len(letters):
                        rotated = Word(r.rank, s[shift:] + s[:shift])
                        candidate = (r * rotated).cyclic_reduce()
                        if len(candidate) != length:
                            raise AssertionError(
                                "shrink length disagrees with the reduced product")
                        return i, j, sign, candidate
    return None


def _eliminated_row(row: tuple[int, ...], pivot: tuple[int, ...],
                    g: int) -> tuple[int, ...]:
    """``row - (row[g] / pivot[g]) * pivot`` without column g, for a
    pivot entry of +-1 (so the quotient is the product)."""
    factor = row[g - 1] * pivot[g - 1]
    if not factor:  # most rows avoid g
        return row[:g - 1] + row[g:]
    return tuple(x - factor * p for k, (x, p) in enumerate(zip(row, pivot))
                 if k != g - 1)


def _check_row(word: Word, predicted: tuple[int, ...], move: str) -> None:
    if word.exponent_sums() != predicted:
        raise AssertionError(f"{move}: relator {format_word(word)} does not have "
                             f"the predicted exponent row {predicted}")


def tietze_simplify(pres: GroupPresentation,
                    budget: int = DEFAULT_TIETZE_BUDGET) -> TietzeResult:
    """Simplify by free/cyclic reduction, dropping empty relators,
    deduplicating relators equal up to rotation and inversion,
    eliminating generators that occur exactly once in some relator, and
    shrinking a relator by a conjugate of another when that shortens it.

    Every move preserves the presented group: elimination is a standard
    substitution, and the shrink step multiplies by a conjugate of a
    relator that stays in the set.  Deterministic: the elimination
    candidate is the highest-index eliminable generator, in the
    lowest-index relator exhibiting it; shrinking picks the first
    reduction in a fixed scan.  Exhausting the budget returns the best
    presentation reached.

    Every move is checked on the exponent rows of the relators, which
    are carried along: a dropped empty relator has a zero row, a dropped
    duplicate's row is +- the row it duplicates, a shrunk relator's row
    is its old row +- the other relator's, and an elimination has a +-1
    pivot and turns every other row into ``row - (row[g] / pivot[g]) *
    pivot`` with the pivot's row and column g deleted.  Each rewritten
    relator must have its predicted row, so the cokernel never changes
    and the result's ``invariants`` are read off the simplified
    presentation.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")

    gens = pres.generator_count
    relators = list(pres.relators)
    rows = [rel.exponent_sums() for rel in relators]
    survivors = list(range(1, gens + 1))
    images = [Word(gens, (k,)) for k in survivors]
    trace: list[str] = []
    steps = 0
    canonical: dict[Word, tuple[int, ...]] = {}  # dedup keys of relators seen

    progress = True
    while progress and steps < budget:
        progress = False

        kept = []
        for rel, row in zip(relators, rows):
            if rel.is_identity() and steps < budget:
                if any(row):
                    raise AssertionError("drop empty relator: its exponent row "
                                         f"{row} is not zero")
                steps += 1
                trace.append("drop empty relator")
                progress = True
            else:
                kept.append((rel, row))

        seen: dict[tuple[int, ...], tuple[int, ...]] = {}
        deduped = []
        for rel, row in kept:
            key = canonical.get(rel)
            if key is None:
                key = canonical[rel] = canonical_cyclic(rel).letters
            if key in seen and steps < budget:
                twin = seen[key]
                if row != twin and row != tuple(-x for x in twin):
                    raise AssertionError(f"drop duplicate relator: row {row} is "
                                         f"not +- the row {twin} it duplicates")
                steps += 1
                trace.append("drop duplicate relator")
                progress = True
            else:
                seen.setdefault(key, row)
                deduped.append((rel, row))
        relators = [rel for rel, _ in deduped]
        rows = [row for _, row in deduped]

        candidate: tuple[int, int] | None = None  # (generator, relator index)
        for ridx, rel in enumerate(relators):
            counts: dict[int, int] = {}
            for lt in rel.letters:
                counts[abs(lt)] = counts.get(abs(lt), 0) + 1
            for g, n in counts.items():
                if n == 1 and (candidate is None or g > candidate[0]):
                    candidate = (g, ridx)
        if candidate is not None and steps < budget:
            steps += 1
            g, ridx = candidate
            rel = relators[ridx]
            pivot = rows[ridx]
            if pivot[g - 1] not in (1, -1):
                raise AssertionError(f"eliminate generator: pivot entry "
                                     f"{pivot[g - 1]} is not +-1")
            pos = next(i for i, lt in enumerate(rel.letters) if abs(lt) == g)
            sign = 1 if rel.letters[pos] > 0 else -1
            u = Word(gens, rel.letters[:pos])
            v = Word(gens, rel.letters[pos + 1:])
            replacement = u.inverse() * v.inverse() if sign > 0 else v * u
            new_gens = gens - 1
            substitution = _elimination_images(gens, g, replacement)
            relators = [_apply_images(substitution, r, new_gens).cyclic_reduce()
                        for i, r in enumerate(relators) if i != ridx]
            rows = [_eliminated_row(row, pivot, g)
                    for i, row in enumerate(rows) if i != ridx]
            for r, row in zip(relators, rows):
                _check_row(r, row, "eliminate generator")
            images = [_apply_images(substitution, w, new_gens) for w in images]
            trace.append(f"eliminate generator g{survivors.pop(g - 1)}")
            gens = new_gens
            progress = True
            continue

        shrink = _overlap_reduction(relators)
        if shrink is not None and steps < budget:
            steps += 1
            ridx, other, sign, shorter = shrink
            predicted = tuple(x + sign * y for x, y in zip(rows[ridx], rows[other]))
            _check_row(shorter, predicted, "shrink relator")
            relators[ridx] = shorter
            rows[ridx] = predicted
            trace.append("shrink relator by a conjugate")
            progress = True

    return TietzeResult(GroupPresentation(gens, tuple(relators)), tuple(trace),
                        steps, tuple(survivors), tuple(images))


@dataclass(frozen=True)
class SectorVerdict:
    """Three-valued answer to "is this group free of the stated rank".

    ``verified`` is issued only for a presentation that simplified to a
    free presentation on the stated number of generators; failure to
    simplify is never reported as a refutation.
    """

    status: str  # "verified" | "refuted_by_homology" | "unknown"
    rank: int | None
    trace: tuple[str, ...] = ()

    @classmethod
    def verified(cls, rank: int, invariants: AbelianInvariants,
                 trace: tuple[str, ...] = ()) -> "SectorVerdict":
        if invariants != AbelianInvariants(rank, ()):
            raise ValueError(
                f"verified({rank}) contradicts abelian invariants {invariants.describe()}")
        return cls("verified", rank, trace)

    @classmethod
    def refuted(cls, rank: int, trace: tuple[str, ...] = ()) -> "SectorVerdict":
        return cls("refuted_by_homology", rank, trace)

    @classmethod
    def unknown(cls, rank: int, trace: tuple[str, ...] = ()) -> "SectorVerdict":
        return cls("unknown", rank, trace)

    @property
    def is_verified(self) -> bool:
        return self.status == "verified"

    def describe(self) -> str:
        label = {"verified": "Verified", "refuted_by_homology": "RefutedByHomology",
                 "unknown": "Unknown"}[self.status]
        return f"{label}({self.rank})" if self.status == "verified" else label


def verify_free_of_rank(pres: GroupPresentation, rank: int,
                        budget: int = DEFAULT_TIETZE_BUDGET) -> SectorVerdict:
    """Certify, refute, or give up on the claim that the presented group
    is free of the given rank."""
    result = tietze_simplify(pres, budget)
    invariants = result.invariants
    simplified = result.presentation
    if not simplified.relators and simplified.generator_count == rank:
        return SectorVerdict.verified(rank, invariants, result.trace)
    if invariants != AbelianInvariants(rank, ()):
        return SectorVerdict.refuted(rank, result.trace)
    return SectorVerdict.unknown(rank, result.trace)


@dataclass(frozen=True)
class Surjection:
    target: FiniteAbelianGroup
    images: tuple[tuple[int, ...], ...]  # one element per generator

    def evaluate(self, word: Word) -> tuple[int, ...]:
        return _evaluate_row(self.target, word.exponent_sums(), self.images)


def _evaluate_row(target: FiniteAbelianGroup, row: tuple[int, ...],
                  images) -> tuple[int, ...]:
    """Image of an exponent row when generator k maps to ``images[k - 1]``,
    summed componentwise and reduced once; zero exponents are skipped."""
    vec = [0] * target.rank
    for exponent, image in zip(row, images):
        if exponent:
            for c, x in enumerate(image):
                vec[c] += exponent * x
    return tuple(v % d for v, d in zip(vec, target.invariant_factors))


def enumerate_finite_abelian_quotients(
        pres: GroupPresentation,
        targets: list[FiniteAbelianGroup]) -> list[Surjection]:
    """All surjective homomorphisms onto each target, in deterministic
    order.  Since the targets are abelian only exponent sums matter, so a
    candidate is a choice of image vector per generator that annihilates
    every relator; candidates that fail to generate are discarded."""
    out: list[Surjection] = []
    for target in targets:
        if target.order ** max(pres.generator_count, 1) > ORDER_BOUND:
            raise ValueError(
                f"quotient search space for {target.describe()} exceeds the bound")
        relator_rows = [rel.exponent_sums() for rel in pres.relators]
        zero = target.zero
        for assignment in iproduct(list(target.elements()),
                                   repeat=pres.generator_count):
            if any(_evaluate_row(target, row, assignment) != zero
                   for row in relator_rows):
                continue
            if not target.generates(assignment):
                continue
            out.append(Surjection(target, tuple(assignment)))
    return out


def format_presentation(pres: GroupPresentation) -> str:
    """Presentation text format: ``gens <n>`` then one relator per line."""
    lines = [f"gens {pres.generator_count}"]
    lines.extend(format_word(rel) for rel in pres.relators)
    return "\n".join(lines) + "\n"


def parse_presentation(text: str) -> GroupPresentation:
    """Read :func:`format_presentation` text; blank lines are skipped, and
    every fault is a :class:`FormatError` naming its line.  Lines are
    numbered by newline characters alone; the other line breaks that
    ``str.splitlines`` knows still end a relator but are not counted."""
    lines = [(n, ln) for n, raw in enumerate(text.split("\n"), 1)
             for ln in raw.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("presentation text must start with 'gens <n>'", 1)
    number, head = lines[0]
    parts = head.split()
    if len(parts) != 2 or parts[0] != "gens":
        raise FormatError("expected 'gens <n>'", number)
    try:
        gens = parse_integer(parts[1])
        if gens < 0:
            raise ValueError(gens)
    except ValueError:
        raise FormatError(f"bad generator count {parts[1]!r}", number) from None
    relators = []
    for number, line in lines[1:]:
        try:
            relators.append(parse_word(line, gens))
        except ValueError as exc:
            raise FormatError(str(exc), number) from None
    return GroupPresentation(gens, tuple(relators))
