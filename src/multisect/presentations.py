"""Finitely presented groups: simplification, exact homology, freeness
certification, and finite abelian quotient search.

Relators are conjugacy classes, so presentations cyclically reduce them on
construction.  Simplification is deliberately conservative: a generator is
eliminated only when it occurs exactly once in some relator, which is
always a valid Tietze move and needs no word-problem machinery.  The
payoff is a three-valued freeness check that never overclaims.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct

from .abelian import FiniteAbelianGroup, configured_bound
from .matrices import IntegerMatrix, smith_normal_form
from .words import (Word, _apply_images, canonical_cyclic, format_word,
                    parse_integer, parse_word)

DEFAULT_TIETZE_BUDGET = 10_000


@dataclass(frozen=True)
class GroupPresentation:
    generator_count: int
    relators: tuple[Word, ...] = ()
    display_names: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.generator_count < 0:
            raise ValueError("generator count must be non-negative")
        fixed = []
        for rel in self.relators:
            if rel.rank != self.generator_count:
                raise ValueError("relator rank does not match generator count")
            fixed.append(rel.cyclic_reduce())
        object.__setattr__(self, "relators", tuple(fixed))
        if self.display_names is not None:
            names = tuple(self.display_names)
            if len(names) != self.generator_count:
                raise ValueError("need one display name per generator")
            object.__setattr__(self, "display_names", names)

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


def _elimination_images(gens: int, gen: int, replacement: Word) -> tuple[Word, ...]:
    """Generator images that eliminate ``gen`` in favour of
    ``replacement`` and renumber the generators above it down by one."""
    images: list[Word | None] = [Word(gens - 1, (k if k < gen else k - 1,))
                                 if k != gen else None for k in range(1, gens + 1)]
    # the replacement avoids gen, so renumbering it never reads the hole
    images[gen - 1] = _apply_images(images, replacement, gens - 1)
    return tuple(images)


def _overlap_reduction(relators: list[Word]) -> tuple[int, Word] | None:
    """First relator that shrinks when multiplied by a rotation of
    another relator or its inverse (a conjugate, so the normal closure
    is unchanged).  Scan order is fixed, so the choice is deterministic.
    """
    for i, r in enumerate(relators):
        if r.is_identity():
            continue
        for j, other in enumerate(relators):
            if i == j or other.is_identity():
                continue
            for base in (other, other.inverse()):
                letters = base.letters
                for shift in range(len(letters)):
                    rotated = Word(r.rank, letters[shift:] + letters[:shift])
                    candidate = (r * rotated).cyclic_reduce()
                    if len(candidate) < len(r):
                        return i, candidate
    return None


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
    presentation reached.  The abelianization is asserted unchanged.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    start_invariants = abelianization(pres)

    gens = pres.generator_count
    relators = list(pres.relators)
    names = list(pres.display_names) if pres.display_names is not None else None
    survivors = list(range(1, gens + 1))
    images = [Word(gens, (k,)) for k in survivors]
    trace: list[str] = []
    steps = 0

    progress = True
    while progress and steps < budget:
        progress = False

        kept = []
        for rel in relators:
            if rel.is_identity() and steps < budget:
                steps += 1
                trace.append("drop empty relator")
                progress = True
            else:
                kept.append(rel)
        relators = kept

        seen: set[tuple[int, ...]] = set()
        deduped = []
        for rel in relators:
            key = canonical_cyclic(rel).letters
            if key in seen and steps < budget:
                steps += 1
                trace.append("drop duplicate relator")
                progress = True
            else:
                seen.add(key)
                deduped.append(rel)
        relators = deduped

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
            pos = next(i for i, lt in enumerate(rel.letters) if abs(lt) == g)
            sign = 1 if rel.letters[pos] > 0 else -1
            u = Word(gens, rel.letters[:pos])
            v = Word(gens, rel.letters[pos + 1:])
            replacement = u.inverse() * v.inverse() if sign > 0 else v * u
            new_gens = gens - 1
            substitution = _elimination_images(gens, g, replacement)
            relators = [_apply_images(substitution, r, new_gens).cyclic_reduce()
                        for i, r in enumerate(relators) if i != ridx]
            images = [_apply_images(substitution, w, new_gens) for w in images]
            label = names[g - 1] if names else f"g{survivors[g - 1]}"
            trace.append(f"eliminate generator {label}")
            survivors.pop(g - 1)
            if names:
                names.pop(g - 1)
            gens = new_gens
            progress = True
            continue

        shrink = _overlap_reduction(relators)
        if shrink is not None and steps < budget:
            steps += 1
            ridx, shorter = shrink
            relators[ridx] = shorter
            trace.append("shrink relator by a conjugate")
            progress = True

    simplified = GroupPresentation(gens, tuple(relators),
                                   tuple(names) if names is not None else None)
    if abelianization(simplified) != start_invariants:
        raise AssertionError("Tietze simplification changed the abelianization")
    return TietzeResult(simplified, tuple(trace), steps,
                        tuple(survivors), tuple(images))


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
    invariants = abelianization(pres)
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
    bound = configured_bound()
    for target in targets:
        if target.order ** max(pres.generator_count, 1) > bound:
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
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("gens "):
        raise ValueError("presentation text must start with 'gens <n>'")
    try:
        gens = parse_integer(lines[0].split()[1])
    except (IndexError, ValueError):
        raise ValueError("bad generator count line") from None
    relators = tuple(parse_word(ln, gens) for ln in lines[1:])
    return GroupPresentation(gens, relators)
