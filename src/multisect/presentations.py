"""Finitely presented groups: simplification, exact homology, freeness
certification, and finite abelian quotient search.

Relators are conjugacy classes, so presentations cyclically reduce them on
construction.  Simplification is deliberately conservative: a generator is
eliminated only when it occurs exactly once in some relator, which is
always a valid Tietze move and needs no word-problem machinery.  The
payoff is a three-valued freeness check that never overclaims.

Simplification checks every move on exponent sums read off the letters it
touches, at the cost of their length, instead of comparing Smith normal
forms at both ends (see :func:`tietze_simplify`), so the input's abelian
invariants are those of the small simplified presentation, and those of a
free one need no computation at all.  The final renumbering is checked too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
from itertools import product as iproduct

from .abelian import ORDER_BOUND, FiniteAbelianGroup, _divisibility_chain
from .matrices import smith_normal_form
from .words import (FormatError, Word, _LineReader, _canonical_letters,
                    _cyclic_core, _letters_inverse,
                    _letters_product, _signed_table, _substitute, format_word)

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


@dataclass(frozen=True)
class AbelianInvariants:
    """Isomorphism type of a finitely generated abelian group:
    Z^free_rank plus cyclic factors in divisibility order."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("free rank must be non-negative")
        object.__setattr__(self, "torsion",
                           _divisibility_chain(self.torsion, "torsion coefficients"))

    def describe(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"

    @property
    def minimal_generators(self) -> int:
        """Rank of the group: a lower bound for any generating set."""
        return self.free_rank + len(self.torsion)


def abelianization(pres: GroupPresentation) -> AbelianInvariants:
    """Invariants of the quotient by the commutator subgroup, from the
    Smith normal form of the relator exponent matrix's distinct nonzero
    rows.  Subtracting a row from its repeat is a unimodular row
    operation and deleting the zero row it leaves changes no minor, so
    neither changes the rank or the invariant factors."""
    rows = dict.fromkeys(row for row in (rel.exponent_sums() for rel in pres.relators)
                         if any(row))
    snf = smith_normal_form(list(rows), pres.generator_count)
    return AbelianInvariants(pres.generator_count - snf.rank, snf.invariant_factors)


def same_relators(p: GroupPresentation, q: GroupPresentation) -> bool:
    """Whether ``p`` and ``q`` have the same generator count and the same
    set of non-trivial relators, each up to rotation and inversion.  A
    rotation is a conjugate and an inverse has the same normal closure,
    so both present one group."""
    def classes(pres: GroupPresentation) -> set[tuple[int, ...]]:
        return {_canonical_letters(r.letters) for r in pres.relators} - {()}

    return p.generator_count == q.generator_count and classes(p) == classes(q)


@dataclass(frozen=True)
class TietzeResult:
    presentation: GroupPresentation
    trace: tuple[str, ...]
    surviving_generators: tuple[int, ...]
    """Original 1-based ids of the generators that survived, in order."""
    generator_images: tuple[Word, ...]
    """For each original generator, its expression in the simplified
    presentation's generators (the isomorphism witness)."""

    @property
    def steps_used(self) -> int:
        """The number of moves made: ``trace`` has one entry per move."""
        return len(self.trace)

    @cached_property
    def invariants(self) -> AbelianInvariants:
        """Abelian invariants of the input.  The per-move exponent-sum checks
        prove them equal to those of ``presentation``: Z^gens when no relator is
        left, else one Smith normal form of the simplified matrix."""
        if not self.presentation.relators:
            return AbelianInvariants(self.presentation.generator_count)
        return abelianization(self.presentation)


def _solve_for(g: int, rel: tuple[int, ...]) -> tuple[int, ...]:
    """The word that generator ``g`` equals modulo a cyclically reduced
    relator holding it once: rel = u g^+-1 v gives g = (v u)^-1 or v u,
    and v u is part of a rotation of rel, so it is reduced."""
    pos = next(i for i, lt in enumerate(rel) if abs(lt) == g)
    rest = rel[pos + 1:] + rel[:pos]
    return _letters_inverse(rest) if rel[pos] > 0 else rest


class _RelatorIndex:
    """Per-generator indexes over the relators of one simplification, so
    that a move visits only what it changes (the bookkeeping of Havas,
    Kenne, Richardson and Robertson's Tietze program).  ``relators`` is
    the simplification's list, None where a relator was dropped, and
    :func:`_reindex` and :meth:`mark_rewritten` update the indexes for
    each relator a move rewrites or drops.

    - ``holds[g]``: the relators holding generator g, which are the ones
      an elimination of g rewrites and the only shrink partners of a
      relator that begins or ends with g;
    - ``once[g]``: the relators holding g exactly once, with ``peaks`` a
      heap of -g over them, so the highest eliminable generator is at
      hand;
    - ``due``: a heap of the relators to scan for a shrink, at first all
      of them, then those rewritten or given a new partner since their
      last scan found none (``due_set`` holds the same ids); no other
      relator shrinks.
    """

    def __init__(self, relators: list[tuple[int, ...] | None]):
        self.relators = relators
        self.holds: dict[int, set[int]] = {}
        self.once: dict[int, set[int]] = {}
        self.peaks: list[int] = []
        self.due = [rid for rid, rel in enumerate(relators) if rel]  # sorted, so a heap
        self.due_set = set(self.due)
        for rid in self.due:
            _reindex(self, rid, (), relators[rid])

    def mark_rewritten(self, rid: int) -> None:
        """Make every relator whose first or last letter is a generator
        that the rewritten relator ``rid`` holds due for a shrink scan,
        since it may now shrink by this one; ``rid`` is among them."""
        for g in {abs(lt) for lt in self.relators[rid]}:
            for other in self.holds[g]:
                rel = self.relators[other]
                if (abs(rel[0]) == g or abs(rel[-1]) == g) and other not in self.due_set:
                    self.due_set.add(other)
                    heappush(self.due, other)

    def candidate(self) -> tuple[int, int] | None:
        """The highest generator that some relator holds once, and the
        lowest-index relator that does."""
        while self.peaks:
            holders = self.once.get(-self.peaks[0])
            if holders:
                return -self.peaks[0], min(holders)
            heappop(self.peaks)
        return None


def _reindex(index: _RelatorIndex, rid: int, old: tuple[int, ...],
             new: tuple[int, ...]) -> None:
    """Move relator ``rid`` from the ``holds`` and ``once`` entries of its
    letters ``old`` to those of ``new``."""
    for lt in old:
        index.holds[abs(lt)].discard(rid)
        index.once[abs(lt)].discard(rid)
    counts: dict[int, int] = {}
    for lt in new:
        counts[abs(lt)] = counts.get(abs(lt), 0) + 1
    for g, n in counts.items():
        index.holds.setdefault(g, set()).add(rid)
        once = index.once.setdefault(g, set())
        if n == 1:
            if not once:
                heappush(index.peaks, -g)
            once.add(rid)


def _overlap_reduction(index: _RelatorIndex
                       ) -> tuple[int, int, int, tuple[int, ...], tuple[int, ...]] | None:
    """First relator that shrinks when multiplied by a rotation of
    another relator or its inverse (a conjugate, so the normal closure
    is unchanged), as ``(index, other index, sign, rotation, shorter
    relator)``.  Scan order is fixed (relator, other relator, sign,
    rotation), so the choice is deterministic.  Relators are cyclically
    reduced, so every rotation is freely reduced and the product cancels
    only where the two meet: the other relator must hold the generator
    of the first or the last letter.  A relator that is not due is known
    not to shrink, so the scan starts at the lowest due one."""
    relators, holds = index.relators, index.holds
    while index.due:
        i = index.due[0]
        r = relators[i]
        if r:
            inv_first, inv_last = -r[0], -r[-1]
            for j in sorted(holds[abs(inv_first)] | holds[abs(inv_last)]):
                if j == i:
                    continue
                other = relators[j]
                for sign, s in ((1, other), (-1, _letters_inverse(other))):
                    for shift in range(len(s)):
                        # without cancellation at the junction or at the ends
                        # the product keeps every letter and cannot be shorter
                        if s[shift] != inv_last and s[shift - 1] != inv_first:
                            continue
                        rotation = s[shift:] + s[:shift]
                        shorter = _cyclic_core(_letters_product(r, rotation))
                        if len(shorter) < len(r):
                            return i, j, sign, rotation, shorter
        heappop(index.due)
        index.due_set.discard(i)
    return None


def _balanced(letters: tuple[int, ...]) -> bool:
    """Whether every generator's exponent sum in ``letters`` is 0."""
    sums: dict[int, int] = {}
    for lt in letters:
        sums[abs(lt)] = sums.get(abs(lt), 0) + (1 if lt > 0 else -1)
    return not any(sums.values())


def _renumbered(letters: tuple[int, ...], number: dict[int, int], what: str) -> tuple[int, ...]:
    """``letters`` renamed by ``number``, which omits eliminated generators."""
    out = tuple(number.get(lt, 0) if lt > 0 else -number.get(-lt, 0) for lt in letters)
    if 0 in out:
        raise AssertionError(f"renumber generators: {what} {letters} holds an eliminated generator")
    return out


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
    reduction in a fixed scan.  Drops happen in relator order, so a
    budget cut always lands on the same move, and exhausting the budget
    returns the best presentation reached.  Relators and images are
    letter tuples, and generators keep their input ids until the
    survivors are renumbered 1..k once at the end, which is monotone and
    so changes no choice.

    Relators keep their input positions (None once dropped), and each
    move visits only the relators it changes: the first round checks
    every relator for being empty or a duplicate, later rounds only the
    ones rewritten since, against a map from dedup key to relator.  A
    :class:`_RelatorIndex`, built after the first round, finds the
    candidate, the relators holding it and the shrink partners.  An
    eliminated generator's image is its solution in the generators alive
    when it went; the images are resolved once, at the end, the latest
    eliminated first.

    Each move is checked by a defect word with zero exponent sums: d t^-1
    or d t for a duplicate d of t; r' (r s^+-1)^-1 for r shrunk to r' by s,
    which must also be the cyclically reduced ``Word`` product; and, for
    g eliminated through ``rel`` with a +-1 pivot (g's exponent there),
    new old^-1 rel^f for each relator rewritten, f being g's exponent in
    ``old`` times the pivot.  An empty relator has zero sums as input or
    by the check of the move that emptied it.  Each final relator, mapped
    back through the survivors, must give its letters before renumbering,
    so the result's ``invariants`` are read off the simplified presentation.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")

    gens = pres.generator_count
    relators: list[tuple[int, ...] | None] = [rel.letters for rel in pres.relators]
    images = list(_signed_table([(k,) for k in range(1, gens + 1)]))
    eliminated: list[int] = []
    trace: list[str] = []  # one entry per move, so also the step count
    canonical: dict[tuple[int, ...], tuple[int, ...]] = {}  # dedup key of each tuple seen
    owner: dict[tuple[int, ...], int] = {}  # dedup key -> the relator that has it
    changed = list(range(len(relators)))  # to check for being empty or a duplicate
    index: _RelatorIndex | None = None

    def replace(rid: int, new: tuple[int, ...] | None) -> None:
        """Rewrite relator ``rid`` to ``new``, or drop it for None."""
        old = relators[rid]
        if owner.get(canonical.get(old)) == rid:
            del owner[canonical[old]]
        relators[rid] = new
        if index is not None:
            _reindex(index, rid, old, new or ())
            if new:
                index.mark_rewritten(rid)
        if new is not None:
            changed.append(rid)

    progress = True
    while progress and len(trace) < budget:
        progress = False
        recheck = sorted({rid for rid in changed if relators[rid] is not None})
        changed = []

        for rid in recheck:
            if not relators[rid] and len(trace) < budget:
                trace.append("drop empty relator")
                progress = True
                replace(rid, None)

        # the lowest relator with a key keeps it; the others go in order
        duplicates = []
        for rid in recheck:
            rel = relators[rid]
            if rel is None:
                continue
            key = canonical.get(rel)
            if key is None:
                key = canonical[rel] = _canonical_letters(rel)
            first = owner.setdefault(key, rid)
            if first < rid:
                duplicates.append((rid, first))
            elif first > rid:
                owner[key] = rid
                duplicates.append((first, rid))
        for rid, twin in sorted(duplicates):
            if len(trace) >= budget:
                break
            rel, twin_rel = relators[rid], relators[twin]
            if not (rel == twin_rel or _balanced(rel + _letters_inverse(twin_rel))
                    or _balanced(rel + twin_rel)):
                raise AssertionError(f"drop duplicate relator: {rel} is not +- {twin_rel} in sums")
            trace.append("drop duplicate relator")
            progress = True
            replace(rid, None)
        if len(trace) >= budget:
            break

        if index is None:
            index = _RelatorIndex(relators)
        candidate = index.candidate()  # (generator, relator index)
        if candidate is not None:
            g, ridx = candidate
            rel = relators[ridx]
            replace(ridx, None)
            pivot = rel.count(g) - rel.count(-g)
            if pivot not in (1, -1):
                raise AssertionError(f"eliminate generator: pivot entry {pivot} is not +-1")
            # a surviving k has the image (k,) and no relator holds an
            # eliminated one, so the images substitute for g alone
            images[g] = _solve_for(g, rel)
            images[-g] = _letters_inverse(images[g])
            for i in sorted(index.holds[g]):
                old = relators[i]
                factor = (old.count(g) - old.count(-g)) * pivot
                new = _cyclic_core(_substitute(images, old))
                if not _balanced(new + _letters_inverse(old)
                                 + (rel if factor > 0 else _letters_inverse(rel)) * abs(factor)):
                    raise AssertionError(f"eliminate generator: relator {new} does not have "
                                         f"the sums of {old} less {factor} times {rel}")
                replace(i, new)
            eliminated.append(g)
            trace.append(f"eliminate generator g{g}")
            progress = True
            continue

        shrink = _overlap_reduction(index)
        if shrink is not None:
            ridx, other, sign, rotation, shorter = shrink
            r, s = relators[ridx], relators[other]
            if not _balanced(shorter + _letters_inverse(r)
                             + (s if sign < 0 else _letters_inverse(s))):
                raise AssertionError(f"shrink relator: {shorter} is not {r} {s}^{sign} in sums")
            product = Word(gens, r) * Word(gens, rotation)
            if product.cyclic_reduce().letters != shorter:
                raise AssertionError(f"shrink relator: {shorter} is not the "
                                     "cyclically reduced product")
            replace(ridx, shorter)
            trace.append("shrink relator by a conjugate")
            progress = True

    # an image holds only generators alive when its generator went, so
    # resolving the latest eliminated first leaves each in the survivors
    for g in reversed(eliminated):
        images[g] = _substitute(images, images[g])
        images[-g] = _letters_inverse(images[g])
    images = images[1:gens + 1]
    # an eliminated generator's image avoids it
    survivors = tuple(k for k, w in enumerate(images, 1) if w == (k,))
    number = {old: new for new, old in enumerate(survivors, 1)}
    kept = [(_renumbered(r, number, "relator"), r) for r in relators if r is not None]
    for new, r in kept:
        if tuple(survivors[lt - 1] if lt > 0 else -survivors[-lt - 1] for lt in new) != r:
            raise AssertionError(f"renumber generators: relator {new} does not map back to {r}")
    rank = len(survivors)
    return TietzeResult(GroupPresentation(rank, tuple(Word(rank, new) for new, _ in kept)),
                        tuple(trace), survivors,
                        tuple(Word(rank, _renumbered(w, number, "image")) for w in images))


@dataclass(frozen=True)
class SectorVerdict:
    """Three-valued answer to "is this group free of the stated rank".

    ``verified`` is issued only for a presentation that simplified to a
    free presentation on the stated number of generators; failure to
    simplify is never reported as a refutation.
    """

    status: str  # "verified" | "refuted_by_homology" | "unknown"
    rank: int | None

    @classmethod
    def verified(cls, rank: int, invariants: AbelianInvariants) -> "SectorVerdict":
        if invariants != AbelianInvariants(rank, ()):
            raise ValueError(
                f"verified({rank}) contradicts abelian invariants {invariants.describe()}")
        return cls("verified", rank)

    @classmethod
    def of(cls, result: TietzeResult, rank: int) -> "SectorVerdict":
        """The verdict a simplification supports: verified when it ends
        free on ``rank`` generators, refuted when the input's abelian
        invariants are not Z^rank, else unknown."""
        if not result.presentation.relators and result.presentation.generator_count == rank:
            return cls.verified(rank, result.invariants)
        if result.invariants != AbelianInvariants(rank, ()):
            return cls("refuted_by_homology", rank)
        return cls("unknown", rank)

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
    return SectorVerdict.of(tietze_simplify(pres, budget), rank)


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
    """Read :func:`format_presentation` text, laid out the one way it is
    written: every fault, a relator that is not freely and cyclically
    reduced among them, is a :class:`FormatError` naming its line, so
    that text that parses formats back to itself."""
    reader = _LineReader(text)
    (gens,) = reader.integers("gens", "<n>", 1)
    if gens < 0:
        raise FormatError("generator count must be non-negative", reader.pos)
    relators = []
    while reader.peek() is not None:  # a block a line, so the first fault is named
        relators += reader.words("", 1, gens)
        if relators[-1] != relators[-1].cyclic_reduce():
            raise FormatError("relator is not cyclically reduced", reader.pos)
    return GroupPresentation(gens, tuple(relators))
