"""Finite abelian groups as tuples of residues.

A group is a product Z/d1 x ... x Z/dr with d1 | d2 | ... | dr, and its
elements are integer tuples reduced componentwise.  These are the targets
of the finite-quotient searches.  A group of any order can be built; the
cap ``ORDER_BOUND`` guards enumeration only: a subgroup built element by
element, the quotient search space and the orbit tuple space.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod
from typing import Iterable, Iterator

# largest group order, quotient search space or orbit tuple space enumerated
ORDER_BOUND = 10 ** 6

Element = tuple[int, ...]


def _divisibility_chain(values: Iterable[int], noun: str) -> tuple[int, ...]:
    """``values`` as ints d1 | d2 | ..., each above 1, or a ValueError
    that calls them ``noun``."""
    chain = tuple(map(int, values))
    if any(d <= 1 for d in chain):
        raise ValueError(f"{noun} must exceed 1")
    if any(y % x for x, y in zip(chain, chain[1:])):
        raise ValueError(f"{noun} must form a divisibility chain")
    return chain


@dataclass(frozen=True)
class FiniteAbelianGroup:
    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "invariant_factors",
                           _divisibility_chain(self.invariant_factors, "invariant factors"))

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    @property
    def zero(self) -> Element:
        return (0,) * self.rank

    def describe(self) -> str:
        return " x ".join(f"Z/{d}" for d in self.invariant_factors) or "trivial"

    def elements(self) -> Iterator[Element]:
        """All elements in lexicographic order."""
        return product(*(range(d) for d in self.invariant_factors))

    def reduce(self, vector: Iterable[int]) -> Element:
        vec = tuple(vector)
        if len(vec) != self.rank:
            raise ValueError("vector length does not match group rank")
        return tuple(x % d for x, d in zip(vec, self.invariant_factors))

    def add(self, x: Element, y: Element) -> Element:
        return tuple((a + b) % d for a, b, d in zip(x, y, self.invariant_factors))

    def neg(self, x: Element) -> Element:
        return tuple((-a) % d for a, d in zip(x, self.invariant_factors))

    def subgroup_generated(self, vectors: Iterable[Element]) -> frozenset[Element]:
        """H + <g> is the union of the cosets H + m g for m below the
        least m with m g in H, so the subgroup grows a coset at a time."""
        if self.order > ORDER_BOUND:
            raise ValueError(f"group order {self.order} exceeds {ORDER_BOUND}")
        seen = {self.zero}
        for g in (self.reduce(v) for v in vectors):
            subgroup = list(seen)
            shift = g
            while shift not in seen:
                seen.update(self.add(h, shift) for h in subgroup)
                shift = self.add(shift, g)
        return frozenset(seen)

    def generates(self, vectors: Iterable[Element]) -> bool:
        return len(self.subgroup_generated(vectors)) == self.order


def invariant_factor_chains(order: int) -> list[tuple[int, ...]]:
    """All invariant-factor decompositions of abelian groups of the given
    order, sorted; each chain satisfies d1 | d2 | ... and prod = order."""
    if order < 1:
        raise ValueError("order must be positive")
    chains = set()

    def rec(remaining: int, minimum: int, acc: tuple[int, ...]):
        if remaining == 1:
            if acc:
                chains.add(acc)
            return
        d = minimum
        while d <= remaining:
            if remaining % d == 0 and (not acc or d % acc[-1] == 0):
                rec(remaining // d, d, acc + (d,))
            d += 1

    if order == 1:
        return []
    rec(order, 2, ())
    return sorted(chains)


def enumerate_abelian_groups(max_order: int, max_rank: int | None = None) -> list[FiniteAbelianGroup]:
    """All finite abelian groups of order 2..max_order in a deterministic
    order (by order, then by invariant factors)."""
    out = []
    for order in range(2, max_order + 1):
        for chain in invariant_factor_chains(order):
            if max_rank is not None and len(chain) > max_rank:
                continue
            out.append(FiniteAbelianGroup(chain))
    return out
