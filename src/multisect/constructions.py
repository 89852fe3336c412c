"""Diagram-level constructions: product bisections from Heegaard
diagrams, restriction of trisections, doubling, parallel sector
insertion, gluing along boundary handlebodies, capping, and merging.

The central device is the product bisection of a genus-g Heegaard
diagram h.  Its central surface is the genus-2g surface of h # -h, with
three systems: alpha is the standard a-type basis, beta is the cocores
a_i a_{g+i}^-1 and b_i b_{g+i}^-1, and gamma is the beta system of
h # -h, so the boundary pair (gamma, alpha) is the double of h's manifold.
"""

from __future__ import annotations

from dataclasses import replace
from functools import reduce
from math import gcd

from .diagrams import (CutSystem, DiagramError, GeometricHeegaardDiagram,
                       MultisectionDiagram, SurfaceModel, adjacent_pairs,
                       connected_sum, mirror, pi1_of_diagram, read_system,
                       standard_alpha_system)
from .presentations import GroupPresentation, abelianization, tietze_simplify
from .words import (Word, automorphism, compose, format_word,
                    identity_automorphism)


class MergeRefusedError(DiagramError):
    def __init__(self, message: str, families):
        self.families = families
        super().__init__(message)


class GlueMismatchError(DiagramError):
    def __init__(self, message: str, left, right):
        self.left = left
        self.right = right
        super().__init__(message)


def lens_diagram(p: int, q: int) -> GeometricHeegaardDiagram:
    """Genus-1 Heegaard diagram of the lens space with the given coprime
    parameters: the curve winds p times along b and q times along a,
    interleaved by the subtractive Euclidean pattern, and the
    standardizer is the matching chain of elementary substitutions."""
    if p < 1 or q < 1 or gcd(p, q) != 1:
        raise ValueError("parameters must be coprime positive integers")
    move_a = automorphism(2, {1: (2, 1)}, {1: (-2, 1)})   # a -> b a
    move_b = automorphism(2, {2: (2, 1)}, {2: (2, -1)})   # b -> b a
    steps = []
    bb, aa = p, q
    while (bb, aa) != (1, 0):
        if bb > aa:
            steps.append(move_a)
            bb -= aa
        else:
            steps.append(move_b)
            aa -= bb
    builder = reduce(compose, steps, identity_automorphism(2))
    curve = builder.images[1]  # the image of b
    sums = curve.exponent_sums()
    if sums != (q, p):
        raise AssertionError("lens curve has wrong winding numbers")
    beta = CutSystem(SurfaceModel(1), (curve.cyclic_reduce(),),
                     builder.inverse(), "beta")
    return GeometricHeegaardDiagram(1, beta, f"lens({p},{q})", (p, q))


def sphere_bundle_sum_diagram(g: int) -> GeometricHeegaardDiagram:
    """Heegaard diagram of the connected sum of g copies of S1 x S2:
    every curve is parallel to the matching a-type letter."""
    beta = standard_alpha_system(SurfaceModel(g), "beta")
    return GeometricHeegaardDiagram(g, beta, f"#_{g}(S1xS2)", None)


def _cocore_pairs(surface: SurfaceModel) -> list[tuple[int, int]]:
    """Letter pairs (a_i, a_{g+i}), then (b_i, b_{g+i}), of the genus-2g
    surface; the pair (x, y) gives the doubled cocore x y^-1."""
    if surface.genus % 2 != 0:
        raise DiagramError("central genus is odd; not a doubled surface")
    g = surface.genus // 2
    return [(letter(i), letter(g + i))
            for letter in (surface.a_letter, surface.b_letter)
            for i in range(1, g + 1)]


def _cocore_curves(surface: SurfaceModel) -> tuple[Word, ...]:
    return tuple(Word(surface.rank, (x, -y)) for x, y in _cocore_pairs(surface))


def _standard_readings(systems: tuple[CutSystem, ...], closed: bool):
    """Readings cached on every constructed diagram: all sector pairs,
    the boundary pair, and every pair (1, j) feeding pi1."""
    s = len(systems)
    pairs = set(adjacent_pairs(s, True)) | {(1, j) for j in range(2, s + 1)}
    return tuple(((i, j), read_system(systems[i - 1], systems[j - 1]))
                 for i, j in sorted(pairs))


def bisection_from_heegaard(h: GeometricHeegaardDiagram) -> MultisectionDiagram:
    """The bisection of (punctured 3-manifold) x I, as a bounded diagram
    with three systems on the genus-2g surface of h # -h.

    System 1 (alpha) is the standard a-type basis; system 2 (beta) is the
    cocores a_i a_{g+i}^-1 and b_i b_{g+i}^-1; system 3 (gamma) is the
    beta system of h # -h, so the boundary pair (3, 1) is the Heegaard
    diagram of the double of the input manifold.  Claimed sector ranks
    are (g, g).
    """
    g = h.genus
    surface = SurfaceModel(2 * g)
    alpha = standard_alpha_system(surface)
    pairs = _cocore_pairs(surface)
    cocore_std = automorphism(surface.rank, {x: (x, y) for x, y in pairs},
                              {x: (x, -y) for x, y in pairs})
    beta = CutSystem(surface, _cocore_curves(surface), cocore_std, "beta")
    gamma = replace(connected_sum(h, mirror(h)).beta, label="gamma")

    systems = (alpha, beta, gamma)
    readings = _standard_readings(systems, closed=False)
    diagram = MultisectionDiagram(surface, systems, False, (g, g), readings)

    pair12 = diagram.reading_map[(1, 2)]
    for i in range(g):
        if not pair12[i].is_identity():
            raise AssertionError("doubled a-cocore should read trivially")
    for i in range(g):
        if pair12[g + i].letters != (i + 1, -(g + i + 1)):
            raise AssertionError("doubled b-cocore reading is not x y^-1")
    pair13 = diagram.reading_map[(1, 3)]
    base = h.relators()
    for j in range(g):
        if pair13[j].letters != base[j].letters:
            raise AssertionError("side-0 boundary reading differs from the input")
        mirrored = base[j].letter_inverse().shift(g, 2 * g)
        if pair13[g + j].letters != mirrored.letters:
            raise AssertionError("side-1 boundary reading is not the mirror")
    return diagram


def bisection_from_trisection(t: MultisectionDiagram,
                              drop: int) -> MultisectionDiagram:
    """Forget one sector of a closed three-system diagram: rotate so the
    dropped sector's pair becomes the boundary pair (3, 1)."""
    if not t.closed or len(t.systems) != 3:
        raise DiagramError("input must be a closed diagram with three systems")
    if drop not in (1, 2, 3):
        raise DiagramError("sector index must be 1, 2, or 3")
    order = [((i - drop - 1) % 3) for i in (1, 2, 3)]  # new position - 1 per old
    new_systems = [None, None, None]
    for old, new_idx in zip((1, 2, 3), order):
        new_systems[new_idx] = t.systems[old - 1]
    types = (t.claimed_types[drop % 3], t.claimed_types[(drop + 1) % 3])
    position = {old: new_idx + 1 for old, new_idx in zip((1, 2, 3), order)}
    readings = tuple(((position[i], position[j]), words)
                     for (i, j), words in t.readings)
    return MultisectionDiagram(t.surface, tuple(new_systems), False, types,
                               readings)


def _is_doubled_cocores(system: CutSystem, surface: SurfaceModel) -> bool:
    return system.curves == _cocore_curves(surface)


def _product_bisection_genus(d: MultisectionDiagram) -> int:
    """Input genus g of a diagram shaped like bisection_from_heegaard
    output (possibly doubled/extended); raises when the shape is absent."""
    cocores = _cocore_curves(d.surface)  # refuses an odd genus first
    if d.systems[0].curves != standard_alpha_system(d.surface).curves:
        raise DiagramError("system 1 is not the doubled a-type basis")
    if d.systems[1].curves != cocores:
        raise DiagramError("system 2 is not the doubled cocore system")
    return d.surface.genus // 2


def _check_invariants(before: MultisectionDiagram, after: MultisectionDiagram,
                      step: str) -> None:
    """Self-check of a construction that changes the base system: the
    abelian invariants of pi1 must not change."""
    if abelianization(pi1_of_diagram(after)) != abelianization(pi1_of_diagram(before)):
        raise AssertionError(f"{step} changed the group invariants")


def _check_same_relators(before: MultisectionDiagram, after: MultisectionDiagram,
                         step: str) -> None:
    """Self-check of a construction that keeps system 1 and only adds
    relabelled copies of existing systems: the nontrivial pi1 relators
    form the same set before and after.  Equal relator sets present the
    same group, which is stronger than equal abelian invariants and
    needs no Smith normal form."""
    def relator_set(d: MultisectionDiagram) -> set[Word]:
        return {r for r in pi1_of_diagram(d).relators if not r.is_identity()}

    if relator_set(after) != relator_set(before):
        raise AssertionError(f"{step} changed the pi1 relators")


def double_bisection(b: MultisectionDiagram) -> MultisectionDiagram:
    """Close a product bisection by doubling: the fourth system is a
    parallel copy of the cocore system, so the double of the underlying
    4-manifold acquires a four-sector diagram with the same group."""
    if b.closed or len(b.systems) != 3:
        raise DiagramError("input must be a bounded three-system diagram")
    g = _product_bisection_genus(b)
    systems = b.systems + (replace(b.systems[1], label="delta"),)
    readings = _standard_readings(systems, closed=True)
    diagram = MultisectionDiagram(b.surface, systems, True, (g, g, g, g), readings)
    if diagram.reading_map[(1, 4)] != diagram.reading_map[(1, 2)]:
        raise AssertionError("parallel copy must read identically to its source")
    _check_same_relators(b, diagram, "doubling")
    return diagram


def insert_parallel_sectors(d: MultisectionDiagram, position: int,
                            count: int) -> MultisectionDiagram:
    """Insert parallel copies of a product-compatible system.  Each new
    interface pair reads empty words, so every inserted sector has
    handlebody rank equal to the full central genus; the group of the
    diagram does not change."""
    s = len(d.systems)
    if not 1 <= position <= (s if d.closed else s - 1):
        raise DiagramError("position does not index an interior system")
    if count < 0:
        raise DiagramError("count must be non-negative")
    if count == 0:
        return d
    base = d.systems[position - 1]
    if not _is_doubled_cocores(base, d.surface):
        raise DiagramError(
            f"system {position} is not product-compatible (doubled cocores)")

    g2 = d.surface.genus
    copies = tuple(replace(base, label=f"{base.label}_ins{k + 1}")
                   for k in range(count))
    systems = d.systems[:position] + copies + d.systems[position:]
    old_k = d.claimed_types[position - 1]
    types = d.claimed_types[:position - 1] + (g2,) * count + (old_k,) + \
        d.claimed_types[position:]
    readings = _standard_readings(systems, d.closed)
    out = MultisectionDiagram(d.surface, systems, d.closed, types, readings)
    _check_same_relators(d, out, "sector insertion")
    return out


def glue_bisections(base: GeometricHeegaardDiagram,
                    copies: int) -> MultisectionDiagram:
    """Bounded diagram of the chain of ``copies`` product bisections of
    ``base``, glued end to end along alternating boundary handlebodies,
    starting with the a-type side.

    Consecutive copies share their a-type interface, then their mirror
    interface, alternating; the shared system appears once.  The result
    has 2 * copies sectors of rank g on the same genus-2g surface.
    """
    if copies < 1:
        raise ValueError("need at least one copy")
    b = bisection_from_heegaard(base)
    g = base.genus
    alpha, beta, gamma = b.systems

    systems = [replace(gamma, label="gamma_1"), replace(beta, label="beta_1"),
               replace(alpha, label="alpha_1")]
    gamma_count, alpha_count = 1, 1
    for i in range(2, copies + 1):
        systems.append(replace(beta, label=f"beta_{i}"))
        if i % 2 == 0:
            gamma_count += 1
            systems.append(replace(gamma, label=f"gamma_{gamma_count}"))
        else:
            alpha_count += 1
            systems.append(replace(alpha, label=f"alpha_{alpha_count}"))
    systems = tuple(systems)
    types = (g,) * (2 * copies)
    readings = _standard_readings(systems, closed=False)
    out = MultisectionDiagram(b.surface, systems, False, types, readings)
    # system 1 is gamma here, not alpha, so the pi1 relators are read
    # against another base and only the abelian invariants can compare
    _check_invariants(b, out, "gluing")
    return out


def auto_cap(base: GeometricHeegaardDiagram, copies: int) -> MultisectionDiagram:
    """The capping bisection for a glued chain of ``copies`` bisections of
    ``base``: another copy for an odd chain, the trivial-bundle bisection
    for an even one."""
    if copies % 2 == 1:
        return bisection_from_heegaard(base)
    return bisection_from_heegaard(sphere_bundle_sum_diagram(base.genus))


def cap_off(d1: MultisectionDiagram, d2: MultisectionDiagram) -> MultisectionDiagram:
    """Close a bounded diagram with a bounded three-system cap whose
    boundary matches; the cap's outer systems are identified with the
    boundary systems of the chain by label order, and its middle system
    is spliced in."""
    if d1.closed or d2.closed:
        raise DiagramError("both diagrams must be bounded")
    if len(d2.systems) != 3:
        raise DiagramError("the cap must have exactly three systems")
    if d1.surface != d2.surface:
        raise DiagramError("central surfaces differ")
    left = d1.boundary_invariants
    right = d2.boundary_invariants
    if left != right:
        raise GlueMismatchError(
            f"boundary mismatch: {left.describe()} vs {right.describe()}",
            left, right)
    cap_mid = d2.systems[1]
    labels = {sys.label for sys in d1.systems}
    label = cap_mid.label if cap_mid.label not in labels else "beta_cap"
    systems = d1.systems + (replace(cap_mid, label=label),)
    types = d1.claimed_types + (d2.claimed_types[1], d2.claimed_types[0])
    readings = _standard_readings(systems, closed=True)
    out = MultisectionDiagram(d1.surface, systems, True, types, readings)
    # the spliced system is the cap's, not a copy of one of d1's, so it
    # adds relators of its own; compare the abelian invariants
    _check_invariants(d1, out, "capping")
    return out


def merge_adjacent_sectors(d: MultisectionDiagram, interface: int) -> MultisectionDiagram:
    """Remove an interface system, merging its two neighbouring sectors.

    The merge is certified, never silent: the removed system's curves
    must read as empty words or single dual letters against at least one
    neighbour (the parallel-curve condition), and the merged pair must
    simplify to a free presentation, whose rank becomes the merged
    sector's type.

    The group of the diagram is preserved when the removed system is
    parallel to a neighbour (empty readings).  In the single-letter case
    the merged interface pair is a doubled handlebody, the merged rank is
    the full central genus, and the group of the diagram can change;
    compare invariants before and after when that matters.
    """
    s = len(d.systems)
    if d.closed:
        if not 1 <= interface <= s:
            raise DiagramError("interface index out of range")
        prev = interface - 1 if interface > 1 else s
        nxt = interface + 1 if interface < s else 1
    else:
        if not 2 <= interface <= s - 1:
            raise DiagramError("only interior systems of a bounded diagram merge")
        prev, nxt = interface - 1, interface + 1

    families = {side: read_system(d.systems[side - 1], d.systems[interface - 1])
                for side in (prev, nxt)}
    if not any(all(len(w) <= 1 for w in fam) for fam in families.values()):
        shown = {side: [format_word(w) for w in fam]
                 for side, fam in families.items()}
        raise MergeRefusedError(
            f"interface {interface} is not parallel into either neighbour: {shown}",
            families)

    merged_pres = GroupPresentation(d.surface.genus,
                                    read_system(d.systems[prev - 1], d.systems[nxt - 1]))
    simplified = tietze_simplify(merged_pres).presentation
    if simplified.relators:
        raise MergeRefusedError(
            "merged sector does not certify as a handlebody", families)
    merged_k = simplified.generator_count

    keep = [i for i in range(1, s + 1) if i != interface]
    systems = tuple(d.systems[i - 1] for i in keep)

    # a surviving sector keeps its type; the merged one gets merged_k
    old_types = dict(zip(d.sector_pairs(), d.claimed_types))
    new_types = tuple(old_types.get((keep[i - 1], keep[j - 1]), merged_k)
                      for i, j in adjacent_pairs(len(keep), d.closed))
    readings = _standard_readings(systems, d.closed)
    return MultisectionDiagram(d.surface, systems, d.closed, new_types, readings)


def genus_bound_report(d: MultisectionDiagram) -> dict[str, object]:
    """Homology lower bound for the genus of any diagram of the same
    4-manifold with the same boundary: the boundary's first homology
    needs at least as many generators as the central genus provides.
    This is a bound, not a Heegaard-genus computation."""
    inv = d.boundary_invariants
    bound = inv.minimal_generators
    return {
        "boundary_h1_rank": bound,
        "central_genus": d.surface.genus,
        "minimal_genus_certified": bound == d.surface.genus,
    }
