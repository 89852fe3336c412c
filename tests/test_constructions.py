import functools
import random
import re
from dataclasses import replace
from math import gcd

import pytest

import multisect.constructions
import multisect.diagrams
import multisect.presentations
from multisect.constructions import (GlueMismatchError, MergeRefusedError,
                                     auto_cap, bisection_from_heegaard,
                                     bisection_from_trisection, cap_off,
                                     double_bisection, glue_bisections,
                                     insert_parallel_sectors, lens_diagram,
                                     merge_adjacent_sectors, sphere_bundle_sum_diagram)
from multisect.diagrams import (CutSystem, DiagramError,
                                GeometricHeegaardDiagram, MultisectionDiagram,
                                SurfaceModel, ValidationReport, adjacent_pairs,
                                connected_sum, express_against, format_diagram,
                                format_heegaard, mirror, parse_diagram, pi1_of_diagram,
                                presentation_of_pair, read_system, readable_sides,
                                settle_pair, stabilize, standard_alpha_system,
                                validate)
from multisect.nielsen import flip_check, spine_tuple
from multisect.presentations import DEFAULT_TIETZE_BUDGET, AbelianInvariants, \
    GroupPresentation, SectorVerdict, abelianization, tietze_simplify, \
    verify_free_of_rank
from multisect.words import (FreeAutomorphism, Word, apply, automorphism,
                             block_automorphism, compose, flip_letters,
                             identity_automorphism, invert_all)


def nsum(h, n):
    out = h
    for _ in range(n - 1):
        out = connected_sum(out, h)
    return out


def pi1_invariants(d):
    return abelianization(pi1_of_diagram(d))


def bare(d, k):
    """``d`` with system k's standardizer removed, as a user might write it."""
    systems = list(d.systems)
    systems[k - 1] = replace(systems[k - 1], standardizer=None)
    return replace(d, systems=tuple(systems))


def untracked(d, k):
    """``d`` with the ``inverse`` block of system k's standardizer removed."""
    systems = list(d.systems)
    std = systems[k - 1].standardizer
    systems[k - 1] = replace(systems[k - 1], standardizer=replace(std, inverse_images=None))
    return replace(d, systems=tuple(systems))


# ---------------------------------------------------------------------------
# lens diagrams and sphere bundles


def test_lens_21():
    h = lens_diagram(2, 1)
    assert [c.letters for c in h.beta.curves] == [(2, 2, 1)]
    assert [r.letters for r in h.relators()] == [(1, 1)]
    assert h.params == (2, 1)


def test_lens_11_is_sphere():
    h = lens_diagram(1, 1)
    assert [c.letters for c in h.beta.curves] == [(2, 1)]
    assert [r.letters for r in h.relators()] == [(1,)]
    assert verify_free_of_rank(GroupPresentation(h.genus, h.relators()), 0).is_verified


def test_lens_52():
    h = lens_diagram(5, 2)
    reading = h.relators()[0]
    assert sum(1 if lt > 0 else -1 for lt in reading.letters) == 5
    assert abelianization(GroupPresentation(h.genus, h.relators())) == AbelianInvariants(0, (5,))
    assert h.beta.curves[0].exponent_sums() == (2, 5)


def test_lens_rejects_bad_parameters():
    with pytest.raises(ValueError):
        lens_diagram(4, 2)
    with pytest.raises(ValueError):
        lens_diagram(2, 0)


def test_sphere_bundle_diagram():
    h = sphere_bundle_sum_diagram(3)
    assert abelianization(GroupPresentation(h.genus, h.relators())) == AbelianInvariants(3, ())
    assert all(r.is_identity() for r in h.relators())
    h0 = sphere_bundle_sum_diagram(0)
    assert h0.genus == 0
    assert verify_free_of_rank(GroupPresentation(h0.genus, h0.relators()), 0).is_verified
    h1 = sphere_bundle_sum_diagram(1)
    assert abelianization(GroupPresentation(h1.genus, h1.relators())) == AbelianInvariants(1, ())


# ---------------------------------------------------------------------------
# the product bisection against a transport-map reference


def _transport_alpha_and_gamma(h):
    """Reference construction of alpha and gamma on the genus-2g surface,
    independent of mirror and connected_sum.  Side 0 holds letters 1..2g
    and side 1 holds 2g+1..4g; the transport map tau swaps the sides and
    inverts every letter.  Gamma carries h's curves on side 0 and their
    transports on side 1, standardized by sigma0 = (h's standardizer on
    side 0), then tau sigma0 tau, then a sign fix of the side-1 standard
    letters."""
    g, half = h.genus, 2 * h.genus
    rank = 2 * half
    surface = SurfaceModel(half)
    swap = {k: (k + half,) for k in range(1, half + 1)}
    swap.update({k + half: (k,) for k in range(1, half + 1)})
    tau = compose(invert_all(rank), automorphism(rank, swap, swap))
    assert all(apply(tau, img) == Word(rank, (k,))
               for k, img in enumerate(tau.images, 1))
    alpha_curves = tuple(Word(rank, (2 * i - 1,)) for i in range(1, g + 1)) + \
        tuple(Word(rank, (half + 2 * i - 1,)) for i in range(1, g + 1))
    alpha = CutSystem(surface, alpha_curves, identity_automorphism(rank), "alpha")
    side0 = tuple(Word(rank, c.letters) for c in h.beta.curves)
    sigma0 = block_automorphism([h.beta.standardizer, identity_automorphism(half)])
    psi = compose(tau, compose(sigma0, tau))
    flip = flip_letters(rank, {s + half for s in h.beta.standard_letters})
    gamma = CutSystem(surface, side0 + tuple(apply(tau, c) for c in side0),
                      compose(flip, compose(psi, sigma0)), "gamma")
    return alpha, gamma


def _reference_inputs():
    """lens(p, q) for coprime p, q <= 13; random sums of one to four lens
    spaces, some mirrored or stabilized; sums of S1 x S2 from genus 0;
    and diagrams whose standardizer has no tracked inverse."""
    lenses = {(p, q): lens_diagram(p, q) for p in range(1, 14)
              for q in range(1, 14) if gcd(p, q) == 1}
    inputs = list(lenses.values())
    rng = random.Random(13)
    for _ in range(60):
        summands = []
        for _ in range(rng.randint(1, 4)):
            h = lenses[rng.choice(sorted(lenses))]
            if rng.random() < 0.3:
                h = mirror(h)
            if rng.random() < 0.2:
                h = stabilize(h)
            summands.append(h)
        inputs.append(functools.reduce(connected_sum, summands))
    inputs += [sphere_bundle_sum_diagram(g) for g in range(5)]
    for h in (lenses[(5, 2)], connected_sum(lenses[(7, 3)], lenses[(2, 1)])):
        untracked = FreeAutomorphism(h.surface.rank, h.beta.standardizer.images)
        inputs.append(GeometricHeegaardDiagram(
            h.genus, CutSystem(h.surface, h.beta.curves, untracked, "beta")))
    return inputs


def test_bisection_matches_transport_reference():
    inputs = _reference_inputs()
    assert len(inputs) == 182
    for h in inputs:
        alpha, gamma = _transport_alpha_and_gamma(h)
        d = bisection_from_heegaard(h)
        # dataclass equality: curves, standardizer images and inverse
        # images, letter for letter
        assert d.systems[0] == alpha and d.systems[2] == gamma, h.name
        tracked = h.beta.standardizer.inverse_images is not None
        assert (d.systems[2].standardizer.inverse_images is not None) == tracked


def test_bisection_gamma_side1_is_the_letterwise_inverse_shifted():
    h = connected_sum(lens_diagram(2, 1), lens_diagram(3, 1))
    gamma = bisection_from_heegaard(h).systems[2]
    assert gamma.curves[0].letters == (2, 2, 1)
    assert gamma.curves[2].letters == (-6, -6, -5)


def _block_stabilize(h):
    """Reference stabilization, independent of connected_sum: h's
    standardizer and the identity on the new handle as blocks, h's curves
    kept and the new b-type letter b_{g+1} added as a curve."""
    g = h.genus + 1
    surface = SurfaceModel(g)
    std = block_automorphism([h.beta.standardizer, identity_automorphism(2)])
    curves = tuple(Word(surface.rank, c.letters) for c in h.beta.curves)
    curves += (Word(surface.rank, (surface.b_letter(g),)),)
    beta = CutSystem(surface, curves, std, "beta")
    return GeometricHeegaardDiagram(g, beta, h.name, h.params)


def test_stabilize_matches_block_reference():
    lenses = {(p, q): lens_diagram(p, q) for p in range(1, 14)
              for q in range(1, 14) if gcd(p, q) == 1}
    inputs = list(lenses.values())
    inputs += [mirror(lenses[(5, 2)]),
               connected_sum(lenses[(7, 3)], mirror(lenses[(2, 1)])),
               _block_stabilize(lenses[(3, 2)])]
    inputs += [sphere_bundle_sum_diagram(g) for g in range(4)]
    h = lenses[(5, 2)]
    untracked = FreeAutomorphism(h.surface.rank, h.beta.standardizer.images)
    inputs.append(GeometricHeegaardDiagram(
        h.genus, CutSystem(h.surface, h.beta.curves, untracked, "beta"), h.name, h.params))
    assert len(inputs) == 123
    for h in inputs:
        ours, reference = stabilize(h), _block_stabilize(h)
        assert ours == reference, h.name
        assert format_heegaard(ours) == format_heegaard(reference), h.name
    assert stabilize(inputs[-1]).beta.standardizer.inverse_images is None
    assert _block_stabilize(inputs[-1]).beta.standardizer.inverse_images is None


# ---------------------------------------------------------------------------
# product bisections


def test_bisection_lens_full_contract(lens21_bisection):
    d = lens21_bisection
    assert d.surface.genus == 2
    assert d.claimed_types == (1, 1)
    assert not d.closed
    assert dict(d.readings)[(1, 2)] == (Word(2), Word(2, (1, -2)))
    assert dict(d.readings)[(2, 3)] == (Word(2, (2, 2, 1)), Word(2, (-2, -2, -1)))
    assert dict(d.readings)[(1, 3)] == (Word(2, (1, 1)), Word(2, (-2, -2)))
    report = validate(d, budget=200)
    assert report.ok
    assert report.boundary[1] == AbelianInvariants(0, (2, 2))
    assert pi1_invariants(d) == AbelianInvariants(0, (2,))


@pytest.mark.parametrize("n", [2, 3])
def test_bisection_connected_sum_scaling(n):
    d = bisection_from_heegaard(nsum(lens_diagram(5, 1), n))
    assert d.surface.genus == 2 * n
    assert d.claimed_types == (n, n)
    report = validate(d, budget=200)
    assert report.ok
    assert report.boundary[1] == AbelianInvariants(0, (5,) * (2 * n))
    assert d.boundary_invariants.minimal_generators == 2 * n
    assert d.surface.genus == 2 * n  # so the homology bound certifies the genus


def test_bisection_sphere_bundle():
    d = bisection_from_heegaard(sphere_bundle_sum_diagram(2))
    for w in dict(d.readings)[(2, 3)]:
        assert len(w) <= 1
    assert validate(d).ok
    assert pi1_invariants(d) == AbelianInvariants(2, ())


def test_bisection_requires_standardizer():
    surf = SurfaceModel(1)
    bare = CutSystem(surf, (Word(2, (2, 2, 1)),), None, "beta")
    with pytest.raises(DiagramError):
        GeometricHeegaardDiagram(1, bare)


# ---------------------------------------------------------------------------
# trisection restriction


def cp2_style_trisection():
    surf = SurfaceModel(1)
    alpha = standard_alpha_system(surf, "alpha")
    beta = CutSystem(surf, (Word(2, (2,)),), automorphism(2, {}, {}), "beta")
    gamma = CutSystem(surf, (Word(2, (1, 2)),),
                      automorphism(2, {1: (1, -2)}, {1: (1, 2)}), "gamma")
    return MultisectionDiagram(surf, (alpha, beta, gamma), True, (0, 0, 0))


def test_trisection_restriction():
    tri = cp2_style_trisection()
    assert validate(tri).ok
    restricted = bisection_from_trisection(tri, 3)
    assert not restricted.closed
    assert [s.label for s in restricted.systems] == ["alpha", "beta", "gamma"]
    assert restricted.claimed_types == (0, 0)
    assert validate(restricted).ok
    assert restricted.boundary_invariants == AbelianInvariants(0, ())

    drop1 = bisection_from_trisection(tri, 1)
    assert [s.label for s in drop1.systems] == ["beta", "gamma", "alpha"]
    assert drop1.claimed_types == (0, 0)


def test_trisection_restriction_genus_zero():
    surf = SurfaceModel(0)
    from multisect.words import identity_automorphism
    mk = lambda label: CutSystem(surf, (), identity_automorphism(0), label)
    tri = MultisectionDiagram(surf, (mk("a"), mk("b"), mk("c")), True, (0, 0, 0))
    restricted = bisection_from_trisection(tri, 2)
    assert validate(restricted).ok


def test_trisection_restriction_rejects_bad_input(lens21_bisection):
    with pytest.raises(DiagramError):
        bisection_from_trisection(lens21_bisection, 1)
    with pytest.raises(DiagramError):
        bisection_from_trisection(cp2_style_trisection(), 4)


def test_trisection_restriction_rekeys_cached_readings():
    surf = SurfaceModel(1)
    bare = lambda letters, label: CutSystem(surf, (Word(2, letters),), None, label)
    systems = (bare((1,), "alpha"), bare((2,), "beta"), bare((1, 2), "gamma"))
    one = (Word(1, (1,)),)
    readings = (((1, 2), one), ((2, 3), one), ((3, 1), one), ((1, 3), one))
    tri = MultisectionDiagram(surf, systems, True, (0, 0, 0), readings)
    restricted = bisection_from_trisection(tri, 1)
    # old pair (2, 3) is now (1, 2), old (3, 1) is now (2, 3), and so on
    assert [s.label for s in restricted.systems] == ["beta", "gamma", "alpha"]
    assert restricted.reading_map[(1, 2)] == one
    assert restricted.reading_map[(2, 3)] == one
    assert validate(restricted).ok


# ---------------------------------------------------------------------------
# doubling


def test_double_lens(lens21_bisection):
    d4 = double_bisection(lens21_bisection)
    assert d4.closed
    assert d4.claimed_types == (1, 1, 1, 1)
    assert validate(d4).ok
    assert d4.reading_map[(1, 4)] == d4.reading_map[(1, 2)]
    assert pi1_invariants(d4) == AbelianInvariants(0, (2,))


def test_double_sum_types():
    d = bisection_from_heegaard(nsum(lens_diagram(5, 1), 2))
    d4 = double_bisection(d)
    assert d4.claimed_types == (2, 2, 2, 2)
    assert d4.surface.genus == 4
    assert pi1_invariants(d4) == AbelianInvariants(0, (5, 5))


def test_double_rejects_wrong_shape():
    tri = cp2_style_trisection()
    with pytest.raises(DiagramError):
        double_bisection(tri)


# ---------------------------------------------------------------------------
# parallel sector insertion


@pytest.mark.parametrize("count", [1, 2, 3])
def test_insert_parallel_sectors(count, lens21_bisection):
    d4 = double_bisection(lens21_bisection)
    out = insert_parallel_sectors(d4, 2, count)
    assert len(out.systems) == 4 + count
    assert out.claimed_types == (1,) + (2,) * count + (1, 1, 1)
    assert validate(out).ok
    assert pi1_invariants(out) == AbelianInvariants(0, (2,))


def test_insert_zero_is_identity(lens21_bisection):
    d4 = double_bisection(lens21_bisection)
    assert insert_parallel_sectors(d4, 2, 0) is d4


def test_insert_at_last_closed_position(lens21_bisection):
    d4 = double_bisection(lens21_bisection)
    out = insert_parallel_sectors(d4, 4, 1)  # the parallel copy qualifies too
    assert out.claimed_types == (1, 1, 1, 2, 1)
    assert validate(out).ok


@pytest.mark.parametrize("build, step", [
    (double_bisection, "doubling"),
    (lambda b: insert_parallel_sectors(b, 2, 1), "sector insertion"),
])
def test_tampered_pi1_reading_fails_the_relator_check(build, step, lens21_bisection,
                                                      monkeypatch):
    # both constructions add a fourth system to a three-system input; a
    # pi1 of the result that reads one relator differently must be caught
    original = multisect.constructions.pi1_of_diagram

    def tampered(d):
        pres = original(d)
        if len(d.systems) < 4:
            return pres
        relators = list(pres.relators)
        k = next(i for i, r in enumerate(relators) if not r.is_identity())
        relators[k] = relators[k] * relators[k]
        return GroupPresentation(pres.generator_count, tuple(relators))

    monkeypatch.setattr(multisect.constructions, "pi1_of_diagram", tampered)
    with pytest.raises(AssertionError, match=f"{step} changed the pi1 relators"):
        build(lens21_bisection)


def test_insert_rejects_non_product_system(lens21_bisection):
    d4 = double_bisection(lens21_bisection)
    with pytest.raises(DiagramError):
        insert_parallel_sectors(d4, 1, 1)
    with pytest.raises(DiagramError):
        insert_parallel_sectors(d4, 3, 1)


def test_product_shape_errors_name_the_fault(lens21_bisection):
    def bounded(surface, *systems):
        return MultisectionDiagram(surface, systems, False, (1, 1))

    surf = SurfaceModel(1)
    odd = bounded(surf, standard_alpha_system(surf), lens_diagram(2, 1).beta,
                  standard_alpha_system(surf, "gamma"))
    for build in (double_bisection, lambda d: insert_parallel_sectors(d, 2, 1)):
        with pytest.raises(DiagramError,
                           match="^central genus is odd; not a doubled surface$"):
            build(odd)
    alpha, beta, gamma = lens21_bisection.systems
    surface = lens21_bisection.surface
    with pytest.raises(DiagramError,
                       match="^system 1 is not the doubled a-type basis$"):
        double_bisection(bounded(surface, beta, alpha, gamma))
    shuffled = bounded(surface, alpha, gamma, beta)
    with pytest.raises(DiagramError,
                       match="^system 2 is not the doubled cocore system$"):
        double_bisection(shuffled)
    with pytest.raises(DiagramError, match=r"^system 2 is not product-compatible "
                                           r"\(doubled cocores\)$"):
        insert_parallel_sectors(shuffled, 2, 1)


def test_insert_then_merge_recovers(lens21_bisection):
    d4 = double_bisection(lens21_bisection)
    d5 = insert_parallel_sectors(d4, 2, 1)
    back = merge_adjacent_sectors(d5, 3)
    assert back == d4


@pytest.mark.parametrize("p,q", [(5, 2), (7, 2), (7, 3), (8, 3)])
def test_merge_certifies_from_the_second_side(p, q):
    # the merged pair (2, 4) is Unknown from beta's side and verifies
    # from gamma's
    d4 = double_bisection(bisection_from_heegaard(lens_diagram(p, q)))
    d5 = insert_parallel_sectors(d4, 2, 1)
    assert validate(d5).ok
    assert merge_adjacent_sectors(d5, 3) == d4


def test_second_insert_at_one_position_takes_unused_labels(lens21_bisection):
    d4 = double_bisection(lens21_bisection)
    twice = insert_parallel_sectors(insert_parallel_sectors(d4, 2, 1), 2, 1)
    assert [s.label for s in twice.systems] == \
        ["alpha", "beta", "beta_ins2", "beta_ins1", "gamma", "delta"]
    assert validate(twice).ok


def test_insert_reads_cached_pairs_of_a_bare_system():
    d4 = bare(double_bisection(bisection_from_heegaard(lens_diagram(5, 2))), 2)
    out = insert_parallel_sectors(d4, 2, 1)
    assert out.systems[1].standardizer is None and validate(out).ok


def test_an_uncached_pair_of_a_bare_copy_is_unreadable():
    # the double's pair (4, 1) copies the bisection's (2, 1), which is
    # not cached and whose home system has no standardizer
    b = bare(bisection_from_heegaard(lens_diagram(5, 2)), 2)
    with pytest.raises(DiagramError, match=r"^pair \(2, 1\) is unreadable: "
                                           "no cache and no standardizer$"):
        double_bisection(b)


@pytest.mark.parametrize("p,q", [(2, 1), (5, 2), (7, 3), (8, 3)])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_cached_reading_is_what_its_pair_reads(p, q, n):
    # a copy reads as its source, so each construction caches exactly
    # what its own systems read
    h = nsum(lens_diagram(p, q), n)
    b = bisection_from_heegaard(h)
    d4 = double_bisection(b)
    d5 = insert_parallel_sectors(d4, 2, 1)
    built = [b, d4, d5, insert_parallel_sectors(d4, 2, 2), merge_adjacent_sectors(d5, 3)]
    for copies in (1, 2, 3, 4):
        chain = glue_bisections(h, copies)
        closed = cap_off(chain, auto_cap(h, copies))
        built += [chain, closed, merge_adjacent_sectors(closed, 3)]
    for d in built:
        for (i, j), words in d.readings:
            assert words == read_system(d.systems[i - 1], d.systems[j - 1]), (i, j)


def _checking(patch) -> list:
    """Patch ``MultisectionDiagram.__post_init__`` so that the returned
    list is non-empty exactly while a diagram is being checked."""
    checking, check = [], MultisectionDiagram.__post_init__

    def checked(self):
        checking.append(self)
        try:
            check(self)
        finally:
            checking.pop()

    patch.setattr(MultisectionDiagram, "__post_init__", checked)
    return checking


def test_assemble_reads_each_source_pair_once(monkeypatch):
    # the 12-copy chain caches 48 pairs that copy few source pairs: bisect
    # reads its four pairs and the input's relators, glue the two uncached
    # pairs (2, 1) and (3, 2); its self-check takes (3, 2) from the cache.
    # A derivation is a miss of the reading memo outside the diagram check.
    base = functools.reduce(connected_sum, (lens_diagram(5, q) for q in range(1, 5)))
    calls, read = [], CutSystem.read
    checking = _checking(monkeypatch)

    def counting(self, other):
        if not checking and id(other.curves) not in self._read_memo:
            calls.append((self.label, other.label))
        return read(self, other)

    monkeypatch.setattr(CutSystem, "read", counting)
    glue_bisections(base, 12)
    assert len(calls) == 7


def _substitutions(monkeypatch, build):
    """``build()``, and the curve substitutions of ``diagrams`` made while it
    runs: inside ``MultisectionDiagram.__post_init__`` and in all."""
    inside, outside, substitute = [], [], multisect.diagrams._substitute
    with monkeypatch.context() as patch:
        checking = _checking(patch)

        def counting(table, letters):
            (inside if checking else outside).append(letters)
            return substitute(table, letters)

        patch.setattr(multisect.diagrams, "_substitute", counting)
        return build(), len(inside), len(inside) + len(outside)


def test_the_reading_check_reuses_the_readings_a_construction_derived(monkeypatch,
                                                                       lens5_sum):
    # the check compares each cached word with the systems' reading memo,
    # which the construction filled; the chain's pairs (1, j) with system
    # j a copy of gamma read gamma's own curves, as empty words
    _, bisect, _ = _substitutions(monkeypatch, lambda: bisection_from_heegaard(lens5_sum))
    chain, glue, _ = _substitutions(monkeypatch, lambda: glue_bisections(lens5_sum, 12))
    cap = auto_cap(lens5_sum, 12)
    capped, capping, _ = _substitutions(monkeypatch, lambda: cap_off(chain, cap))
    assert (bisect, glue, capping) == (0, 0, 0)
    # a parsed diagram checks each distinct pair of systems once, and
    # validate then reads every pair it needs from the memo
    d, _, _ = _substitutions(monkeypatch, lambda: parse_diagram(format_diagram(capped)))
    assert _substitutions(monkeypatch, lambda: validate(d))[2] == 0


def test_the_group_self_checks_compute_no_canonical_form(monkeypatch):
    # a construction keeps system 1's relators letter for letter, so its
    # same-group check finds equal letter sets and computes no class
    # (200, 240 and 208 canonical forms when every relator was classed)
    base = functools.reduce(connected_sum, (lens_diagram(5, q) for q in range(1, 5)))
    b = bisection_from_heegaard(connected_sum(*[base] * 5))
    classed, canonical = [], multisect.presentations._canonical_letters
    monkeypatch.setattr(multisect.presentations, "_canonical_letters",
                        lambda letters: classed.append(letters) or canonical(letters))
    built = [double_bisection(b), insert_parallel_sectors(b, 2, 2), glue_bisections(base, 12)]
    assert [d.surface.genus for d in built] == [40, 40, 8] and classed == []


def test_a_warm_reading_memo_still_refuses_a_wrong_cached_word(lens5_sum):
    d = glue_bisections(lens5_sum, 3)
    (pair, words), *rest = d.readings
    home, other = (d.systems[k - 1] for k in pair)
    assert id(other.curves) in home._read_memo  # the check will read the memo
    # longer than the reading, so conjugate to neither it nor its inverse
    wrong = Word(d.surface.genus, (1,) * (len(words[0]) + 1))
    with pytest.raises(DiagramError, match=re.escape(
            f"cached reading {pair} disagrees with recomputation")):
        replace(d, readings=((pair, (wrong,) + words[1:]), *rest))


def test_cap_off_checks_only_its_output(monkeypatch, lens5_sum):
    # the chain's 48 cached readings were checked when it was built; only
    # the capped diagram, with 50 readings, is checked again
    chain, cap = glue_bisections(lens5_sum, 12), auto_cap(lens5_sum, 12)
    checked = []
    original = MultisectionDiagram.__post_init__

    def counting(self):
        checked.append(len(self.readings))
        original(self)

    monkeypatch.setattr(MultisectionDiagram, "__post_init__", counting)
    cap_off(chain, cap)
    assert checked == [50]


def test_validate_settles_each_distinct_presentation_once(monkeypatch, c12_merge):
    # 25 sectors, some read from both sides, present 5 distinct groups
    calls = []
    original = multisect.diagrams.tietze_simplify

    def counting(pres, budget):
        calls.append(pres)
        return original(pres, budget)

    monkeypatch.setattr(multisect.diagrams, "tietze_simplify", counting)
    assert validate(c12_merge).ok
    assert len(calls) == 5


def reference_validate(d, budget):
    """:func:`validate` without the memo: each pair settled on its own."""
    entries = tuple(
        (pair, k, SectorVerdict.of(settle_pair(d, readable_sides(d, *pair), budget)[1], k))
        for pair, k in zip(d.sector_pairs(), d.claimed_types))
    boundary = None if d.closed else (d.boundary_pair(), d.boundary_invariants)
    return ValidationReport(entries, boundary)


@pytest.mark.parametrize("budget", [DEFAULT_TIETZE_BUDGET, 1])
def test_memoized_validate_matches_pair_by_pair(budget, lens5_sum, c12_merge):
    built = [double_bisection(bisection_from_heegaard(lens_diagram(p, q)))
             for p, q in [(2, 1), (5, 2), (7, 3)]]
    h = lens_diagram(5, 2)
    built += [glue_bisections(h, 2), cap_off(glue_bisections(h, 2), auto_cap(h, 2)),
              glue_bisections(lens5_sum, 12), c12_merge]
    first_side_stuck = unknown = 0
    for d in built:
        report = validate(d, budget)
        assert report == reference_validate(d, budget)
        settled = {}
        for pair in d.sector_pairs():
            sides = readable_sides(d, *pair)
            side, result = settle_pair(d, sides, budget, settled)
            assert (side, result) == settle_pair(d, sides, budget)
            first_side_stuck += side != sides[0]
        unknown += sum(v.status == "unknown" for _, _, v in report.entries)
    # at full budget the lens(5,2) pair (2, 3) settles from (3, 2); at
    # budget 1 no side gets free, and pairs are left Unknown
    assert (first_side_stuck > 0, unknown > 0) == (budget > 1, budget == 1)


# ---------------------------------------------------------------------------
# the three side walks as written before ``diagrams.settle_pair``, kept as
# oracles: validate took the first side whose verdict is not Unknown, merge
# and spine_tuple the first side that simplifies to a free presentation,
# spine_tuple only among homes with a tracked inverse


def reference_pair_verdict(d, i, j, claimed):
    verdicts = []
    for home, other in readable_sides(d, i, j):
        verdicts.append(verify_free_of_rank(presentation_of_pair(d, home, other), claimed))
        if verdicts[-1].status != "unknown":
            return verdicts[-1]
    return verdicts[0]


def reference_merge(d, interface):
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
    families = {side: multisect.diagrams.reading_of_pair(d, side, interface)
                for side in (prev, nxt)}
    if not any(all(len(w) <= 1 for w in fam) for fam in families.values()):
        raise MergeRefusedError("not parallel")
    for home, other in readable_sides(d, prev, nxt):
        simplified = tietze_simplify(presentation_of_pair(d, home, other)).presentation
        if not simplified.relators:
            break
    else:
        raise MergeRefusedError("merged sector does not certify as a handlebody")
    keep = [i for i in range(1, s + 1) if i != interface]
    old_types = dict(zip(d.sector_pairs(), d.claimed_types))
    new_types = tuple(old_types.get((keep[i - 1], keep[j - 1]), simplified.generator_count)
                      for i, j in adjacent_pairs(len(keep), d.closed))
    return multisect.constructions._assemble(d.systems, d.reading_map, keep, d.closed, new_types)


def reference_spine_tuple(d, sector):
    for home, other in readable_sides(d, *d.sector_pairs()[sector - 1]):
        system = d.systems[home - 1]
        if system.standardizer is None or system.standardizer.inverse_images is None:
            continue
        result = tietze_simplify(presentation_of_pair(d, home, other))
        if result.presentation.relators:
            continue
        inverse, letters = system.standardizer.inverse_images, system.surviving_letters
        return tuple(express_against(inverse[letters[dual - 1] - 1], d.systems[0])
                     for dual in result.surviving_generators)
    raise DiagramError(
        f"sector {sector} is not expressible: no side gives a tracked "
        "standardizer and a free simplification")


def outcome(f, *args):
    """What ``f(*args)`` returns, or the type and message of what it raises;
    a merge refusal counts by its type alone, since the reference does not
    spell out the non-parallel readings."""
    try:
        return f(*args)
    except MergeRefusedError as exc:
        return MergeRefusedError, "certify" in str(exc)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("p,q", [(2, 1), (5, 2), (7, 3), (8, 3)])
def test_settle_pair_walks_as_the_three_reference_walks(p, q):
    h = lens_diagram(p, q)
    b = bisection_from_heegaard(h)
    d4 = double_bisection(b)
    d5 = insert_parallel_sectors(d4, 2, 1)
    closed = cap_off(glue_bisections(h, 2), auto_cap(h, 2))
    built = [b, d4, d5, closed, merge_adjacent_sectors(d5, 3),
             merge_adjacent_sectors(closed, 3)]
    for d in built + [bare(d, 1) for d in built] + [untracked(d, 1) for d in built]:
        assert outcome(lambda: validate(d).entries) == outcome(lambda: tuple(
            (pair, k, reference_pair_verdict(d, *pair, k))
            for pair, k in zip(d.sector_pairs(), d.claimed_types)))
        for sector in range(1, len(d.sector_pairs()) + 1):
            assert outcome(spine_tuple, d, sector) == \
                outcome(reference_spine_tuple, d, sector), sector
        for interface in range(1, len(d.systems) + 1):
            merged = outcome(merge_adjacent_sectors, d, interface)
            expected = outcome(reference_merge, d, interface)
            if isinstance(merged, MultisectionDiagram):
                merged, expected = format_diagram(merged), format_diagram(expected)
            assert merged == expected, interface


# ---------------------------------------------------------------------------
# gluing, capping, merging


def test_glue_chain_even():
    h = lens_diagram(2, 1)
    chain = glue_bisections(h, 2)
    assert len(chain.systems) == 5
    assert chain.claimed_types == (1, 1, 1, 1)
    assert validate(chain).ok
    assert chain.boundary_invariants == AbelianInvariants(2, ())
    assert pi1_invariants(chain) == AbelianInvariants(0, (2,))


def test_glue_chain_odd():
    h = lens_diagram(2, 1)
    chain = glue_bisections(h, 3)
    assert len(chain.systems) == 7
    assert chain.claimed_types == (1,) * 6
    assert validate(chain).ok
    assert chain.boundary_invariants == AbelianInvariants(0, (2, 2))


def test_glue_needs_a_copy():
    with pytest.raises(ValueError, match="need at least one copy"):
        glue_bisections(lens_diagram(2, 1), 0)


def test_cap_off_even_chain():
    h = lens_diagram(2, 1)
    chain = glue_bisections(h, 2)
    closed = cap_off(chain, auto_cap(h, 2))
    assert closed.closed
    assert len(closed.systems) == 6
    assert closed.claimed_types == (1,) * 6
    assert validate(closed).ok
    assert pi1_invariants(closed) == AbelianInvariants(0, (2,))


def test_cap_off_single_copy_matches_double(lens21_bisection):
    h = lens_diagram(2, 1)
    chain = glue_bisections(h, 1)
    closed = cap_off(chain, auto_cap(h, 1))
    d4 = double_bisection(lens21_bisection)
    seq = [tuple(c.letters for c in s.curves) for s in closed.systems]
    target = [tuple(c.letters for c in s.curves) for s in d4.systems]
    assert any(seq[k:] + seq[:k] == target for k in range(len(seq)))
    assert closed.claimed_types == d4.claimed_types


def test_cap_off_reads_cached_pairs_of_a_bare_system():
    h = lens_diagram(5, 2)
    closed = cap_off(bare(glue_bisections(h, 1), 2), auto_cap(h, 1))
    assert closed.systems[1].standardizer is None and validate(closed).ok


def test_cap_off_takes_an_unused_label(lens21_bisection):
    alpha, beta, gamma = lens21_bisection.systems
    chain = replace(lens21_bisection, systems=(alpha, beta, replace(gamma, label="beta_cap")))
    closed = cap_off(chain, lens21_bisection)
    assert [s.label for s in closed.systems] == ["alpha", "beta", "beta_cap", "beta_cap2"]
    assert validate(closed).ok


def test_cap_off_mismatch_refused():
    h = lens_diagram(2, 1)
    chain = glue_bisections(h, 1)
    wrong_cap = bisection_from_heegaard(lens_diagram(3, 1))
    with pytest.raises(GlueMismatchError) as exc:
        cap_off(chain, wrong_cap)
    assert exc.value.left == AbelianInvariants(0, (2, 2))
    assert exc.value.right == AbelianInvariants(0, (3, 3))


def test_merge_capped_chain_to_odd_sector_count():
    h = lens_diagram(2, 1)
    closed = cap_off(glue_bisections(h, 2), auto_cap(h, 2))
    merged = merge_adjacent_sectors(closed, 3)
    assert len(merged.systems) == 5
    assert merged.claimed_types == (1, 2, 1, 1, 1)
    assert validate(merged).ok


def test_merge_refuses_non_parallel_interface(lens21_bisection):
    h = lens_diagram(2, 1)
    closed = cap_off(glue_bisections(h, 2), auto_cap(h, 2))
    for interface in (1, 2, 4, 5, 6):
        with pytest.raises(MergeRefusedError):
            merge_adjacent_sectors(closed, interface)
    # the lens bisection's middle system reads x^2 etc. against gamma
    with pytest.raises(MergeRefusedError):
        merge_adjacent_sectors(lens21_bisection, 2)


def test_merge_preserves_group_in_parallel_case(lens21_bisection):
    d4 = double_bisection(lens21_bisection)
    d6 = insert_parallel_sectors(d4, 2, 2)
    merged = merge_adjacent_sectors(d6, 3)
    assert pi1_invariants(merged) == pi1_invariants(d6)


# ---------------------------------------------------------------------------
# bookkeeping properties


@pytest.mark.parametrize("p,q", [(2, 1), (3, 1), (5, 2)])
def test_genus_bookkeeping(p, q):
    h = lens_diagram(p, q)
    b = bisection_from_heegaard(h)
    assert b.surface.genus == 2 * h.genus
    assert len(b.systems) == 3
    d4 = double_bisection(b)
    assert len(d4.systems) == 4
    d5 = insert_parallel_sectors(d4, 2, 1)
    assert len(d5.systems) == 5
    for m in (1, 2):
        chain = glue_bisections(h, m)
        assert len(chain.sector_pairs()) == 2 * m
        closed = cap_off(chain, auto_cap(h, m))
        assert len(closed.sector_pairs()) == 2 * m + 2
        assert len(merge_adjacent_sectors(closed, 3).sector_pairs()) == 2 * m + 1


def test_pi1_preserved_along_pipeline():
    for p in (2, 3):
        h = lens_diagram(p, 1)
        b = bisection_from_heegaard(h)
        expected = abelianization(GroupPresentation(h.genus, h.relators()))
        assert pi1_invariants(b) == expected
        d4 = double_bisection(b)
        assert pi1_invariants(d4) == expected
        assert pi1_invariants(insert_parallel_sectors(d4, 2, 2)) == expected
        chain = glue_bisections(h, 2)
        assert pi1_invariants(chain) == expected
        assert pi1_invariants(cap_off(chain, auto_cap(h, 2))) == expected


def test_simplified_presentations_match_along_pipeline():
    from multisect.presentations import tietze_simplify
    from multisect.words import _canonical_letters

    def simplified_shape(d):
        pres = tietze_simplify(pi1_of_diagram(d)).presentation
        return (pres.generator_count,
                sorted(_canonical_letters(r.letters) for r in pres.relators))

    h = lens_diagram(2, 1)
    b = bisection_from_heegaard(h)
    shape = simplified_shape(b)
    assert shape == (1, [_canonical_letters((1, 1))])
    d4 = double_bisection(b)
    assert simplified_shape(d4) == shape
    assert simplified_shape(insert_parallel_sectors(d4, 2, 1)) == shape
    chain = glue_bisections(h, 2)
    assert simplified_shape(chain) == shape
    assert simplified_shape(cap_off(chain, auto_cap(h, 2))) == shape


_B = bisection_from_heegaard(lens_diagram(5, 2))
_CLOSED = cap_off(_B, _B)


@pytest.mark.parametrize("refused, message", [
    (lambda: insert_parallel_sectors(_B, 3, 1), "position does not index an interior system"),
    (lambda: insert_parallel_sectors(_B, 1, -1), "count must be non-negative"),
    (lambda: cap_off(_CLOSED, _B), "both diagrams must be bounded"),
    (lambda: cap_off(_B, glue_bisections(lens_diagram(5, 2), 2)),
     "the cap must have exactly three systems"),
    (lambda: cap_off(_B, bisection_from_heegaard(stabilize(lens_diagram(5, 2)))),
     "central surfaces differ"),
    (lambda: merge_adjacent_sectors(_CLOSED, 5), "interface index out of range"),
    (lambda: flip_check(_CLOSED), "flip check expects a bounded three-system diagram"),
    (lambda: spine_tuple(_B, 3), "sector index out of range"),
    (lambda: replace(_B, systems=_B.systems[:2] + _B.systems[:1]), "system labels must be distinct"),
    (lambda: replace(_B, systems=_B.systems[:2] + (standard_alpha_system(SurfaceModel(1), "x"),)),
     "all systems must share the central surface"),
    (lambda: replace(_B, readings=((_B.readings[0][0], _B.readings[0][1][:-1]),)),
     "reading (1, 2): expected one word per curve"),
], ids=["insert-position", "insert-count", "cap-closed", "cap-systems", "cap-surface",
        "merge-closed-interface", "flip-shape", "spine-sector", "duplicate-labels",
        "surfaces", "reading-length"])
def test_each_construction_refusal_names_its_fault(refused, message):
    with pytest.raises(DiagramError, match=f"^{re.escape(message)}$"):
        refused()
