import functools
import random
from math import gcd

import pytest

import multisect.constructions
from multisect.constructions import (GlueMismatchError, MergeRefusedError,
                                     auto_cap, bisection_from_heegaard,
                                     bisection_from_trisection, cap_off,
                                     double_bisection, genus_bound_report,
                                     glue_bisections, insert_parallel_sectors,
                                     lens_diagram, merge_adjacent_sectors,
                                     sphere_bundle_sum_diagram)
from multisect.diagrams import (CutSystem, DiagramError,
                                GeometricHeegaardDiagram, MultisectionDiagram,
                                SurfaceModel, connected_sum, format_heegaard,
                                mirror, pi1_of_diagram, stabilize,
                                standard_alpha_system, validate)
from multisect.presentations import AbelianInvariants, GroupPresentation, \
    abelianization, verify_free_of_rank
from multisect.words import (FreeAutomorphism, Word, apply, automorphism,
                             block_automorphism, compose, flip_letters,
                             identity_automorphism, invert_all, relabel)


def nsum(h, n):
    out = h
    for _ in range(n - 1):
        out = connected_sum(out, h)
    return out


def pi1_invariants(d):
    return abelianization(pi1_of_diagram(d))


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
    assert verify_free_of_rank(h.pi1_presentation(), 0).is_verified


def test_lens_52():
    h = lens_diagram(5, 2)
    reading = h.relators()[0]
    assert sum(1 if lt > 0 else -1 for lt in reading.letters) == 5
    assert h.homology() == AbelianInvariants(0, (5,))
    assert h.beta.curves[0].exponent_sums() == (2, 5)


def test_lens_rejects_bad_parameters():
    with pytest.raises(ValueError):
        lens_diagram(4, 2)
    with pytest.raises(ValueError):
        lens_diagram(2, 0)


def test_sphere_bundle_diagram():
    h = sphere_bundle_sum_diagram(3)
    assert h.homology() == AbelianInvariants(3, ())
    assert all(r.is_identity() for r in h.relators())
    h0 = sphere_bundle_sum_diagram(0)
    assert h0.genus == 0
    assert verify_free_of_rank(h0.pi1_presentation(), 0).is_verified
    h1 = sphere_bundle_sum_diagram(1)
    assert abelianization(h1.pi1_presentation()) == AbelianInvariants(1, ())


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
    swap = {k: k + half for k in range(1, half + 1)}
    swap.update({k + half: k for k in range(1, half + 1)})
    tau = compose(invert_all(rank), relabel(rank, swap))
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
    bound = genus_bound_report(d)
    assert bound["boundary_h1_rank"] == 2 * n
    assert bound["central_genus"] == 2 * n
    assert bound["minimal_genus_certified"]


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
        assert chain.sector_count == 2 * m
        closed = cap_off(chain, auto_cap(h, m))
        assert closed.sector_count == 2 * m + 2
        assert merge_adjacent_sectors(closed, 3).sector_count == 2 * m + 1


def test_pi1_preserved_along_pipeline():
    for p in (2, 3):
        h = lens_diagram(p, 1)
        b = bisection_from_heegaard(h)
        expected = abelianization(h.pi1_presentation())
        assert pi1_invariants(b) == expected
        d4 = double_bisection(b)
        assert pi1_invariants(d4) == expected
        assert pi1_invariants(insert_parallel_sectors(d4, 2, 2)) == expected
        chain = glue_bisections(h, 2)
        assert pi1_invariants(chain) == expected
        assert pi1_invariants(cap_off(chain, auto_cap(h, 2))) == expected


def test_simplified_presentations_match_along_pipeline():
    from multisect.presentations import tietze_simplify
    from multisect.words import canonical_cyclic

    def simplified_shape(d):
        pres = tietze_simplify(pi1_of_diagram(d)).presentation
        return (pres.generator_count,
                sorted(canonical_cyclic(r).letters for r in pres.relators))

    h = lens_diagram(2, 1)
    b = bisection_from_heegaard(h)
    shape = simplified_shape(b)
    assert shape == (1, [canonical_cyclic(Word(1, (1, 1))).letters])
    d4 = double_bisection(b)
    assert simplified_shape(d4) == shape
    assert simplified_shape(insert_parallel_sectors(d4, 2, 1)) == shape
    chain = glue_bisections(h, 2)
    assert simplified_shape(chain) == shape
    assert simplified_shape(cap_off(chain, auto_cap(h, 2))) == shape
