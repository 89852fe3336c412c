import pytest

import multisect.constructions
from multisect.constructions import (DoubledSurfaceContext, GluePlan,
                                     GlueMismatchError, MergeRefusedError,
                                     auto_cap, bisection_from_heegaard,
                                     bisection_from_trisection,
                                     boundary_invariants, cap_off,
                                     double_bisection, genus_bound_report,
                                     glue_bisections, insert_parallel_sectors,
                                     lens_diagram, merge_adjacent_sectors,
                                     sphere_bundle_sum_diagram)
from multisect.diagrams import (CutSystem, DiagramError, MultisectionDiagram,
                                SurfaceModel, connected_sum, pi1_of_diagram,
                                standard_alpha_system, validate)
from multisect.presentations import AbelianInvariants, GroupPresentation, \
    abelianization, verify_free_of_rank
from multisect.words import Word, apply, automorphism


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
# doubled surface context


def test_doubled_context_transport():
    ctx = DoubledSurfaceContext(2)
    tau = ctx.transport
    w = Word(8, (2, 2, 1))
    assert apply(tau, w).letters == (-6, -6, -5)
    assert apply(tau, apply(tau, w)) == w


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
    from multisect.diagrams import GeometricHeegaardDiagram
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
    assert boundary_invariants(restricted) == AbelianInvariants(0, ())

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


def test_insert_then_merge_recovers(lens21_bisection):
    d4 = double_bisection(lens21_bisection)
    d5 = insert_parallel_sectors(d4, 2, 1)
    back = merge_adjacent_sectors(d5, 3)
    assert back == d4


# ---------------------------------------------------------------------------
# gluing, capping, merging


def test_glue_chain_even():
    plan = GluePlan(lens_diagram(2, 1), 2)
    chain = glue_bisections(plan)
    assert len(chain.systems) == 5
    assert chain.claimed_types == (1, 1, 1, 1)
    assert validate(chain).ok
    assert boundary_invariants(chain) == AbelianInvariants(2, ())
    assert pi1_invariants(chain) == AbelianInvariants(0, (2,))


def test_glue_chain_odd():
    plan = GluePlan(lens_diagram(2, 1), 3)
    chain = glue_bisections(plan)
    assert len(chain.systems) == 7
    assert chain.claimed_types == (1,) * 6
    assert validate(chain).ok
    assert boundary_invariants(chain) == AbelianInvariants(0, (2, 2))
    assert plan.interface_labels == ("H1", "H3")


def test_cap_off_even_chain():
    plan = GluePlan(lens_diagram(2, 1), 2)
    chain = glue_bisections(plan)
    closed = cap_off(chain, auto_cap(plan))
    assert closed.closed
    assert len(closed.systems) == 6
    assert closed.claimed_types == (1,) * 6
    assert validate(closed).ok
    assert pi1_invariants(closed) == AbelianInvariants(0, (2,))


def test_cap_off_single_copy_matches_double(lens21_bisection):
    plan = GluePlan(lens_diagram(2, 1), 1)
    chain = glue_bisections(plan)
    closed = cap_off(chain, auto_cap(plan))
    d4 = double_bisection(lens21_bisection)
    seq = [tuple(c.letters for c in s.curves) for s in closed.systems]
    target = [tuple(c.letters for c in s.curves) for s in d4.systems]
    assert any(seq[k:] + seq[:k] == target for k in range(len(seq)))
    assert closed.claimed_types == d4.claimed_types


def test_cap_off_mismatch_refused():
    plan = GluePlan(lens_diagram(2, 1), 1)
    chain = glue_bisections(plan)
    wrong_cap = bisection_from_heegaard(lens_diagram(3, 1))
    with pytest.raises(GlueMismatchError) as exc:
        cap_off(chain, wrong_cap)
    assert exc.value.left == AbelianInvariants(0, (2, 2))
    assert exc.value.right == AbelianInvariants(0, (3, 3))


def test_merge_capped_chain_to_odd_sector_count():
    plan = GluePlan(lens_diagram(2, 1), 2)
    closed = cap_off(glue_bisections(plan), auto_cap(plan))
    merged = merge_adjacent_sectors(closed, 3)
    assert len(merged.systems) == 5
    assert merged.claimed_types == (1, 2, 1, 1, 1)
    assert validate(merged).ok


def test_merge_refuses_non_parallel_interface(lens21_bisection):
    plan = GluePlan(lens_diagram(2, 1), 2)
    closed = cap_off(glue_bisections(plan), auto_cap(plan))
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
        plan = GluePlan(h, m)
        chain = glue_bisections(plan)
        assert chain.sector_count == 2 * m
        closed = cap_off(chain, auto_cap(plan))
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
        plan = GluePlan(h, 2)
        chain = glue_bisections(plan)
        assert pi1_invariants(chain) == expected
        assert pi1_invariants(cap_off(chain, auto_cap(plan))) == expected


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
    plan = GluePlan(h, 2)
    chain = glue_bisections(plan)
    assert simplified_shape(chain) == shape
    assert simplified_shape(cap_off(chain, auto_cap(plan))) == shape
