"""Randomized end-to-end properties of the construction pipeline."""

import random
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from multisect.constructions import (bisection_from_heegaard, double_bisection,
                                     glue_bisections, lens_diagram)
from multisect.diagrams import (CutSystem, GeometricHeegaardDiagram,
                                SurfaceModel, format_diagram, parse_diagram,
                                express_against, pi1_of_diagram, read_against,
                                read_system, validate)
from multisect.presentations import GroupPresentation, abelianization
from multisect.words import (FreeAutomorphism, Word, apply, automorphism, compose,
                             flip_letters, identity_automorphism)


def random_heegaard(rng, genus):
    """A Heegaard diagram with a random standardizer chain: the beta
    curves are the images of the a-type letters under a random
    automorphism, standardized by its tracked inverse."""
    rank = 2 * genus
    while True:
        phi = identity_automorphism(rank)
        for _ in range(rng.randint(1, 6)):
            kind = rng.random()
            i = rng.randint(1, rank)
            j = rng.randint(1, rank)
            if i == j:
                continue
            if kind < 0.6:
                step = automorphism(rank, {i: (i, j)}, {i: (i, -j)})
            elif kind < 0.8:
                step = flip_letters(rank, {i})
            else:
                step = automorphism(rank, {i: (j,), j: (i,)}, {i: (j,), j: (i,)})
            phi = compose(step, phi)
        curves = tuple(apply(phi, Word(rank, (2 * k - 1,)))
                       for k in range(1, genus + 1))
        if all(c.cyclic_reduce() == c and not c.is_identity() for c in curves):
            beta = CutSystem(SurfaceModel(genus), curves, phi.inverse(), "beta")
            return GeometricHeegaardDiagram(genus, beta, "random", None)


@pytest.mark.parametrize("seed", range(8))
def test_random_heegaard_bisections_always_verify(seed):
    rng = random.Random(1000 + seed)
    h = random_heegaard(rng, rng.randint(1, 2))
    b = bisection_from_heegaard(h)
    assert validate(b).ok
    assert abelianization(pi1_of_diagram(b)) == \
        abelianization(GroupPresentation(h.genus, h.relators()))
    d4 = double_bisection(b)
    assert validate(d4).ok
    assert abelianization(pi1_of_diagram(d4)) == \
        abelianization(GroupPresentation(h.genus, h.relators()))
    text = format_diagram(d4)
    assert parse_diagram(text) == d4


def fresh(system):
    """``system`` rebuilt from new words, so it shares no reading memo."""
    rank, std = system.surface.rank, system.standardizer

    def new(words):
        return None if words is None else tuple(Word(rank, w.letters) for w in words)

    if std is not None:
        std = FreeAutomorphism(rank, new(std.images), new(std.inverse_images))
    return CutSystem(system.surface, new(system.curves), std, system.label)


@pytest.mark.parametrize("seed", range(6))
def test_cached_readings_are_what_fresh_systems_read(seed):
    # every construction caches what its systems read; the reference
    # reads each pair with read_against on rebuilt systems
    rng = random.Random(4000 + seed)
    h = random_heegaard(rng, rng.randint(1, 2))
    b = bisection_from_heegaard(h)
    for d in (b, double_bisection(b), glue_bisections(h, rng.randint(1, 4))):
        systems = tuple(map(fresh, d.systems))
        for (i, j), words in d.readings:
            assert words == tuple(read_against(c, systems[i - 1])
                                  for c in systems[j - 1].curves), (i, j)


def pi1_from_any_system(d, home):
    """Group of the diagram presented on the duals of an arbitrary
    system: relators are every other system read against it."""
    from multisect.presentations import GroupPresentation
    relators = []
    for j in range(1, len(d.systems) + 1):
        if j != home:
            relators.extend(read_system(d.systems[home - 1], d.systems[j - 1]))
    return GroupPresentation(d.surface.genus, tuple(relators))


@pytest.mark.parametrize("seed", range(4))
def test_diagram_group_is_system_independent(seed):
    rng = random.Random(2000 + seed)
    h = random_heegaard(rng, rng.randint(1, 2))
    d4 = double_bisection(bisection_from_heegaard(h))
    expected = abelianization(pi1_of_diagram(d4))
    for home in range(1, len(d4.systems) + 1):
        assert abelianization(pi1_from_any_system(d4, home)) == expected


@pytest.mark.parametrize("seed", range(4))
def test_pair_orientations_present_the_same_group(seed):
    from multisect.diagrams import presentation_of_pair
    rng = random.Random(3000 + seed)
    h = random_heegaard(rng, rng.randint(1, 2))
    d = bisection_from_heegaard(h)
    for i, j in d.sector_pairs() + ((3, 1),):
        forward = abelianization(presentation_of_pair(d, i, j))
        backward = abelianization(presentation_of_pair(d, j, i))
        assert forward == backward


def deletion_reading(w, system):
    """A based word read against a system by standardize, delete, rename:
    apply the standardizer, delete the standard letters and rename each
    surviving letter to its place among the survivors, counting from 1."""
    dual = {lt: n for n, lt in enumerate(system.surviving_letters, 1)}
    image = apply(system.standardizer, w)
    return Word(system.surface.genus,
                tuple(dual[abs(lt)] if lt > 0 else -dual[abs(lt)]
                      for lt in image.letters if abs(lt) in dual))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.data())
def test_reading_is_one_substitution_by_the_dual_images(seed, data):
    rng = random.Random(seed)
    b = bisection_from_heegaard(random_heegaard(rng, rng.randint(1, 2)))
    rank = b.surface.rank
    letter = st.integers(-rank, rank).filter(bool)
    words = [Word(rank, tuple(letters)) for letters in
             data.draw(st.lists(st.lists(letter, max_size=12), min_size=1, max_size=4))]
    for d in (b, double_bisection(b)):
        for system in d.systems:
            for w in words:
                expected = deletion_reading(w, system)
                assert express_against(w, system) == expected
                assert read_against(w, system) == expected.cyclic_reduce()


@pytest.mark.parametrize("p,q", [(p, q) for p in range(1, 8)
                                 for q in range(1, 8) if gcd(p, q) == 1])
def test_lens_family_invariants(p, q):
    h = lens_diagram(p, q)
    assert h.beta.curves[0].exponent_sums() == (q, p)
    invariants = abelianization(GroupPresentation(h.genus, h.relators()))
    if p == 1:
        assert invariants.torsion == ()
        assert invariants.free_rank == 0
    else:
        assert invariants.torsion == (p,)
    b = bisection_from_heegaard(h)
    assert validate(b, budget=200).ok
