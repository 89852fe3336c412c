import random
import time
from dataclasses import replace
from math import prod
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings, strategies as st

import multisect.abelian
import multisect.nielsen
import multisect.presentations
from multisect.abelian import FiniteAbelianGroup, enumerate_abelian_groups
from multisect.constructions import (bisection_from_heegaard, double_bisection,
                                     lens_diagram)
from multisect.diagrams import (CutSystem, DiagramError, MultisectionDiagram,
                                SurfaceModel, connected_sum)
from multisect.nielsen import (DEFAULT_SEARCH_NODES, MOVES, NielsenCertificate,
                               _free_smith_diagonal, _move_elements, _moves_for,
                               _path, _search, _unit_determinant_class,
                               apply_word_move, compare_sectors, connect_tuples,
                               distinguish, flip_check, format_certificate,
                               free_tuple_search, orbit_enumerate, spine_tuple)
from multisect.presentations import (GroupPresentation, abelianization,
                                     enumerate_finite_abelian_quotients, tietze_simplify)
from multisect.words import Word, format_word, identity_automorphism
from test_constructions import untracked
from test_words import reference_apply_images


def z(n, *factors):
    return FiniteAbelianGroup(tuple(factors) if factors else (n,))


def test_nielsen_move_examples():
    g = FiniteAbelianGroup((5, 5))
    t = ((1, 0), (0, 1))
    assert _move_elements(g, t, "swap12") == ((0, 1), (1, 0))
    assert _move_elements(g, t, "mult12") == ((1, 1), (0, 1))
    assert _move_elements(g, t, "invert1") == ((4, 0), (0, 1))
    twice = _move_elements(g, _move_elements(g, t, "invert1"), "invert1")
    assert twice == t
    assert _move_elements(g, t, "cycle") == ((0, 1), (1, 0))
    # a move keeps a generating tuple generating
    assert all(g.generates(_move_elements(g, t, m)) for m in MOVES)


def test_nielsen_move_small_tuple_errors():
    g = FiniteAbelianGroup((5,))
    t = ((1,),)
    with pytest.raises(ValueError):
        _move_elements(g, t, "swap12")
    with pytest.raises(ValueError):
        _move_elements(g, t, "mult12")
    assert _move_elements(g, t, "cycle") == t


def test_orbit_enumerate_z5():
    part = orbit_enumerate(FiniteAbelianGroup((5,)), 1)
    orbits = {oid: set(members) for oid, members in part.orbits}
    assert orbits == {((1,),): {((1,),), ((4,),)},
                      ((2,),): {((2,),), ((3,),)}}


def test_orbit_enumerate_z2():
    part = orbit_enumerate(FiniteAbelianGroup((2,)), 1)
    assert len(part.orbits) == 1
    assert part.tuple_count == 1


def test_orbit_enumerate_z5_squared():
    part = orbit_enumerate(FiniteAbelianGroup((5, 5)), 2)
    assert part.tuple_count == 480
    assert sorted(len(m) for _, m in part.orbits) == [240, 240]


def test_orbit_enumerate_respects_bound():
    # 1009^2 tuples exceed the cap of 10^6 before any is built
    with pytest.raises(ValueError, match="exceeds"):
        orbit_enumerate(FiniteAbelianGroup((1009,)), 2)


def test_orbit_members_all_generate():
    g = FiniteAbelianGroup((2, 2))
    part = orbit_enumerate(g, 2)
    for _, members in part.orbits:
        for m in members:
            assert g.generates(m)


def test_orbit_ids_are_minimal_members():
    for factors, n in (((5,), 1), ((5, 5), 2), ((2, 2), 2)):
        part = orbit_enumerate(FiniteAbelianGroup(factors), n)
        for oid, members in part.orbits:
            assert oid == min(members)
            assert members == tuple(sorted(members))


def test_determinant_invariant_examples():
    g = FiniteAbelianGroup((5, 5))
    assert _unit_determinant_class(g, ((1, 0), (0, 1))) == (1, 4)
    assert _unit_determinant_class(g, ((2, 0), (0, 1))) == (2, 3)
    # a pair that does not generate has determinant 0, no unit
    assert not g.generates(((1, 0), (2, 0)))
    assert _unit_determinant_class(g, ((1, 0), (2, 0))) is None


def test_determinant_invariant_shape_errors():
    # composite moduli are allowed; mixed factors are not
    assert _unit_determinant_class(FiniteAbelianGroup((4,)), ((1,),)) == (1, 3)
    with pytest.raises(ValueError):
        _unit_determinant_class(FiniteAbelianGroup((2, 4)), ((1, 0), (0, 1)))
    g = FiniteAbelianGroup((5,))
    assert g.generates(((1,), (2,)))
    with pytest.raises(ValueError):
        _unit_determinant_class(g, ((1,), (2,)))


def test_determinant_matches_orbits_exhaustively():
    g = FiniteAbelianGroup((5, 5))
    part = orbit_enumerate(g, 2)
    for oid, members in part.orbits:
        classes = {_unit_determinant_class(g, m) for m in members}
        assert len(classes) == 1 and None not in classes
    ids = [_unit_determinant_class(g, oid) for oid, _ in part.orbits]
    assert len(set(ids)) == len(ids)


def test_orbits_invariant_under_coordinate_relabeling():
    g = FiniteAbelianGroup((5, 5))
    part = orbit_enumerate(g, 2)

    def relabel(t):
        return tuple((e[1], e[0]) for e in t)

    lookup = part.orbit_of
    for oid, members in part.orbits:
        images = {lookup[relabel(m)] for m in members}
        assert len(images) == 1


def test_connect_tuples_replay():
    g = FiniteAbelianGroup((5, 5))
    start = ((1, 0), (0, 1))
    target = ((0, 1), (4, 0))
    path = connect_tuples(g, start, target)
    assert path is not None
    current = start
    from multisect.nielsen import _move_elements
    for move in path:
        current = _move_elements(g, current, move)
    assert current == target


def test_connect_tuples_separated():
    g = FiniteAbelianGroup((5, 5))
    assert connect_tuples(g, ((1, 0), (0, 1)), ((2, 0), (0, 1))) is None


def test_free_tuple_moves_and_search():
    t = (Word(2, (1,)), Word(2, (2,)))
    assert apply_word_move(t, "mult12")[0].letters == (1, 2)
    assert apply_word_move(t, "conj g1")[1].letters == (1, 2, -1)
    assert apply_word_move(t, "conj g2^-1")[0].letters == (-2, 1, 2)
    path = free_tuple_search(t, (Word(2, (2,)), Word(2, (1,))), 2)
    assert path == ("swap12",) or path == ("cycle",)
    unreachable = free_tuple_search((Word(2, (1,)),), (Word(2, (2,)),), 2,
                                    node_limit=500)
    assert unreachable is None
    with pytest.raises(ValueError):
        free_tuple_search((Word(2, (1,)),), (Word(3, (1,)),), 2)


def _word_level_search(t1, t2, rank, node_limit):
    """The free-word search on Word values, one Word per entry per node:
    the oracle for the letter-tuple search.  Returns the path (or None)
    and the parent map of the search (None when the tuples are equal)."""
    if t1 == t2:
        return (), None
    conjugators = {f"conj g{k}{tag}": (Word(rank, (s * k,)), Word(rank, (-s * k,)))
                   for k in range(1, rank + 1) for s, tag in ((1, ""), (-1, "^-1"))}
    moves = _moves_for(len(t1)) + tuple(conjugators)
    limit_len = max(sum(len(w) for w in t1), sum(len(w) for w in t2)) + 4

    def step(t, move):
        if move in conjugators:
            c, c_inv = conjugators[move]
            nxt = tuple(c * w * c_inv for w in t)
        else:
            nxt = apply_word_move(t, move)
        return nxt if sum(len(w) for w in nxt) <= limit_len else None

    parents, found = _search(t1, moves, step, goal=t2, node_limit=node_limit)
    return (_path(parents, t2) if found else None), parents


def _word_strategy(rank):
    letters = [k for k in range(-rank, rank + 1) if k]
    return st.lists(st.sampled_from(letters), max_size=4).map(
        lambda letters: Word(rank, tuple(letters)))


@st.composite
def _search_cases(draw):
    rank = draw(st.integers(1, 4))
    width = draw(st.integers(1, 3))
    word = _word_strategy(rank)
    t1 = tuple(draw(word) for _ in range(width))
    if draw(st.booleans()):
        # a tuple in reach: a few moves away from t1
        moves = _moves_for(width) + tuple(f"conj g{k}{tag}" for k in range(1, rank + 1)
                                          for tag in ("", "^-1"))
        t2 = t1
        for move in draw(st.lists(st.sampled_from(moves), max_size=5)):
            t2 = apply_word_move(t2, move)
    else:
        t2 = tuple(draw(word) for _ in range(width))
    return t1, t2, rank, draw(st.integers(1, 4000))


@settings(max_examples=150, deadline=None)
@given(_search_cases())
def test_letter_tuple_search_matches_the_word_level_search(case):
    t1, t2, rank, node_limit = case
    expected, oracle_parents = _word_level_search(t1, t2, rank, node_limit)
    captured = []

    def capture(*args, **kwargs):
        result = _search(*args, **kwargs)
        captured.append(result[0])
        return result

    with patch.object(multisect.nielsen, "_search", capture):
        path = free_tuple_search(t1, t2, rank, node_limit)
    assert path == expected
    if oracle_parents is None:
        assert captured == []
        return
    # the same nodes, entered in the same order from the same parents
    (parents,) = captured

    def letters(node):
        return tuple(w.letters for w in node)

    assert list(parents.items()) == [
        (letters(node), None if entry is None else (letters(entry[0]), entry[1]))
        for node, entry in oracle_parents.items()]
    if path is not None:
        current = t1
        for move in path:
            current = apply_word_move(current, move)
        assert current == t2


def test_search_builds_no_word_per_node(monkeypatch):
    built = []
    post_init = Word.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    sizes = []

    def sized_search(*args, **kwargs):
        result = _search(*args, **kwargs)
        sizes.append(len(result[0]))
        return result

    t1 = (Word(3, (1,)), Word(3, (2,)), Word(3, (3,)))
    t2 = (Word(3, (1, 1)), Word(3, (2,)), Word(3, (3,)))  # not a basis: out of reach
    monkeypatch.setattr(multisect.nielsen, "_search", sized_search)
    monkeypatch.setattr(Word, "__post_init__", counting)
    assert free_tuple_search(t1, t2, 3, node_limit=4000) is None
    assert sizes and sizes[0] >= 4000
    assert len(built) < 50


def test_spine_tuples_lens(lens21_bisection):
    assert [w.letters for w in spine_tuple(lens21_bisection, 1)] == [(1,)]
    assert [w.letters for w in spine_tuple(lens21_bisection, 2)] == [(2,)]


def test_spine_tuple_double_matches_bisection(lens21_bisection):
    from multisect.constructions import double_bisection
    d4 = double_bisection(lens21_bisection)
    assert spine_tuple(d4, 1) == spine_tuple(lens21_bisection, 1)


def test_spine_tuple_needs_tracked_inverse():
    surf = SurfaceModel(1)
    from multisect.words import FreeAutomorphism
    bare_std = FreeAutomorphism(2, identity_automorphism(2).images)
    system = CutSystem(surf, (Word(2, (1,)),), bare_std, "a")
    other = CutSystem(surf, (Word(2, (1,)),), bare_std, "b")
    third = CutSystem(surf, (Word(2, (1,)),), bare_std, "c")
    d = MultisectionDiagram(surf, (system, other, third), False, (1, 1))
    with pytest.raises(DiagramError):
        spine_tuple(d, 1)


@pytest.mark.parametrize("p,q", [(5, 2), (7, 3), (8, 3)])
def test_spine_tuple_reads_the_second_side_without_a_tracked_inverse(p, q):
    # alpha without its inverse block: sector (1, 2) is read from side
    # (2, 1), whose free basis is another one of the same Nielsen class
    b = bisection_from_heegaard(lens_diagram(p, q))
    assert [format_word(w) for w in spine_tuple(b, 1)] == ["g1"]
    assert [format_word(w) for w in spine_tuple(untracked(b, 1), 1)] == ["g2"]
    assert flip_check(untracked(b, 1)).verdict == flip_check(b).verdict == "distinct"


def test_distinguish_synthetic_pair():
    p = GroupPresentation(2, (Word(2, (1, 2, -1, -2)),
                              Word(2, (1,) * 5), Word(2, (2,) * 5)))
    t1 = (Word(2, (1,)), Word(2, (2,)))
    t2 = (Word(2, (1,)), Word(2, (2, 2)))
    cert = distinguish(p, t1, t2)
    assert cert.verdict == "distinct"
    assert cert.quotient.invariant_factors == (5, 5)
    assert cert.replay()
    assert "quotient" in format_certificate(cert)


def test_distinguish_equal_tuples():
    p = GroupPresentation(1, (Word(1, (1,) * 5),))
    cert = distinguish(p, (Word(1, (1,)),), (Word(1, (1,)),))
    assert cert.verdict == "same_orbit"
    assert cert.moves == ()
    assert cert.replay()


def test_distinguish_inverse_tuple():
    p = GroupPresentation(1, (Word(1, (1,) * 5),))
    cert = distinguish(p, (Word(1, (1,)),), (Word(1, (-1,)),))
    assert cert.verdict == "same_orbit"
    assert cert.moves == ("invert1",)
    assert cert.replay()


def test_distinguish_shape_mismatch():
    p = GroupPresentation(1, ())
    with pytest.raises(ValueError):
        distinguish(p, (Word(1, (1,)),), (Word(1, (1,)), Word(1, (1,))))


def test_distinguish_rejects_non_generating():
    p = GroupPresentation(2, (Word(2, (1, 2, -1, -2)),))
    with pytest.raises(ValueError):
        distinguish(p, (Word(2, (1,)), Word(2, (1,))),
                    (Word(2, (1,)), Word(2, (2,))))


def test_distinguish_small_bound_inconclusive():
    p = GroupPresentation(2, (Word(2, (1, 2, -1, -2)),
                              Word(2, (1,) * 5), Word(2, (2,) * 5)))
    t1 = (Word(2, (1,)), Word(2, (2,)))
    t2 = (Word(2, (1,)), Word(2, (2, 2)))
    cert = distinguish(p, t1, t2, bound=20)
    assert cert.verdict == "inconclusive"


def test_flip_check_lens(lens21_bisection):
    cert = flip_check(lens21_bisection)
    assert cert.verdict in ("same_orbit", "inconclusive")


@pytest.mark.parametrize("p,q,expected", [
    (3, 2, "same_orbit"),    # 2 = -1 mod 3: the sector spines swap
    (5, 2, "distinct"),      # 2 is not +-1 mod 5: no isotopy flips them
    (7, 2, "distinct"),
    (7, 4, "distinct"),
    (7, 6, "same_orbit"),    # 6 = -1 mod 7
])
def test_flip_check_detects_non_flippable_bisections(p, q, expected):
    # the two sector spines of the lens bisection carry x and x^q; the
    # 1-tuple orbits of Z/p are {a, -a}, so flipping is obstructed
    # exactly when q is not +-1 mod p
    from multisect.constructions import bisection_from_heegaard, lens_diagram
    cert = flip_check(bisection_from_heegaard(lens_diagram(p, q)))
    assert cert.verdict == expected
    assert cert.replay()


def test_compare_sectors_applies_the_same_group_rule_to_two_diagrams(monkeypatch):
    b = bisection_from_heegaard(lens_diagram(5, 2))
    rule = []

    def counting(p, q):
        rule.append((p, q))
        return multisect.presentations.same_relators(p, q)

    monkeypatch.setattr(multisect.nielsen, "same_relators", counting)
    # one diagram needs no same-group rule: flip_check is its n = 2 case
    assert flip_check(b) == compare_sectors(b, 1, b, 2)
    assert rule == []
    assert compare_sectors(b, 1, double_bisection(b), 2) == flip_check(b)
    assert len(rule) == 1
    other = bisection_from_heegaard(lens_diagram(3, 1))
    with pytest.raises(DiagramError, match="^the diagrams present different groups"):
        compare_sectors(b, 1, other, 1)


def test_compare_sectors_refuses_sectors_of_different_ranks():
    from multisect.constructions import (auto_cap, bisection_from_trisection, cap_off,
                                         glue_bisections, merge_adjacent_sectors)
    h = lens_diagram(2, 1)
    merged = merge_adjacent_sectors(cap_off(glue_bisections(h, 1), auto_cap(h, 1)), 3)
    b = bisection_from_trisection(merged, 1)
    assert b.claimed_types == (2, 1)
    with pytest.raises(DiagramError, match=r"^sector 1 has rank 2 and sector 2 rank 1; "
                                           "spine tuples of different ranks"):
        flip_check(b)


def test_flip_check_equal_sectors():
    surf = SurfaceModel(1)
    mk = lambda label: CutSystem(surf, (Word(2, (1,)),),
                                 identity_automorphism(2), label)
    d = MultisectionDiagram(surf, (mk("a"), mk("b"), mk("c")), False, (1, 1))
    cert = flip_check(d)
    assert cert.verdict == "same_orbit"
    assert cert.moves == ()


def test_flip_check_synthetic_diagramless_pair():
    # the headline separation, stated on tuples (no fabricated diagram):
    p = GroupPresentation(2, (Word(2, (1, 2, -1, -2)),
                              Word(2, (1,) * 5), Word(2, (2,) * 5)))
    cert = distinguish(p, (Word(2, (1,)), Word(2, (2,))),
                       (Word(2, (1,)), Word(2, (2, 2))))
    assert cert.verdict == "distinct"


def test_certificate_replay_rejects_tampering():
    p = GroupPresentation(1, (Word(1, (1,) * 5),))
    cert = distinguish(p, (Word(1, (1,)),), (Word(1, (-1,)),))
    tampered = NielsenCertificate("same_orbit", cert.presentation, cert.tuple1,
                                  (Word(1, (1, 1)),), moves=cert.moves)
    assert not tampered.replay()


def _free_pair():
    return GroupPresentation(2, ()), (Word(2, (1,)), Word(2, (2,)))


@pytest.mark.parametrize("move", ["bogus", "conj", "conj g9"])
def test_same_orbit_replay_of_a_malformed_move_is_false(move):
    p, t = _free_pair()
    assert not NielsenCertificate("same_orbit", p, t, t, moves=(move,)).replay()


_CONJUGATORS = {"conj g1 g2": (1, 2), "conj 1": (), "conj  g1": (1,), "conj g1^-1 g1": (-1, 1)}


@pytest.mark.parametrize("move", list(_CONJUGATORS))
def test_conjugation_by_anything_but_one_letter_is_refused(move):
    p, t = _free_pair()
    with pytest.raises(ValueError, match="not conjugation by one generator letter"):
        apply_word_move(t, move)
    # the tuple that conjugating by the whole word would give; the word's
    # letters are listed, as two of these texts are not in the word grammar
    c = Word(2, _CONJUGATORS[move])
    conjugated = tuple(c * w * c.inverse() for w in t)
    assert not NielsenCertificate("same_orbit", p, t, conjugated, moves=(move,)).replay()


def test_same_orbit_replay_of_a_move_too_wide_for_the_tuple_is_false():
    p, t = _free_pair()
    assert not NielsenCertificate("same_orbit", p, t[:1], t[:1],
                                  moves=("swap12",)).replay()
    assert not NielsenCertificate("same_orbit", p, (), (), moves=("cycle",)).replay()


def test_replay_of_an_unknown_verdict_is_false():
    p, t = _free_pair()
    assert not NielsenCertificate("bogus", p, t, t).replay()
    assert NielsenCertificate("inconclusive", p, t, t).replay()


def test_distinguish_refuses_free_rank_above_the_tuple_width():
    # three generators, no relators: H1 = Z^3 has no generating pair
    p = GroupPresentation(3, ())
    t = (Word(3, (1,)), Word(3, (2,)))
    with pytest.raises(ValueError, match="tuple does not generate the abelianization"):
        distinguish(p, t, t)


def test_randomized_certificate_soundness():
    rng = random.Random(99)
    groups = [FiniteAbelianGroup((5,)), FiniteAbelianGroup((7,)),
              FiniteAbelianGroup((3, 3)), FiniteAbelianGroup((5, 5))]
    checked = 0
    for _ in range(200):
        g = rng.choice(groups)
        n = g.rank
        elements = list(g.elements())
        while True:
            t1 = tuple(rng.choice(elements) for _ in range(n))
            if g.generates(t1):
                break
        t2 = t1
        for _ in range(rng.randint(0, 6)):
            move = rng.choice([m for m in MOVES
                               if n >= 2 or m in ("cycle", "invert1")])
            t2 = _move_elements(g, t2, move)
        path = connect_tuples(g, t1, t2)
        assert path is not None
        current = t1
        for move in path:
            current = _move_elements(g, current, move)
        assert current == t2
        checked += 1
    assert checked == 200


# ---------------------------------------------------------------------------
# the closed form against the exhaustive quotient x orbit sweep


def _abelian_presentation(*orders):
    """Z/d_1 x ... x Z/d_r, with 0 for a free factor Z."""
    r = len(orders)
    relators = [Word(r, (i, j, -i, -j)) for i in range(1, r + 1)
                for j in range(i + 1, r + 1)]
    relators += [Word(r, (i,) * d) for i, d in enumerate(orders, 1) if d]
    return GroupPresentation(r, tuple(relators))


def _words(rank, *letter_tuples):
    return tuple(Word(rank, letters) for letters in letter_tuples)


def _sweep_verdict(pres, t1, t2, bound):
    """Reference verdict: every abelian group of order at most ``bound``
    and rank at most n, every surjection onto it, and its move-orbits of
    generating n-tuples; then the free-word search."""
    n = len(t1)
    ab = abelianization(pres)
    for group in enumerate_abelian_groups(bound, max_rank=n):
        if ab.free_rank == 0 and prod(ab.torsion) % group.order:
            continue  # no surjection onto a group whose order does not divide |H1|
        surjections = enumerate_finite_abelian_quotients(pres, [group])
        if not surjections:
            continue
        orbit_of = orbit_enumerate(group, n).orbit_of
        for q in surjections:
            if (orbit_of[tuple(map(q.evaluate, t1))]
                    != orbit_of[tuple(map(q.evaluate, t2))]):
                return "distinct"
    return "inconclusive" if free_tuple_search(t1, t2, pres.generator_count) is None \
        else "same_orbit"


SWEEP_CASES = [
    # (orders, tuple1, tuple2, bound); orders 0 is a free factor Z
    ((5, 5), ((1,), (2,)), ((1,), (2, 2)), 25),
    ((5, 5), ((1,), (2,)), ((1,), (2,) * 4), 25),
    ((8, 8), ((1,), (2,)), ((1,), (2,) * 3), 64),       # composite d1: m = 8
    ((8, 8), ((1,), (2,)), ((1,), (2,) * 3), 20),       # m in {2, 4}: +-1 only
    ((9, 9), ((1,), (2,)), ((1,), (2, 2)), 81),         # composite d1: m = 9
    ((9, 9), ((1,), (2,)), ((1,), (2, 2)), 20),         # m = 3: 2 = -1 mod 3
    ((4, 8), ((1,), (2,)), ((1, 2), (2,) * 3), 32),     # non-elementary, d1 = 4
    ((5, 10), ((1,), (2,)), ((1,), (2,) * 3), 25),      # non-elementary, d1 = 5
    ((5, 0), ((1,), (2,)), ((1, 1), (2,)), 25),         # free factor
    ((5, 0), ((1,), (2,)), ((1, 1), (2,)), 20),
    ((5,), ((1,), (1,)), ((1, 1), (1,)), 25),           # n > r: one orbit
    ((5,), ((1,), ()), ((1, 1), ()), 25),
]


@pytest.mark.parametrize("orders,t1,t2,bound", SWEEP_CASES)
def test_distinguish_matches_the_exhaustive_sweep(orders, t1, t2, bound):
    rank = len(orders)
    cert = distinguish(_abelian_presentation(*orders), _words(rank, *t1),
                       _words(rank, *t2), bound)
    assert cert.replay()
    assert cert.verdict == _sweep_verdict(cert.presentation, cert.tuple1,
                                          cert.tuple2, bound)


def test_distinguish_and_replay_enumerate_nothing(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("enumeration called")

    for module, name in ((multisect.abelian, "enumerate_abelian_groups"),
                         (multisect.presentations, "enumerate_finite_abelian_quotients"),
                         (multisect.nielsen, "enumerate_abelian_groups"),
                         (multisect.nielsen, "enumerate_finite_abelian_quotients"),
                         (multisect.nielsen, "orbit_enumerate"),
                         (multisect.nielsen, "connect_tuples"),
                         (FiniteAbelianGroup, "generates"),
                         (FiniteAbelianGroup, "subgroup_generated")):
        monkeypatch.setattr(module, name, forbidden, raising=False)
    p = _abelian_presentation(5, 5)
    for t2, verdict in ((((1,), (2, 2)), "distinct"),
                        (((1,), (2,) * 4), "inconclusive")):
        cert = distinguish(p, _words(2, (1,), (2,)), _words(2, *t2))
        assert cert.verdict == verdict
        assert cert.replay()


@st.composite
def _independent_pairs(draw):
    """Two tuples of one rank and width, drawn independently, so that
    their free Smith forms differ often enough for the filter below."""
    rank = draw(st.integers(1, 4))
    width = draw(st.integers(1, 3))
    pair = st.lists(_word_strategy(rank), min_size=width, max_size=width).map(tuple)
    return draw(pair), draw(pair), rank


@settings(max_examples=60, deadline=None)
@given(_independent_pairs())
def test_free_search_never_connects_tuples_of_different_free_smith_forms(case):
    # a search that reaches the goal within fewer nodes reaches it within
    # more, so None at the default limit is None at every limit below it
    t1, t2, rank = case
    assume(_free_smith_diagonal(t1, rank) != _free_smith_diagonal(t2, rank))
    assert free_tuple_search(t1, t2, rank, DEFAULT_SEARCH_NODES) is None


def test_free_abelianization_skips_the_search_on_unreachable_pairs(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return _search(*args, **kwargs)

    monkeypatch.setattr(multisect.nielsen, "_search", counting)
    z3, z5 = _abelian_presentation(3, 3, 3), _abelian_presentation(5, 5)
    flip = bisection_from_heegaard(connected_sum(lens_diagram(7, 2), lens_diagram(7, 3)))
    certs = [
        distinguish(z3, _words(3, (1,), (2,), (3,)), _words(3, (1,), (2,), (3, 3)), 30),
        distinguish(z5, _words(2, (1,), (2,)), _words(2, (1,), (2,) * 4)),
        flip_check(flip),
    ]
    assert calls == []
    for cert in certs:
        assert cert.verdict == "inconclusive" and cert.moves is None
        assert cert.replay()
        assert "free search not run: exponent-sum Smith forms" in cert.searched
    assert certs[1].searched.endswith("diag(1, 1) and diag(1, 4) differ")
    # equal forms still search: the golden same_orbit pair
    cert = distinguish(z5, _words(2, (1,), (2,)), _words(2, (1,), (1, 2, -1)))
    assert len(calls) == 1
    assert cert.verdict == "same_orbit" and cert.moves == ("conj g1",)
    assert cert.searched.endswith(f"free search up to {DEFAULT_SEARCH_NODES} nodes")


@pytest.mark.parametrize("m", [4, 6, 8, 9])
@pytest.mark.parametrize("n", [1, 2])
def test_determinant_classes_are_the_orbits_for_composite_moduli(m, n):
    group = FiniteAbelianGroup((m,) * n)
    classes = [{_unit_determinant_class(group, t) for t in members}
               for _, members in orbit_enumerate(group, n).orbits]
    assert all(len(c) == 1 and None not in c for c in classes)
    assert len({c.pop() for c in classes}) == len(classes)


def test_distinct_past_the_former_orbit_cap():
    # 625^4 candidate 4-tuples in (Z/5)^4, far past the 10^6 cap of
    # orbit_enumerate; one determinant per tuple decides the comparison
    p = _abelian_presentation(5, 5, 5, 5)
    t1 = _words(4, (1,), (2,), (3,), (4,))
    t2 = _words(4, (1,), (2,), (3,), (4, 4))
    start = time.perf_counter()
    cert = distinguish(p, t1, t2, bound=625)
    assert cert.verdict == "distinct"
    assert cert.quotient.invariant_factors == (5,) * 4
    assert (cert.orbit_id1, cert.orbit_id2) == ((1, 4), (2, 3))
    assert cert.replay()
    assert time.perf_counter() - start < 1.0
    assert distinguish(p, t1, t2, bound=624).verdict == "inconclusive"


def test_distinct_replay_checks_each_claim():
    cert = distinguish(_abelian_presentation(5, 5), _words(2, (1,), (2,)),
                       _words(2, (1,), (2, 2)))
    assert cert.verdict == "distinct" and cert.replay()
    z25 = FiniteAbelianGroup((25, 25))
    tampered = [
        # 1: x^5 does not die in (Z/25)^2
        replace(cert, quotient=z25),
        # 1: an extra relator x^2 that the surjection does not kill
        replace(cert, presentation=GroupPresentation(
            2, cert.presentation.relators + (Word(2, (1, 1)),))),
        # 2: both generators onto the first factor, images made to match
        replace(cert, surjection=((1, 0), (2, 0)), image1=((1, 0), (2, 0)),
                image2=((1, 0), (4, 0))),
        # 3: an image that is not the evaluation of its tuple
        replace(cert, image1=((0, 1), (1, 0))),
        replace(cert, image2=((1, 0), (0, 3))),
        # no image for the second generator
        replace(cert, surjection=((1, 0),)),
        # 4: tuple2 = (x, y^4) evaluates into the class of tuple1
        replace(cert, tuple2=_words(2, (1,), (2,) * 4), image2=((1, 0), (0, 4))),
        # 4: determinant classes other than the recorded ones
        replace(cert, orbit_id1=(0,)),
        replace(cert, orbit_id2=(7, 7)),
        # no data at all
        replace(cert, quotient=None),
    ]
    for bad in tampered:
        assert not bad.replay()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(-3, 3).filter(bool), max_size=6),
                min_size=4, max_size=4))
def test_distinguish_rewrites_the_tuples_as_checked_words(letters):
    # g3 is eliminated, so the tuples are rewritten through the images of
    # the simplification, substituted as made words; they must be what
    # Word(...) with every check returns for the substituted letters
    p = GroupPresentation(3, (Word(3, (3, 1, 2)), Word(3, (1,) * 5), Word(3, (2,) * 5)))
    t1 = (Word(3, (1,)), Word(3, (2,)))
    t2 = tuple(Word(3, tuple(ls)) for ls in letters[:2])
    images = [img.letters for img in tietze_simplify(p).generator_images]
    try:
        cert = distinguish(p, t1, t2)
    except ValueError:
        return  # t2 does not generate the abelianization
    for before, rewritten in ((t1, cert.tuple1), (t2, cert.tuple2)):
        assert rewritten == tuple(Word(2, reference_apply_images(images, w.letters))
                                  for w in before)
        assert all(Word(w.rank, w.letters) == w for w in rewritten)
