"""Acceptance gate: one test per criterion, each printing a PASS/FAIL
line (visible with ``pytest -s tests/test_acceptance.py``)."""

import random
import time
from contextlib import contextmanager

import pytest

from multisect.abelian import FiniteAbelianGroup
from multisect.constructions import (MergeRefusedError, auto_cap,
                                     bisection_from_heegaard, cap_off,
                                     double_bisection, glue_bisections,
                                     insert_parallel_sectors, lens_diagram,
                                     merge_adjacent_sectors)
from multisect.diagrams import connected_sum, pi1_of_diagram, validate
from multisect.matrices import smith_normal_form
from multisect.nielsen import (connect_tuples, distinguish, orbit_enumerate,
                               _move_elements, _unit_determinant_class, MOVES)
from multisect.presentations import (AbelianInvariants, GroupPresentation,
                                     abelianization, tietze_simplify)
from multisect.words import Word

from test_matrices import minors_gcd_invariant_factors


@contextmanager
def criterion(number, description, limit_seconds):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - started
    assert elapsed < limit_seconds, \
        f"criterion {number} took {elapsed:.2f}s (limit {limit_seconds}s)"
    print(f"ACCEPTANCE {number} PASS: {description} ({elapsed:.2f}s)")


def nsum(h, n):
    out = h
    for _ in range(n - 1):
        out = connected_sum(out, h)
    return out


def test_criterion_1_lens_family_pipeline():
    with criterion(1, "lens family bisections verify exactly", 1.0):
        for p in (2, 3, 5, 7):
            d = bisection_from_heegaard(lens_diagram(p, 1))
            assert d.surface.genus == 2
            assert d.claimed_types == (1, 1)
            report = validate(d, budget=200)
            assert all(v.describe() == "Verified(1)"
                       for _, _, v in report.entries)
            assert report.boundary[1] == AbelianInvariants(0, (p, p))
            assert abelianization(pi1_of_diagram(d)) == \
                AbelianInvariants(0, (p,))


def test_criterion_2_connected_sum_scaling():
    with criterion(2, "connected sums scale with certified minimal genus", 2.0):
        for n in (2, 3):
            d = bisection_from_heegaard(nsum(lens_diagram(5, 1), n))
            assert d.surface.genus == 2 * n
            assert d.claimed_types == (n, n)
            report = validate(d, budget=200)
            assert all(v.describe() == f"Verified({n})"
                       for _, _, v in report.entries)
            bound = d.boundary_invariants.minimal_generators
            assert bound == 2 * n
            assert bound == d.surface.genus  # the minimal genus is certified


def test_criterion_3_doubling():
    with criterion(3, "doubling preserves the group and copies readings", 1.0):
        for n in (1, 2):
            b = bisection_from_heegaard(nsum(lens_diagram(5, 1), n))
            before = abelianization(pi1_of_diagram(b))
            d4 = double_bisection(b)
            assert d4.claimed_types == (n, n, n, n)
            assert d4.surface.genus == 2 * n
            assert abelianization(pi1_of_diagram(d4)) == before
            assert d4.reading_map[(1, 4)] == d4.reading_map[(1, 2)]
            assert validate(d4).ok


def test_criterion_4_sector_insertion():
    with criterion(4, "parallel sector insertion is unbalanced and benign", 1.0):
        d4 = double_bisection(bisection_from_heegaard(lens_diagram(2, 1)))
        genus = d4.surface.genus
        before = abelianization(pi1_of_diagram(d4))
        for c in (1, 2, 3):
            out = insert_parallel_sectors(d4, 2, c)
            assert len(out.systems) == 4 + c
            for k in out.claimed_types[1:1 + c]:
                assert k == genus
            assert abelianization(pi1_of_diagram(out)) == before
            assert validate(out).ok


def test_criterion_5_gluing_capping_merging():
    with criterion(5, "glued chains cap and merge with exact bookkeeping", 5.0):
        h, copies = lens_diagram(2, 1), 2
        chain = glue_bisections(h, copies)
        expected = AbelianInvariants(0, (2,))
        assert abelianization(pi1_of_diagram(chain)) == expected
        assert chain.boundary_invariants == AbelianInvariants(2 * h.genus, ())
        closed = cap_off(chain, auto_cap(h, copies))
        assert len(closed.sector_pairs()) == 6
        assert validate(closed).ok
        assert abelianization(pi1_of_diagram(closed)) == expected
        merged = merge_adjacent_sectors(closed, 3)
        assert len(merged.sector_pairs()) == 2 * copies + 1
        assert validate(merged).ok
        for interface in (1, 2, 4, 5, 6):
            with pytest.raises(MergeRefusedError):
                merge_adjacent_sectors(closed, interface)


def test_criterion_6_orbit_oracle_equivalence():
    with criterion(6, "orbit enumeration matches the determinant oracle", 60.0):
        g55 = FiniteAbelianGroup((5, 5))
        part = orbit_enumerate(g55, 2)
        assert part.tuple_count == 480
        assert sorted(len(m) for _, m in part.orbits) == [240, 240]

        for p in (2, 3, 5, 7):
            for n in (1, 2, 3):
                group = FiniteAbelianGroup((p,) * n)
                if group.order ** n > 10 ** 6:
                    continue
                partition = orbit_enumerate(group, n)
                by_orbit = []
                for oid, members in partition.orbits:
                    classes = {_unit_determinant_class(group, m) for m in members}
                    assert len(classes) == 1 and None not in classes
                    by_orbit.append(next(iter(classes)))
                assert len(set(by_orbit)) == len(by_orbit)


def test_criterion_7_certificate_soundness():
    with criterion(7, "1000 randomized certificate replays, zero failures", 60.0):
        rng = random.Random(20260810)
        replays = 0

        groups = [FiniteAbelianGroup((5,)), FiniteAbelianGroup((7,)),
                  FiniteAbelianGroup((2, 2)), FiniteAbelianGroup((3, 3)),
                  FiniteAbelianGroup((5, 5))]

        def random_generating(group):
            elements = list(group.elements())
            while True:
                t = tuple(rng.choice(elements) for _ in range(group.rank))
                if group.generates(t):
                    return t

        # same-orbit witnesses: scrambles must replay back to equality
        for _ in range(600):
            group = rng.choice(groups)
            t1 = random_generating(group)
            t2 = t1
            for _ in range(rng.randint(0, 6)):
                move = rng.choice([m for m in MOVES
                                   if group.rank >= 2 or m in ("cycle", "invert1")])
                t2 = _move_elements(group, t2, move)
            path = connect_tuples(group, t1, t2)
            assert path is not None
            current = t1
            for move in path:
                current = _move_elements(group, current, move)
            assert current == t2
            replays += 1

        # distinct witnesses: separated images stay in different orbits
        orbit_maps = {p: {m: ident for ident, members in
                          orbit_enumerate(FiniteAbelianGroup((p, p)), 2).orbits
                          for m in members}
                      for p in (5, 7)}
        for _ in range(392):
            p = rng.choice((5, 7))
            group = FiniteAbelianGroup((p, p))
            orbit_of = orbit_maps[p]
            while True:
                t1 = random_generating(group)
                t2 = random_generating(group)
                c1 = _unit_determinant_class(group, t1)
                c2 = _unit_determinant_class(group, t2)
                assert None not in (c1, c2)
                if c1 != c2:
                    break
            assert orbit_of[t1] != orbit_of[t2]
            assert connect_tuples(group, t1, t2) is None
            replays += 1

        # full certificates through the public comparison entry point
        pres = GroupPresentation(2, (Word(2, (1, 2, -1, -2)),
                                     Word(2, (1,) * 5), Word(2, (2,) * 5)))
        for k in (2, 3, 4):
            cert = distinguish(pres, (Word(2, (1,)), Word(2, (2,))),
                               (Word(2, (1,)), Word(2, (2,) * k)))
            if k == 4:
                assert cert.verdict == "same_orbit" or cert.verdict == "inconclusive"
            else:
                assert cert.verdict == "distinct"
            assert cert.replay()
            replays += 1
        p5 = GroupPresentation(1, (Word(1, (1,) * 5),))
        for t2 in ((Word(1, (1,)),), (Word(1, (-1,)),)):
            cert = distinguish(p5, (Word(1, (1,)),), t2)
            assert cert.verdict == "same_orbit"
            assert cert.replay()
            replays += 1
        for k in (2, 3):
            cert = distinguish(p5, (Word(1, (1,)),), (Word(1, (1,) * k),))
            assert cert.verdict == "distinct"
            assert cert.replay()
            replays += 1
        cert = distinguish(pres, (Word(2, (1,)), Word(2, (2,))),
                           (Word(2, (2,)), Word(2, (1,))))
        assert cert.verdict == "same_orbit"
        assert cert.replay()
        replays += 1

        assert replays >= 1000


def test_criterion_8_property_suites():
    with criterion(8, "SNF, Tietze, and word-law property suites", 60.0):
        rng = random.Random(271828)

        for _ in range(100):
            rows = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
            snf = smith_normal_form(rows, 4)  # internally asserts U*A*V = D
            oracle_factors, oracle_rank = minors_gcd_invariant_factors(rows, 4)
            assert list(snf.invariant_factors) == oracle_factors
            assert snf.rank == oracle_rank

        for _ in range(100):
            gens = rng.randint(1, 4)
            relators = []
            for _ in range(rng.randint(0, 4)):
                letters = []
                for _ in range(rng.randint(0, 8)):
                    k = rng.randint(1, gens)
                    letters.append(k if rng.random() < 0.5 else -k)
                relators.append(Word(gens, tuple(letters)))
            pres = GroupPresentation(gens, tuple(relators))
            result = tietze_simplify(pres)
            assert abelianization(result.presentation) == abelianization(pres)
            assert result.invariants == abelianization(pres)

        for _ in range(1000):
            rank = rng.randint(1, 5)
            letters = tuple(rng.choice([k for k in range(-rank, rank + 1) if k])
                            for _ in range(rng.randint(0, 14)))
            w = Word(rank, letters)
            assert Word(w.rank, w.letters) == w
            for x, y in zip(w.letters, w.letters[1:]):
                assert x != -y
            assert w.inverse().inverse() == w
            assert (w * w.inverse()).is_identity()
            assert w.letter_inverse().letter_inverse() == w


def test_criterion_9_synthetic_demonstration_note():
    # The specific minimal-genus splitting pairs from the literature are
    # not reconstructed here; the end-to-end separation runs on a clearly
    # labeled synthetic same-group tuple pair instead (see README).
    with criterion(9, "synthetic same-group pair separates via (Z/5)^2", 10.0):
        pres = GroupPresentation(2, (Word(2, (1, 2, -1, -2)),
                                     Word(2, (1,) * 5), Word(2, (2,) * 5)))
        t1 = (Word(2, (1,)), Word(2, (2,)))
        t2 = (Word(2, (1,)), Word(2, (2, 2)))
        cert = distinguish(pres, t1, t2)
        assert cert.verdict == "distinct"
        assert cert.quotient.invariant_factors == (5, 5)
        group = cert.quotient
        c1 = _unit_determinant_class(group, cert.image1)
        c2 = _unit_determinant_class(group, cert.image2)
        assert {c1, c2} == {(1, 4), (2, 3)}
        assert cert.replay()
