import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

import multisect.presentations
from multisect.abelian import FiniteAbelianGroup, invariant_factor_chains
from multisect.matrices import smith_normal_form
from multisect.presentations import (DEFAULT_TIETZE_BUDGET, AbelianInvariants,
                                     GroupPresentation, SectorVerdict, TietzeResult,
                                     _overlap_reduction, _RelatorIndex, abelianization,
                                     enumerate_finite_abelian_quotients,
                                     format_presentation, parse_presentation,
                                     same_relators, tietze_simplify,
                                     verify_free_of_rank)
from multisect.constructions import (auto_cap, bisection_from_heegaard, cap_off,
                                     double_bisection, glue_bisections,
                                     insert_parallel_sectors, lens_diagram,
                                     merge_adjacent_sectors)
from multisect.diagrams import (connected_sum, pi1_of_diagram, presentation_of_pair,
                                validate)
from multisect.words import (FormatError, Word, _canonical_letters,
                             _cyclic_core, _letters_inverse, _letters_product)
from test_words import reference_apply_images


def pres(gens, *relators):
    return GroupPresentation(gens, tuple(Word(gens, r) for r in relators))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(lambda gens: st.tuples(
    st.just(gens),
    st.lists(st.lists(st.sampled_from([k for k in range(-gens, gens + 1) if k]),
                      max_size=5), max_size=4),
    st.randoms(use_true_random=False))))
def test_same_relators_ignores_order_repeats_identities_rotation_and_inversion(case):
    gens, relators, rng = case
    p = pres(gens, *relators)
    variants = [()]
    for r in p.relators:
        k = rng.randrange(len(r) or 1)
        rotated = r.letters[k:] + r.letters[:k]
        variant = _letters_inverse(rotated) if rng.random() < 0.5 else rotated
        variants += [variant] * rng.randint(1, 2)
    rng.shuffle(variants)
    q = pres(gens, *variants)
    assert same_relators(p, q) and same_relators(q, p)


def test_same_relators_refuses_a_changed_relator():
    # a conjugate and an inverse of one relator, repeated, beside the identity
    p = pres(2, (1, 2, -1, -2), (1, 1))
    assert same_relators(p, pres(2, (-2, 1, 2, -1), (-1, -1), (1, 1), ()))
    assert not same_relators(p, pres(2, (1, 2, -1, -2), (1, 1, 1)))
    assert not same_relators(p, pres(2, (1, 2, -1, -2)))
    assert not same_relators(p, pres(3, (1, 2, -1, -2), (1, 1)))
    assert same_relators(pres(2), pres(2, (), ()))


def test_abelianization_examples():
    assert abelianization(pres(1, (1, 1))) == AbelianInvariants(0, (2,))
    assert abelianization(pres(2)) == AbelianInvariants(2, ())
    # exponent matrix [[2, -2], [2, 2]] has Smith form diag(2, 4)
    p = pres(2, (1, 1, -2, -2), (1, 1, 2, 2))
    assert abelianization(p) == AbelianInvariants(0, (2, 4))


@st.composite
def repetitive_presentations(draw):
    """Relators drawn with repeats from a few words, some with zero rows."""
    gens = draw(st.integers(1, 3))
    letters = st.sampled_from([k for k in range(-gens, gens + 1) if k])
    pool = draw(st.lists(st.lists(letters, max_size=5), min_size=1, max_size=4))
    if gens >= 2:
        pool.append([1, 2, -1, -2])  # a commutator: a zero row
    return pres(gens, *draw(st.lists(st.sampled_from(pool), max_size=8)))


@settings(deadline=None)
@example(pres(0))
@example(pres(2))
@example(pres(0, (), ()))
@example(pres(2, (), (1, -1), (1, 2, -1, -2)))
@example(pres(2, (1, 1), (2, 1, 1, -2), (1, 1), (1, 2, -1, -2)))
@given(repetitive_presentations())
def test_abelianization_equals_the_smith_form_of_every_row(p):
    snf = smith_normal_form([rel.exponent_sums() for rel in p.relators], p.generator_count)
    expected = AbelianInvariants(p.generator_count - snf.rank, snf.invariant_factors)
    assert abelianization(p) == expected


def test_abelian_invariants_validation():
    with pytest.raises(ValueError):
        AbelianInvariants(0, (3, 2))
    with pytest.raises(ValueError):
        AbelianInvariants(-1)


def test_tietze_lens_pipeline_presentation():
    p = pres(2, (1, -2), (1, 1), (-2, -2))
    result = tietze_simplify(p)
    assert result.presentation.generator_count == 1
    assert [r.letters for r in result.presentation.relators] == [(1, 1)]
    assert result.surviving_generators == (1,)
    # the eliminated generator y rewrites to the survivor x
    assert [w.letters for w in result.generator_images] == [(1,), (1,)]


def test_tietze_fixed_point():
    p = pres(1)
    result = tietze_simplify(p)
    assert result.presentation == p
    assert result.steps_used == 0


def test_tietze_generator_elimination():
    p = pres(2, (1,))
    result = tietze_simplify(p)
    assert result.presentation.generator_count == 1
    assert result.presentation.relators == ()
    assert result.surviving_generators == (2,)


def test_tietze_budget_exhaustion_returns_best_effort():
    p = pres(2, (), (), (1, -2))
    result = tietze_simplify(p, budget=1)
    assert result.steps_used == 1
    assert abelianization(result.presentation) == abelianization(p)


def test_verify_free_examples():
    p = pres(2, (2, 2, 1), (-2, -2, -1))
    assert verify_free_of_rank(p, 1).describe() == "Verified(1)"
    p2 = pres(2, (1, -2), ())
    assert verify_free_of_rank(p2, 1).describe() == "Verified(1)"
    p3 = pres(1, (1, 1))
    assert verify_free_of_rank(p3, 1).status == "refuted_by_homology"


def test_verify_free_wrong_rank_refuted():
    p = pres(2)
    assert verify_free_of_rank(p, 1).status == "refuted_by_homology"


def test_verify_free_unknown_never_overclaims():
    # x y x^-1 y^-2 presents a non-free group whose abelianization is Z;
    # no generator occurs once, so the bounded simplifier must give up
    p = pres(2, (1, 2, -1, -2, -2))
    verdict = verify_free_of_rank(p, 1)
    assert verdict.status == "unknown"


def test_verdict_constructor_cross_check():
    with pytest.raises(ValueError):
        SectorVerdict.verified(1, AbelianInvariants(0, (2,)))


def test_quotient_enumeration_examples():
    z5 = FiniteAbelianGroup((5,))
    p = pres(1, (1,) * 5)
    assert len(enumerate_finite_abelian_quotients(p, [z5])) == 4

    z3 = FiniteAbelianGroup((3,))
    p2 = pres(1, (1, 1))
    assert enumerate_finite_abelian_quotients(p2, [z3]) == []

    z55 = FiniteAbelianGroup((5, 5))
    p3 = pres(2, (1, 2, -1, -2), (1,) * 5, (2,) * 5)
    surjections = enumerate_finite_abelian_quotients(p3, [z55])
    assert len(surjections) == 480


def test_quotient_relator_filtering():
    z4 = FiniteAbelianGroup((4,))
    p = pres(1, (1, 1))
    # x has order dividing 2, so no image generates Z/4
    assert enumerate_finite_abelian_quotients(p, [z4]) == []


def test_invariant_factor_chains():
    assert invariant_factor_chains(8) == [(2, 2, 2), (2, 4), (8,)]
    assert invariant_factor_chains(12) == [(2, 6), (12,)]
    assert invariant_factor_chains(1) == []


def test_presentation_text_round_trip():
    p = pres(2, (1, -2), (1, 1))
    text = format_presentation(p)
    assert parse_presentation(text) == p
    with pytest.raises(ValueError):
        parse_presentation("nope")
    for text in ("gens 1_0\n", "gens +2\n", "gens 02\n", "gens 2\ng01 g2\n"):
        with pytest.raises(ValueError):
            parse_presentation(text)


@pytest.mark.parametrize("text, line", [
    ("gens x\n", 1),
    ("gens 2 junk\n", 1),
    ("gens -1\n", 1),
    ("\ngens 2\n\ng1 g3\n", 1),
    ("gens 2\ng1\ng2\ng1 g3\n", 4),
    # relators that would not format back to themselves
    ("gens 1\ng1 g1 g1^-1\n", 2),
    ("gens 2\ng1\ng2 g1 g2^-1\n", 3),
    # the first line at fault, whichever kind of relator fault comes first
    ("gens 2\ng2 g1 g2^-1\ng1 g3\n", 2),
    ("gens 2\ng1 g3\ng2 g1 g2^-1\n", 2),
])
def test_parse_presentation_errors_name_their_line(text, line):
    with pytest.raises(FormatError) as exc:
        parse_presentation(text)
    assert exc.value.line == line


def _random_presentation(rng):
    gens = rng.randint(1, 4)
    relators = []
    for _ in range(rng.randint(0, 4)):
        length = rng.randint(0, 8)
        letters = []
        for _ in range(length):
            k = rng.randint(1, gens)
            letters.append(k if rng.random() < 0.5 else -k)
        relators.append(tuple(letters))
    return pres(gens, *relators)


def test_tietze_preserves_abelianization_100_random():
    rng = random.Random(4711)
    for _ in range(100):
        p = _random_presentation(rng)
        result = tietze_simplify(p)
        assert abelianization(result.presentation) == abelianization(p)


@given(st.integers(2, 30))
def test_chains_multiply_to_order(order):
    for chain in invariant_factor_chains(order):
        prod = 1
        for d in chain:
            prod *= d
        assert prod == order
        for x, y in zip(chain, chain[1:]):
            assert y % x == 0


def cyclically_reduced(rank, letters):
    return Word(rank, tuple(letters)).cyclic_reduce()


letter_lists = st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=9)


def reference_overlap_reduction(relators):
    """The shrink scan with a Word for every rotation, in the same order,
    returning letter tuples as the scan does."""
    for i, r in enumerate(relators):
        if r.is_identity():
            continue
        for j, other in enumerate(relators):
            if i == j or other.is_identity():
                continue
            for sign, base in ((1, other), (-1, other.inverse())):
                letters = base.letters
                for shift in range(len(letters)):
                    rotated = Word(r.rank, letters[shift:] + letters[:shift])
                    candidate = (r * rotated).cyclic_reduce()
                    if len(candidate) < len(r):
                        return i, j, sign, rotated.letters, candidate.letters
    return None


def reference_overlap_scan(relators):
    """The shrink scan over every ordered pair of relators and every
    rotation, on letter tuples: the simplification's scan before it
    kept per-generator indexes."""
    for i, r in enumerate(relators):
        if not r:
            continue
        inv_first, inv_last = -r[0], -r[-1]
        for j, other in enumerate(relators):
            if i == j or not other:
                continue
            for sign, s in ((1, other), (-1, _letters_inverse(other))):
                for shift in range(len(s)):
                    if s[shift] != inv_last and s[shift - 1] != inv_first:
                        continue
                    rotation = s[shift:] + s[:shift]
                    shorter = _cyclic_core(_letters_product(r, rotation))
                    if len(shorter) < len(r):
                        return i, j, sign, rotation, shorter
    return None


@given(st.lists(letter_lists, max_size=6))
def test_overlap_scan_chooses_what_word_arithmetic_chooses(relator_letters):
    relators = [cyclically_reduced(3, letters) for letters in relator_letters]
    letters = [r.letters for r in relators]
    expected = reference_overlap_reduction(relators)
    assert reference_overlap_scan(letters) == expected
    assert _overlap_reduction(_RelatorIndex(letters)) == expected


def test_wrong_elimination_substitution_fails_the_row_check(monkeypatch):
    original = multisect.presentations._solve_for

    def wrong(g, rel):
        image = original(g, rel)
        return image + image

    monkeypatch.setattr(multisect.presentations, "_solve_for", wrong)
    # eliminating y through x y^-1 must substitute x for y in x^2 y^2
    with pytest.raises(AssertionError, match="eliminate generator"):
        tietze_simplify(pres(2, (1, -2), (1, 1, 2, 2)))


def test_eliminated_letter_left_behind_fails_the_renumbering(monkeypatch):
    original = multisect.presentations._solve_for

    def wrong(g, rel):
        # y -> y x y^-1 has the right exponent row, so only the final
        # renumbering can see the y it leaves behind
        return (g,) + original(g, rel) + (-g,)

    monkeypatch.setattr(multisect.presentations, "_solve_for", wrong)
    with pytest.raises(AssertionError, match="renumber generators: relator"):
        tietze_simplify(pres(2, (1, -2), (1, 1, 2, 2)))
    # with no relator left to hold it, the generator images still do
    with pytest.raises(AssertionError, match="renumber generators: image"):
        tietze_simplify(pres(2, (1, -2)))


def test_wrong_renumbering_fails_the_row_check(monkeypatch):
    original = multisect.presentations._renumbered

    def swapped(letters, number, what):
        # the survivors renamed in reverse order
        return original(letters, {k: len(number) + 1 - v for k, v in number.items()}, what)

    monkeypatch.setattr(multisect.presentations, "_renumbered", swapped)
    # nothing to eliminate or shrink; x^2 y^3 has a row that tells x from y
    with pytest.raises(AssertionError, match="renumber generators: relator"):
        tietze_simplify(pres(2, (1, 1, 2, 2, 2)))


def test_wrong_shrink_word_fails_the_row_check(monkeypatch):
    original = multisect.presentations._overlap_reduction

    def wrong(index):
        found = original(index)
        if found is None:
            return None
        i, j, sign, rotation, shorter = found
        return i, j, sign, rotation, shorter + (1,)

    monkeypatch.setattr(multisect.presentations, "_overlap_reduction", wrong)
    # no generator occurs once; x y x^-1 y^-1 x shrinks by the commutator
    p = pres(2, (1, 2, -1, -2), (1, 2, -1, -2, 1, 1, 2, 2))
    with pytest.raises(AssertionError, match="shrink relator"):
        tietze_simplify(p)


def test_shrink_must_be_the_product_it_claims(monkeypatch):
    original = multisect.presentations._overlap_reduction

    def wrong(index):
        found = original(index)
        if found is None:
            return None
        i, j, sign, rotation, shorter = found
        # another rotation: the exponent row still matches, the letters do not
        return i, j, sign, rotation[1:] + rotation[:1], shorter

    monkeypatch.setattr(multisect.presentations, "_overlap_reduction", wrong)
    p = pres(2, (1, 2, -1, -2), (1, 2, -1, -2, 1, 1, 2, 2))
    with pytest.raises(AssertionError, match="not the cyclically reduced product"):
        tietze_simplify(p)


def test_wrong_dedup_key_fails_the_duplicate_check(monkeypatch):
    original = _canonical_letters

    def merged(letters):
        # x y^2 takes the key of x^2 y, which has other exponent sums
        return original((1, 1, 2) if letters == (1, 2, 2) else letters)

    monkeypatch.setattr(multisect.presentations, "_canonical_letters", merged)
    with pytest.raises(AssertionError, match="drop duplicate relator"):
        tietze_simplify(pres(2, (1, 1, 2), (1, 2, 2)))


def test_tietze_checks_read_letters_linear_in_the_input(monkeypatch):
    # each check reads the words a move touches, never a row of the
    # generator count, so doubling the genus doubles the letters read
    read = []
    original = multisect.presentations._balanced

    def counting(letters):
        read[-1] += len(letters)
        return original(letters)

    monkeypatch.setattr(multisect.presentations, "_balanced", counting)
    base = lens_diagram(5, 1)
    for q in (2, 3, 4):
        base = connected_sum(base, lens_diagram(5, q))
    for copies in (15, 30, 60):  # central genus 120, 240 and 480
        h = base
        for _ in range(copies - 1):
            h = connected_sum(h, base)
        p = pi1_of_diagram(double_bisection(bisection_from_heegaard(h)))
        read.append(0)
        tietze_simplify(p)
        assert 0 < read[-1] <= 4 * sum(len(rel.letters) for rel in p.relators)
    assert all(large <= 2.2 * small for small, large in zip(read, read[1:])), read


def test_tietze_builds_words_only_for_its_result(monkeypatch):
    h = lens_diagram(5, 2)
    for _ in range(29):
        h = connected_sum(h, lens_diagram(5, 2))
    p = pi1_of_diagram(bisection_from_heegaard(h))
    calls = []
    original = Word.__post_init__

    def counting(self):
        calls.append(None)
        original(self)

    monkeypatch.setattr(Word, "__post_init__", counting)
    result = tietze_simplify(p)
    assert (p.generator_count, len(p.relators), result.steps_used) == (60, 120, 90)
    assert len(calls) <= 1500


def test_tietze_invariants_come_without_a_second_snf(monkeypatch):
    calls = []
    original = multisect.presentations.smith_normal_form

    def counting(rows, cols):
        calls.append(rows)
        return original(rows, cols)

    monkeypatch.setattr(multisect.presentations, "smith_normal_form", counting)
    free = tietze_simplify(pres(3, (1, 2), (2, -3, 1)))
    assert free.presentation.relators == ()
    assert free.invariants == AbelianInvariants(1, ())
    assert calls == []
    cyclic = tietze_simplify(pres(2, (1, -2), (1, 1, 1), (2, 2, 2)))
    assert cyclic.invariants == AbelianInvariants(0, (3,))
    assert len(calls) == 1  # of the simplified one-relator matrix


def _reference_elimination_images(gens, gen, replacement):
    images = [(k if k < gen else k - 1,) for k in range(1, gens + 1)]
    images[gen - 1] = reference_apply_images(images, replacement)
    return images


def _reference_eliminated_row(row, pivot, g):
    factor = row[g - 1] * pivot[g - 1]
    if not factor:
        return row[:g - 1] + row[g:]
    return tuple(x - factor * p for k, (x, p) in enumerate(zip(row, pivot))
                 if k != g - 1)


def reference_tietze_simplify(p, budget=DEFAULT_TIETZE_BUDGET):
    """Tietze simplification that renumbers the generators and rewrites
    every relator after each elimination, as an independent oracle."""
    gens = p.generator_count
    relators = [rel.letters for rel in p.relators]
    rows = [rel.exponent_sums() for rel in p.relators]
    survivors = list(range(1, gens + 1))
    images = [(k,) for k in survivors]
    trace = []
    steps = 0
    progress = True
    while progress and steps < budget:
        progress = False
        kept = []
        for rel, row in zip(relators, rows):
            if not rel and steps < budget:
                steps += 1
                trace.append("drop empty relator")
                progress = True
            else:
                kept.append((rel, row))
        seen = set()
        deduped = []
        for rel, row in kept:
            key = _canonical_letters(rel)
            if key in seen and steps < budget:
                steps += 1
                trace.append("drop duplicate relator")
                progress = True
            else:
                seen.add(key)
                deduped.append((rel, row))
        relators = [rel for rel, _ in deduped]
        rows = [row for _, row in deduped]
        candidate = None
        for ridx, rel in enumerate(relators):
            for g, n in Counter(map(abs, rel)).items():
                if n == 1 and (candidate is None or g > candidate[0]):
                    candidate = (g, ridx)
        if candidate is not None and steps < budget:
            steps += 1
            g, ridx = candidate
            rel = relators[ridx]
            pivot = rows[ridx]
            pos = next(i for i, lt in enumerate(rel) if abs(lt) == g)
            rest = rel[pos + 1:] + rel[:pos]
            replacement = _letters_inverse(rest) if rel[pos] > 0 else rest
            substitution = _reference_elimination_images(gens, g, replacement)
            relators = [_cyclic_core(reference_apply_images(substitution, r))
                        for i, r in enumerate(relators) if i != ridx]
            rows = [_reference_eliminated_row(row, pivot, g)
                    for i, row in enumerate(rows) if i != ridx]
            for r, row in zip(relators, rows):
                assert Word(gens - 1, r).exponent_sums() == row
            images = [reference_apply_images(substitution, w) for w in images]
            trace.append(f"eliminate generator g{survivors.pop(g - 1)}")
            gens -= 1
            progress = True
            continue
        shrink = reference_overlap_scan(relators)
        if shrink is not None and steps < budget:
            steps += 1
            ridx, other, sign, _, shorter = shrink
            relators[ridx] = shorter
            rows[ridx] = tuple(x + sign * y for x, y in zip(rows[ridx], rows[other]))
            trace.append("shrink relator by a conjugate")
            progress = True
    assert steps == len(trace)  # the library counts its steps by its trace
    return TietzeResult(GroupPresentation(gens, tuple(Word(gens, r) for r in relators)),
                        tuple(trace), tuple(survivors),
                        tuple(Word(gens, w) for w in images))


@st.composite
def small_presentations(draw):
    """Up to 8 generators and 12 relators, each over a window of at most
    four consecutive generators, so that relators share generators, with
    rotated or inverted copies of some relators among them, so that
    duplicates turn up before and after moves."""
    gens = draw(st.integers(0, 8))
    relators = []
    for _ in range(draw(st.integers(0, 12 if gens else 0))):
        low = draw(st.integers(1, gens))
        window = [k for g in range(low, min(low + 3, gens) + 1) for k in (g, -g)]
        letters = draw(st.lists(st.sampled_from(window), max_size=8))
        relators.append(cyclically_reduced(gens, letters).letters)
    for source, shift, invert in draw(st.lists(st.tuples(
            st.integers(0, 11), st.integers(0, 7), st.booleans()), max_size=4)):
        if source < len(relators) and len(relators) < 12:
            r = relators[source]
            r = r[shift % len(r):] + r[:shift % len(r)] if r else r
            relators.insert(draw(st.integers(0, len(relators))),
                            _letters_inverse(r) if invert else r)
    return GroupPresentation(gens, tuple(Word(gens, r) for r in relators))


@settings(max_examples=600, deadline=None)
@given(small_presentations(), st.sampled_from([1, 2, 3, 5, DEFAULT_TIETZE_BUDGET]))
# after two eliminations g2 g3 g2 g3 g2 does not shrink, but it does by
# the other relator left once two shrinks have rewritten that one: a
# rewrite must make every relator that may now shrink by it due again
@example(pres(4, (2, -4, -4), (1, 1), (-2, -3, -4), (1, 2, -4, -3)), DEFAULT_TIETZE_BUDGET)
def test_tietze_agrees_with_the_renumber_every_step_oracle(p, budget):
    assert tietze_simplify(p, budget) == reference_tietze_simplify(p, budget)


def test_tietze_agrees_with_the_oracle_on_sector_pairs():
    h = lens_diagram(5, 2)
    for q in (1, 3, 4, 2, 1):
        h = connected_sum(h, lens_diagram(5, q))
    d = double_bisection(bisection_from_heegaard(h))
    presentations = [pi1_of_diagram(d), presentation_of_pair(d, 1, 2),
                     presentation_of_pair(d, 2, 3)]
    # the benchmark's genus-4 base lens(5, 1) # ... # lens(5, 4), then the
    # central genus 40 product diagram: double, then two sectors inserted
    base = lens_diagram(5, 1)
    for q in (2, 3, 4):
        base = connected_sum(base, lens_diagram(5, q))
    h = base
    for _ in range(4):
        h = connected_sum(h, base)
    d = insert_parallel_sectors(double_bisection(bisection_from_heegaard(h)), 2, 2)
    presentations.append(pi1_of_diagram(d))
    presentations += [presentation_of_pair(d, i, j) for i, j in d.sector_pairs()]
    # the capped 12-copy glue chain: many relators, mostly empty or duplicate
    chain = cap_off(glue_bisections(base, 12), auto_cap(base, 12))
    presentations += [pi1_of_diagram(chain), pi1_of_diagram(merge_adjacent_sectors(chain, 3))]
    assert len(presentations[-1].relators) == 192
    for p in presentations:
        assert tietze_simplify(p) == reference_tietze_simplify(p)


TIETZE_WORK = ("_substitute", "_balanced", "_reindex", "_letters_product")


def test_tietze_work_in_validate_grows_about_linearly(monkeypatch):
    # an elimination rewrites, re-checks and re-indexes only the relators
    # that hold the eliminated generator, and a shrink scan tries only
    # the rotations of relators due for one, so doubling the genus about
    # doubles each count (renumbering every relator per step made the
    # rewrites and checks grow fourfold)
    counts = Counter()
    for name in TIETZE_WORK:
        def counting(*args, _name=name, _original=getattr(multisect.presentations, name)):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(multisect.presentations, name, counting)
    work = []
    for summands in (60, 120):  # central genus 120 and 240
        h = lens_diagram(5, 2)
        for _ in range(summands - 1):
            h = connected_sum(h, lens_diagram(5, 2))
        d = double_bisection(bisection_from_heegaard(h))
        counts.clear()
        assert validate(d).ok
        work.append(dict(counts))
    small, large = work
    for name in TIETZE_WORK:
        assert 0 < large[name] <= 2.2 * small[name], work
