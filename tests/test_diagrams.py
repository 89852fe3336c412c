import functools
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import multisect.diagrams
import multisect.words
from multisect.diagrams import (CutSystem, DiagramError, FormatError,
                                MultisectionDiagram, SurfaceModel,
                                connected_sum, express_against, format_diagram,
                                format_heegaard, mirror, parse_diagram,
                                parse_heegaard, pi1_of_diagram,
                                presentation_of_pair, read_against, reading_of_pair,
                                stabilize, standard_alpha_system, validate)
from multisect.constructions import (auto_cap, bisection_from_heegaard, cap_off,
                                     double_bisection, glue_bisections,
                                     insert_parallel_sectors, lens_diagram,
                                     sphere_bundle_sum_diagram)
from multisect.presentations import AbelianInvariants, abelianization
from multisect.words import (FreeAutomorphism, Word, automorphism, format_word,
                            identity_automorphism)


def test_surface_model():
    surf = SurfaceModel(2)
    assert surf.rank == 4
    assert surf.a_letter(1) == 1 and surf.b_letter(1) == 2
    assert surf.a_letter(2) == 3 and surf.b_letter(2) == 4
    with pytest.raises(ValueError):
        SurfaceModel(-1)


def test_cut_system_standard_letters_and_duals():
    surf = SurfaceModel(1)
    system = CutSystem(surf, (Word(2, (2, 2, 1)),),
                       automorphism(2, {1: (-2, -2, 1)}, {1: (2, 2, 1)}),
                       "beta")
    assert system.standard_letters == (1,)
    assert system.surviving_letters == (2,)
    assert system.dual_table[1:system.surface.rank + 1] == ((-1, -1), (1,))


def test_cut_system_rejects_bad_exponents():
    surf = SurfaceModel(1)
    with pytest.raises(DiagramError):
        # b^2 a^2 has exponent row (2, 2): invariant factor 2
        CutSystem(surf, (Word(2, (2, 2, 1, 1)),), None, "bad")


def test_cut_system_rejects_nonreduced_or_empty():
    surf = SurfaceModel(1)
    with pytest.raises(DiagramError):
        CutSystem(surf, (Word(2, ()),), None, "empty")
    with pytest.raises(DiagramError):
        CutSystem(surf, (Word(2, (1, 2, -1)),), None, "conjugated")


def test_cut_system_rejects_bad_standardizer():
    surf = SurfaceModel(1)
    with pytest.raises(DiagramError):
        CutSystem(surf, (Word(2, (2, 2, 1)),), identity_automorphism(2), "beta")


def test_standardized_cut_system_is_checked_by_its_standard_letters(monkeypatch):
    def no_snf(pres):
        raise AssertionError("Smith normal form computed despite a standardizer")

    monkeypatch.setattr(multisect.diagrams, "abelianization", no_snf)
    surf = SurfaceModel(1)
    assert CutSystem(surf, (Word(2, (1,)),), identity_automorphism(2)).standard_letters \
        == (1,)
    # g1 g2 is part of a basis, g1 g1 is not: either way the identity
    # sends the curve to a non-letter, and that is what refuses it
    for curve in ((1, 2), (1, 1)):
        with pytest.raises(DiagramError, match="not a positive letter"):
            CutSystem(surf, (Word(2, curve),), identity_automorphism(2), "beta")
    # two equal curves have a rank-1 exponent matrix; their standard
    # letters collide
    with pytest.raises(DiagramError, match="standard letters collide"):
        CutSystem(SurfaceModel(2), (Word(4, (1,)), Word(4, (1,))),
                  identity_automorphism(4), "beta")
    # without a standardizer the Smith normal form is the check
    with pytest.raises(AssertionError, match="despite a standardizer"):
        CutSystem(surf, (Word(2, (1,)),), None, "bare")


def test_read_against_lens_curve(lens21):
    alpha = lens21.alpha
    assert read_against(Word(2, (2, 2, 1)), alpha).letters == (1, 1)


def test_read_self_vanishes(lens21):
    beta = lens21.beta
    for c in beta.curves:
        assert read_against(c, beta).is_identity()


def test_read_alpha_curve_against_doubled_cocores(lens21_bisection):
    # the side-0 a-curve reads as the dual of the side-1 a-letter
    beta = lens21_bisection.systems[1]
    out = read_against(Word(4, (1,)), beta)
    assert out.letters == (beta.surviving_letters.index(3) + 1,)


def test_express_against_keeps_based_words(lens21_bisection):
    gamma = lens21_bisection.systems[2]
    based = express_against(Word(4, (2, -2, 1)), gamma)
    assert based == express_against(Word(4, (1,)), gamma)


def test_presentation_of_pair_examples(lens21_bisection):
    d = lens21_bisection
    p12 = presentation_of_pair(d, 1, 2)
    assert [r.letters for r in p12.relators] == [(), (1, -2)]
    p23 = presentation_of_pair(d, 2, 3)
    assert [r.letters for r in p23.relators] == [(2, 2, 1), (-2, -2, -1)]
    p13 = presentation_of_pair(d, 1, 3)
    assert [r.letters for r in p13.relators] == [(1, 1), (-2, -2)]


def test_pi1_of_diagram_simplifies_to_lens_group(lens21_bisection):
    pres = pi1_of_diagram(lens21_bisection)
    assert abelianization(pres) == AbelianInvariants(0, (2,))


def test_validate_lens(lens21_bisection):
    report = validate(lens21_bisection, budget=200)
    assert report.ok
    assert [v.describe() for _, _, v in report.entries] == \
        ["Verified(1)", "Verified(1)"]
    pair, invariants = report.boundary
    assert pair == (3, 1)
    assert invariants == AbelianInvariants(0, (2, 2))


def test_validate_refutes_corrupted_types(lens21_bisection):
    d = lens21_bisection
    broken = MultisectionDiagram(d.surface, d.systems, False, (0, 1), d.readings)
    report = validate(broken)
    assert not report.ok
    assert report.entries[0][2].status == "refuted_by_homology"


def test_parallel_systems_diagram():
    surf = SurfaceModel(1)
    mk = lambda label: CutSystem(surf, (Word(2, (1,)),),
                                 identity_automorphism(2), label)
    d = MultisectionDiagram(surf, (mk("a"), mk("b"), mk("c")), False, (1, 1))
    report = validate(d)
    assert report.ok
    assert abelianization(pi1_of_diagram(d)) == AbelianInvariants(1, ())


def test_diagram_requires_three_systems():
    surf = SurfaceModel(1)
    mk = lambda label: CutSystem(surf, (Word(2, (1,)),),
                                 identity_automorphism(2), label)
    with pytest.raises(DiagramError):
        MultisectionDiagram(surf, (mk("a"), mk("b")), False, (1,))


def test_cached_reading_mismatch_detected(lens21_bisection):
    d = lens21_bisection
    bad = (((1, 2), (Word(2, (1,)), Word(2, (1, -2)))),)
    with pytest.raises(DiagramError):
        MultisectionDiagram(d.surface, d.systems, False, (1, 1), bad)


def test_connected_sum_examples(lens21):
    s = connected_sum(lens21, lens21)
    assert s.genus == 2
    assert [r.letters for r in s.relators()] == [(1, 1), (2, 2)]
    assert abelianization(s.pi1_presentation()) == AbelianInvariants(0, (2, 2))

    empty = sphere_bundle_sum_diagram(0)
    assert connected_sum(lens21, empty).relators() == lens21.relators()

    n_copies = lens_diagram(5, 1)
    total = n_copies
    for _ in range(2):
        total = connected_sum(total, n_copies)
    assert abelianization(total.pi1_presentation()) == \
        AbelianInvariants(0, (5, 5, 5))


def test_mirror_examples(lens21):
    m = mirror(lens21)
    assert [r.letters for r in m.relators()] == [(-1, -1)]
    assert m.homology() == AbelianInvariants(0, (2,))
    again = mirror(m)
    assert [c.letters for c in again.beta.curves] == \
        [c.letters for c in lens21.beta.curves]


def test_mirror_pairing_with_original(lens21):
    s = connected_sum(lens_diagram(5, 1), mirror(lens_diagram(5, 1)))
    assert abelianization(s.pi1_presentation()) == AbelianInvariants(0, (5, 5))


def test_stabilize_examples(lens21):
    s = stabilize(lens21)
    assert s.genus == 2
    assert [r.letters for r in s.relators()] == [(1, 1), (2,)]
    assert abelianization(s.pi1_presentation()) == lens21.homology()
    double = stabilize(s)
    assert double.genus == 3
    assert [r.letters for r in double.relators()] == [(1, 1), (2,), (3,)]


def test_alpha_system_helper():
    surf = SurfaceModel(2)
    alpha = standard_alpha_system(surf)
    assert [c.letters for c in alpha.curves] == [(1,), (3,)]
    assert alpha.dual_table[1:surf.rank + 1] == ((), (1,), (), (2,))


def test_msd_round_trip(lens21_bisection):
    text = format_diagram(lens21_bisection)
    parsed = parse_diagram(text)
    assert parsed == lens21_bisection
    assert format_diagram(parsed) == text


def test_format_writes_each_distinct_word_once(monkeypatch, c12_merge):
    # the 25 systems of the merged chain are copies of 3, and most of its
    # 1,384 word lines repeat (97 are distinct); parsed copies share words
    text = format_diagram(c12_merge)
    parsed = parse_diagram(text)
    calls = []

    def counting_cache(write):
        def counted(w):
            calls.append(w)
            assert write(w) == format_word(w)
            return write(w)
        return functools.cache(counted)

    monkeypatch.setattr(multisect.diagrams, "cache", counting_cache)
    assert format_diagram(parsed) == text
    assert 0 < len(calls) == len(set(calls)) < 100


def test_format_tells_apart_copies_with_another_standardizer(c12_merge):
    # the bare system keeps the curves tuple that its copies share
    systems = list(c12_merge.systems)
    systems[1] = replace(systems[1], standardizer=None)
    d = replace(c12_merge, systems=tuple(systems))
    assert parse_diagram(format_diagram(d)) == d


def test_parse_builds_one_word_per_word_line(monkeypatch):
    # the cut-system checks and the cached-reading check run on letter
    # tuples, and a repeated word line shares the word of its first copy,
    # so the only words built are one per distinct (rank, text) line,
    # whether checked by Word(...) or proven by Word._made
    h = connected_sum(lens_diagram(5, 2), lens_diagram(3, 1))
    text = format_diagram(double_bisection(bisection_from_heegaard(h)))
    word_lines = [(keyword == "word", rest) for keyword, _, rest in
                  (line.partition(" ") for line in text.splitlines())
                  if keyword in ("curve", "image", "word")]
    assert len(set(word_lines)) < len(word_lines)  # delta repeats beta's block
    built = []
    original, made = Word.__post_init__, Word._made

    def counting(self):
        built.append(self)
        original(self)

    def counting_made(cls, rank, letters):
        built.append(letters)
        return made(rank, letters)

    monkeypatch.setattr(Word, "__post_init__", counting)
    monkeypatch.setattr(Word, "_made", classmethod(counting_made))
    d = parse_diagram(text)
    assert len(built) == len(set(word_lines))
    assert format_diagram(d) == text


def test_parse_checks_each_standardizer_block_once(monkeypatch):
    # the capped 12-copy chain has 26 systems, copies of alpha, beta and
    # gamma; a repeated block is its first copy relabelled
    base = functools.reduce(connected_sum, (lens_diagram(5, q) for q in range(1, 5)))
    text = format_diagram(cap_off(glue_bisections(base, 12), auto_cap(base, 12)))
    built = []
    original = FreeAutomorphism.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(FreeAutomorphism, "__post_init__", counting)
    d = parse_diagram(text)
    assert len(d.systems) == 26 and len(built) == 3
    assert format_diagram(d) == text


_DOUBLE_TEXT = format_diagram(double_bisection(bisection_from_heegaard(lens_diagram(2, 1))))


@pytest.mark.parametrize("old, new, message, at", [
    # delta repeats beta's block; each edit is reported as for any block
    ("image g3\nimage g4\nreading", "image g3 g1\nimage g4\nreading",
     "declared inverse does not invert the automorphism", "image g4\nreading"),
    ("system delta", "system del ta",
     "system labels must be nonempty and space-free", "image g4\nreading"),
    # readings (1, 2) and (1, 4) read beta's curves against alpha
    ("reading 1 4\nword 1", "reading 1 4\nword g1",
     "cached reading (1, 4) disagrees with recomputation", "reading 1 4"),
], ids=["image-of-a-copy", "label-of-a-copy", "reading-of-a-copy"])
def test_faults_in_repeated_blocks_name_their_line(old, new, message, at):
    assert _DOUBLE_TEXT.count(old) == 1
    text = _DOUBLE_TEXT.replace(old, new)
    line = text[:text.index(at)].count("\n") + 1  # the line that ``at`` starts
    with pytest.raises(FormatError, match=re.escape(message)) as exc:
        parse_diagram(text)
    assert exc.value.line == line


@pytest.mark.parametrize("label", ["g\x01a", "g\x08a", "g\ud800a", "g\ufffea", "g\uffffa"])
def test_a_label_xml_cannot_carry_is_refused_where_a_spaced_one_is(label):
    text = format_diagram(bisection_from_heegaard(lens_diagram(5, 2)))
    with pytest.raises(FormatError, match="space-free") as spaced:
        parse_diagram(text.replace("system gamma\n", "system g a\n"))
    with pytest.raises(FormatError, match="XML cannot carry") as exc:
        parse_diagram(text.replace("system gamma\n", f"system {label}\n"))
    assert exc.value.line == spaced.value.line
    with pytest.raises(DiagramError, match="XML cannot carry"):
        standard_alpha_system(SurfaceModel(1)).relabelled(label)


@pytest.mark.parametrize("label", ["g\xa0a", "g\u2028a", "g\u3000a", "g\x85a", "g\ta", "g\na"])
def test_a_label_with_whitespace_of_any_kind_is_refused(label):
    # the formatter would write each one, and the parser would refuse it
    with pytest.raises(DiagramError, match="space-free"):
        standard_alpha_system(SurfaceModel(1)).relabelled(label)
    with pytest.raises(DiagramError, match="space-free"):
        standard_alpha_system(SurfaceModel(1), label)


@pytest.mark.parametrize("name", [" x", "x ", "x  y", "x\ty", "x\xa0y", "x\ny"])
def test_a_name_that_is_not_single_spaced_words_is_refused(name):
    with pytest.raises(DiagramError, match="words separated by single spaces"):
        replace(lens_diagram(5, 2), name=name)


def _xml_cannot_carry(text):
    return any(c < " " or "\ud800" <= c <= "\udfff" or c in "\ufffe\uffff" for c in text)


# whitespace that str.split knows and the format does not, and characters
# the label check refuses, beside any character at all
_ODD = st.text(st.one_of(st.sampled_from(" \t\n\r\x0b\x1c\x85\xa0\u2028\u3000\x01\ud800\ufffeg"),
                         st.characters()), max_size=5)


@settings(max_examples=300, deadline=None)
@given(_ODD, _ODD)
def test_every_label_and_name_the_constructors_accept_round_trips(label, name):
    h = lens_diagram(5, 2)
    try:
        h = replace(h, beta=h.beta.relabelled(label), name=name)
    except DiagramError:
        assert label.split() != [label] or _xml_cannot_carry(label) or \
            " ".join(name.split()) != name
        return
    text = format_heegaard(h)
    assert parse_heegaard(text) == h and format_heegaard(parse_heegaard(text)) == text
    d = bisection_from_heegaard(lens_diagram(5, 2))
    if label not in (system.label for system in d.systems):
        d = replace(d, systems=d.systems[:2] + (d.systems[2].relabelled(label),))
        text = format_diagram(d)
        assert parse_diagram(text) == d and format_diagram(parse_diagram(text)) == text


def test_hd_round_trip(lens21):
    text = format_heegaard(lens21)
    parsed = parse_heegaard(text)
    assert parsed == lens21
    assert format_heegaard(parsed) == text


def test_parse_errors_carry_line_numbers(lens21, lens21_bisection):
    with pytest.raises(FormatError) as exc:
        parse_diagram("MSD 1\ngenus x\n")
    assert exc.value.line == 2
    with pytest.raises(FormatError) as exc:
        parse_heegaard("HD 1\ngenus -1\n")
    assert exc.value.line == 2
    with pytest.raises(FormatError):
        parse_heegaard("HD 2\n")
    with pytest.raises(FormatError) as exc:
        parse_heegaard("HD 1\ngenus 1\nparams x y\n")
    assert exc.value.line == 3
    with pytest.raises(FormatError, match="require a beta standardizer") as exc:
        parse_heegaard("HD 1\ngenus 1\nsystem beta\ncurve g2\n")
    assert exc.value.line == 4
    # int() accepts each replacement token, so these files used to parse
    # and then fail a bit-exact round-trip
    hd, msd = format_heegaard(lens21), format_diagram(lens21_bisection)
    for parse, text, old, new in (
            (parse_heegaard, hd, "genus 1", "genus 01"),
            (parse_heegaard, hd, "params 2 1", "params 2 +1"),
            (parse_heegaard, hd, "curve g2 g2 g1", "curve g02 g2 g1"),
            (parse_heegaard, hd, "image g2 g1^-1", "image g2 g+1^-1"),
            (parse_diagram, msd, "genus 2", "genus \u0662"),
            (parse_diagram, msd, "types 1 1", "types 1 1_0"),
            (parse_diagram, msd, "reading 1 2", "reading 1 +2"),
            (parse_diagram, msd, "word g1 g2^-1", "word g01 g2^-1")):
        lines = text.splitlines()
        line = lines.index(old) + 1
        lines[line - 1] = new
        with pytest.raises(FormatError) as exc:
            parse("\n".join(lines) + "\n")
        assert exc.value.line == line, new


@pytest.mark.parametrize("old, new, message", [
    ("types 1 1", "types 1 -1", "claimed sector rank -1 is outside 0..2"),
    ("types 1 1", "types 1 3", "claimed sector rank 3 is outside 0..2"),
    ("types 1 1", "types 1 1 1", "expected 2 claimed sector types"),
    ("reading 1 2", "reading 1 9", "reading pair (1, 9) out of range"),
    ("reading 1 2", "reading 1 3", "duplicate reading pair (1, 3)"),
    ("reading 1 2", "reading 2 1", "cached reading (2, 1) disagrees"),
])
def test_diagram_errors_name_the_line_at_fault(lens21_bisection, old, new, message):
    lines = format_diagram(lens21_bisection).splitlines()
    line = lines.index(old) + 1
    lines[line - 1] = new
    with pytest.raises(FormatError, match=re.escape(message)) as exc:
        parse_diagram("\n".join(lines) + "\n")
    if "duplicate" in message:  # reported at the later of the two readings
        line = lines.index("reading 1 3", line) + 1
    assert exc.value.line == line


HD_TEXT = format_heegaard(lens_diagram(2, 1))
MSD_TEXT = format_diagram(bisection_from_heegaard(lens_diagram(2, 1)))


def _moved(text: str, start: str, count: int, before: str) -> str:
    """``text`` with the ``count`` lines from line ``start`` moved to just
    before line ``before``."""
    lines = text.splitlines(keepends=True)
    i = lines.index(start + "\n")
    block, rest = lines[i:i + count], lines[:i] + lines[i + count:]
    j = rest.index(before + "\n")
    return "".join(rest[:j] + block + rest[j:])


def _line_of(text: str, line: str) -> int:
    return text.splitlines().index(line) + 1


_UNORDERED = _moved(MSD_TEXT, "reading 1 3", 3, "reading 3 1")


@pytest.mark.parametrize("parse, text, line", [
    (parse_heegaard, HD_TEXT.replace("\n", "\r\n"), 1),
    (parse_diagram, MSD_TEXT[:-1], MSD_TEXT.count("\n")),
    (parse_heegaard, HD_TEXT.replace("genus 1", "genus  1"), 2),
    (parse_heegaard, HD_TEXT.replace("curve", "  curve"), _line_of(HD_TEXT, "curve g2 g2 g1")),
    (parse_heegaard, HD_TEXT.replace("name lens(2,1)", "name lens(2,1) "), 3),
    (parse_heegaard, HD_TEXT.replace("params", "\nparams"), 4),
    (parse_diagram, MSD_TEXT.replace("types 1 1", "types 1\t1"), 4),
    (parse_diagram, MSD_TEXT + "\n", MSD_TEXT.count("\n") + 1),
    # a reading block before the systems: the first system after it
    (parse_diagram, _moved(MSD_TEXT, "reading 1 2", 3, "system alpha"), 8),
    (parse_diagram, _UNORDERED, _line_of(_UNORDERED, "reading 1 3")),
], ids=["crlf", "no-final-newline", "double-space", "indented", "trailing-space",
        "blank-line", "tab", "trailing-blank-line", "reading-first",
        "readings-unordered"])
def test_only_the_formatted_layout_parses(parse, text, line):
    with pytest.raises(FormatError) as exc:
        parse(text)
    assert exc.value.line == line


_FILES = ((HD_TEXT, parse_heegaard, format_heegaard),
          (MSD_TEXT, parse_diagram, format_diagram))
_CHARS = st.one_of(
    st.sampled_from(sorted(set(HD_TEXT + MSD_TEXT + " \t\r\v\x85\xa0\u2028+-_0"))),
    st.characters())


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(_FILES), st.sampled_from(("insert", "delete", "substitute")),
       st.integers(0, 10 ** 4), _CHARS)
def test_one_character_edits_round_trip_or_name_their_line(file, edit, position, char):
    text, parse, fmt = file
    i = position % (len(text) + (edit == "insert"))
    mutated = (text[:i] + ("" if edit == "delete" else char)
               + text[i + (edit != "insert"):])
    try:
        parsed = parse(mutated)
    except FormatError as exc:
        assert exc.line is not None and 1 <= exc.line <= mutated.count("\n") + 1
        return
    assert fmt(parsed) == mutated


def test_unreadable_pair_error():
    surf = SurfaceModel(1)
    nothing = CutSystem(surf, (Word(2, (1,)),), None, "bare")
    other = CutSystem(surf, (Word(2, (2,)),), None, "bare2")
    third = CutSystem(surf, (Word(2, (1, 2)),), None, "bare3")
    d = MultisectionDiagram(surf, (nothing, other, third), False, (0, 0))
    with pytest.raises(DiagramError):
        presentation_of_pair(d, 1, 2)
    # a system reads trivially against itself, standardizer or not
    assert reading_of_pair(d, 2, 2) == (Word(1, ()),)


def test_a_system_reads_its_own_curves_as_empty_words(monkeypatch):
    built = bisection_from_heegaard(lens_diagram(5, 2)).systems[2]
    # a new system, so its reading memo is empty
    gamma = CutSystem(built.surface, built.curves, built.standardizer, "gamma")
    substituted = tuple(express_against(c, gamma).cyclic_reduce().letters
                        for c in gamma.curves)
    assert substituted == ((),) * gamma.surface.genus
    monkeypatch.setattr(multisect.diagrams, "_substitute", None)  # not called
    assert gamma.read(gamma.relabelled("copy")) == substituted
    # without a standardizer there is no reading to shortcut
    bare = CutSystem(SurfaceModel(1), (Word(2, (1,)),), None, "bare")
    with pytest.raises(DiagramError, match="has no standardizer"):
        bare.read(bare)


def test_cache_only_diagram_validates_without_standardizers():
    # user-supplied data: no standardizers anywhere, every needed reading
    # cached by hand (a three-system genus-1 diagram of a simply
    # connected closed 4-manifold)
    surf = SurfaceModel(1)
    bare = lambda letters, label: CutSystem(surf, (Word(2, letters),), None, label)
    systems = (bare((1,), "alpha"), bare((2,), "beta"), bare((1, 2), "gamma"))
    one = (Word(1, (1,)),)
    readings = (((1, 2), one), ((2, 3), one), ((3, 1), one), ((1, 3), one))
    d = MultisectionDiagram(surf, systems, True, (0, 0, 0), readings)
    report = validate(d)
    assert report.ok
    assert abelianization(pi1_of_diagram(d)) == AbelianInvariants(0, ())
    with pytest.raises(DiagramError):
        presentation_of_pair(d, 2, 1)  # not cached, no standardizer
    from multisect.nielsen import spine_tuple
    with pytest.raises(DiagramError):
        spine_tuple(d, 1)


def test_genus_zero_diagram():
    surf = SurfaceModel(0)
    mk = lambda label: CutSystem(surf, (), identity_automorphism(0), label)
    d = MultisectionDiagram(surf, (mk("a"), mk("b"), mk("c")), True, (0, 0, 0))
    assert validate(d).ok
    text = format_diagram(d)
    assert parse_diagram(text) == d


def _product_insert(copies):
    """The benchmark's product chain: ``copies`` sums of lens(5, 1) # ... #
    lens(5, 4), bisected, doubled, with two parallel sectors inserted."""
    base = functools.reduce(connected_sum, (lens_diagram(5, q) for q in range(1, 5)))
    h = functools.reduce(connected_sum, [base] * copies)
    return insert_parallel_sectors(double_bisection(bisection_from_heegaard(h)), 2, 2)


@pytest.mark.parametrize("copies", [2, 5], ids=["genus-16", "genus-40"])
def test_parse_reads_each_distinct_token_once(monkeypatch, copies):
    # the token tables fill with the tokens present, one parse per rank
    text = format_diagram(_product_insert(copies))
    genus = 8 * copies
    present = {(genus if keyword == "word" else 2 * genus, token)
               for keyword, _, rest in (line.partition(" ") for line in text.splitlines())
               if keyword in ("curve", "image", "word") and rest != "1"
               for token in rest.split(" ")}
    calls = []
    parse_token = multisect.words._parse_token

    def counting(token, rank):
        calls.append((rank, token))
        return parse_token(token, rank)

    monkeypatch.setattr(multisect.words, "_parse_token", counting)
    assert format_diagram(parse_diagram(text)) == text
    assert len(calls) == len(set(calls)) and set(calls) == present


def test_standard_letters_of_a_tracked_inverse_need_no_substitution(monkeypatch):
    # phi(c) = x_k exactly when c is the k-th inverse image, so the letters
    # are read off the inverse; without one, each curve is substituted
    substituted = []
    substitute = multisect.diagrams._substitute

    def counting(table, letters):
        substituted.append(letters)
        return substitute(table, letters)

    monkeypatch.setattr(multisect.diagrams, "_substitute", counting)
    d = parse_diagram(format_diagram(_product_insert(2)))
    substituted.clear()  # the readings' check substitutes by the dual tables
    for system in d.systems:
        copy = CutSystem(system.surface, system.curves, system.standardizer, system.label)
        assert copy.standard_letters == system.standard_letters and substituted == []
        bare = FreeAutomorphism(system.surface.rank, system.standardizer.images)
        assert CutSystem(system.surface, system.curves, bare).standard_letters \
            == system.standard_letters
        assert len(substituted) == len(system.curves)
        substituted.clear()
    # a curve the standardizer does not send to a positive letter is worded
    # by the substitution, as before
    std = automorphism(2, {1: (-2, -2, 1)}, {1: (2, 2, 1)})
    with pytest.raises(DiagramError, match="sends g2 g2 g1 g2 to g1 g2, not a positive letter"):
        CutSystem(SurfaceModel(1), (Word(2, (2, 2, 1, 2)),), std)
