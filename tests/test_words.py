import doctest

import pytest
from hypothesis import example, given, strategies as st

import multisect.words
from multisect.words import (FreeAutomorphism, Word, _canonical_letters,
                             _letters_inverse, _reduce, _signed_table, _substitute,
                             _word_writer,
                             apply, automorphism, block_automorphism, compose,
                             flip_letters, format_word, identity_automorphism,
                             invert_all, parse_word)


def reference_apply_images(images, letters):
    """Substitute ``images[k - 1]`` for generator k throughout
    ``letters``: the whole product built, every negative letter's image
    inverted, then freely reduced, as an oracle for ``_substitute``."""
    out = []
    for lt in letters:
        out.extend(images[lt - 1] if lt > 0 else _letters_inverse(images[-lt - 1]))
    return _reduce(out)


def words(max_rank=4, max_len=12):
    return st.integers(1, max_rank).flatmap(
        lambda r: st.lists(
            st.integers(-r, r).filter(lambda x: x != 0), max_size=max_len
        ).map(lambda ls: Word(r, tuple(ls))))


def test_module_doctests():
    failures, _ = doctest.testmod(multisect.words)
    assert failures == 0


def test_free_reduce_examples():
    assert Word(1, (1, -1)).letters == ()
    assert Word(1, ()).letters == ()
    assert Word(2, (1, 2, -2, 1)).letters == (1, 1)


def test_cyclic_reduce_examples():
    assert Word(2, (1, 2, -1)).cyclic_reduce().letters == (2,)
    assert Word(2, (2, 2)).cyclic_reduce().letters == (2, 2)
    assert Word(2, (-1, 2, 2, 1)).cyclic_reduce().letters == (2, 2)


def test_invert_examples():
    assert Word(2, (1, 2)).inverse().letters == (-2, -1)
    assert Word(2, ()).inverse().letters == ()
    assert Word(1, (1, 1)).inverse().letters == (-1, -1)


def test_letter_inverse_examples():
    assert Word(2, (2, 2, 1)).letter_inverse().letters == (-2, -2, -1)
    assert Word(2, ()).letter_inverse().letters == ()


def test_word_rejects_bad_letters():
    with pytest.raises(ValueError):
        Word(2, (3,))
    with pytest.raises(ValueError):
        Word(2, (0,))
    with pytest.raises(ValueError):
        Word(2, (True,))


def test_apply_examples():
    # rank 4, generator names: a0=1, b0=2, a1=3, b1=4
    phi = automorphism(4, {1: (1, 3), 2: (2, 4)}, {1: (1, -3), 2: (2, -4)})
    assert apply(phi, Word(4, (1, -3))).letters == (1,)
    assert apply(phi, Word(4, (2,))).letters == (2, 4)
    ident = identity_automorphism(4)
    w = Word(4, (1, 2, -3))
    assert apply(ident, w) == w


def test_compose_examples():
    phi = automorphism(2, {1: (1, 2)}, {1: (1, -2)})
    ident = identity_automorphism(2)
    assert compose(ident, phi).images == phi.images
    assert compose(phi, ident).images == phi.images
    twice = compose(phi, phi)
    assert twice.images[0].letters == (1, 2, 2)


def test_automorphism_rejects_bad_determinant():
    with pytest.raises(ValueError):
        FreeAutomorphism(2, (Word(2, (1,)), Word(2, (1,))))


def test_automorphism_rejects_wrong_inverse():
    with pytest.raises(ValueError):
        automorphism(2, {1: (1, 2)}, {1: (1, 2)})


def test_declared_inverse_is_the_automorphism_check(monkeypatch):
    # (g1 g1, g2) abelianizes to determinant 2; with a declared inverse no
    # determinant is computed, so the inverse check alone must refuse it
    with pytest.raises(ValueError, match="declared inverse does not invert"):
        FreeAutomorphism(2, (Word(2, (1, 1)), Word(2, (2,))),
                         (Word(2, (1,)), Word(2, (2,))))
    with pytest.raises(ValueError, match="inverse image rank mismatch"):
        FreeAutomorphism(2, (Word(2, (1,)), Word(2, (2,))),
                         (Word(3, (3,)), Word(2, (2,))))

    def no_determinant(matrix):
        raise AssertionError("determinant computed despite a declared inverse")

    monkeypatch.setattr(multisect.words, "determinant", no_determinant)
    phi = automorphism(2, {1: (1, 2)}, {1: (1, -2)})
    assert phi.inverse().images[0].letters == (1, -2)
    with pytest.raises(AssertionError):
        FreeAutomorphism(2, phi.images)


def test_inverse_round_trip():
    phi = automorphism(2, {1: (1, 2)}, {1: (1, -2)})
    inv = phi.inverse()
    w = Word(2, (1, 2, -1))
    assert apply(inv, apply(phi, w)) == w
    with pytest.raises(ValueError):
        FreeAutomorphism(2, phi.images).inverse()


def test_block_automorphism():
    phi = automorphism(2, {1: (1, 2)}, {1: (1, -2)})
    blk = block_automorphism([phi, identity_automorphism(2)])
    assert blk.rank == 4
    assert apply(blk, Word(4, (1,))).letters == (1, 2)
    assert apply(blk, Word(4, (3,))).letters == (3,)
    assert apply(blk.inverse(), Word(4, (1, 2))).letters == (1,)


def test_relabel_and_flip():
    # a transposition as the automorphism builder makes it, with itself
    # as its inverse: generator images permuted, the identity otherwise
    for rank in (2, 3, 4):
        for i in range(1, rank + 1):
            for j in range(i + 1, rank + 1):
                swapped = tuple(Word(rank, ({i: j, j: i}.get(k, k),))
                                for k in range(1, rank + 1))
                swap = automorphism(rank, {i: (j,), j: (i,)}, {i: (j,), j: (i,)})
                assert swap == FreeAutomorphism(rank, swapped, swapped)
    pairs = {1: (3,), 3: (1,), 2: (4,), 4: (2,)}
    m = automorphism(4, pairs, pairs)
    assert apply(m, Word(4, (1, -2))).letters == (3, -4)
    f = flip_letters(3, {2})
    assert apply(f, Word(3, (2, 1, -2))).letters == (-2, 1, 2)
    inv = invert_all(2)
    assert apply(inv, Word(2, (1, 2))).letters == (-1, -2)


def test_word_grammar_round_trip():
    w = Word(3, (1, -2, 3, 3))
    assert format_word(w) == "g1 g2^-1 g3 g3"
    assert parse_word(format_word(w), 3) == w
    assert format_word(Word(3)) == "1"
    assert parse_word("1", 3) == Word(3)
    with pytest.raises(ValueError):
        parse_word("g4", 3)
    with pytest.raises(ValueError):
        parse_word("x1", 3)
    # int() accepts these bodies, but they would format back differently
    for token in ("g+1", "g01", "g1_0", "g\u0661", "g 1", "g1^-1^-1"):
        with pytest.raises(ValueError):
            parse_word(token, 10)


@given(st.lists(words(max_rank=12), min_size=1, max_size=8))
@example([Word(12, (10, -11, 12)), Word(11, (-10, 1)), Word(12, (10, -11, 12)), Word(3)])
def test_one_writer_writes_every_word_as_format_word(ws):
    # one writer for words of every rank 1..12, each written twice so the
    # second pass reads the writer's memos; letters reach g10..g12
    write = _word_writer()
    for w in ws + ws:
        text = write(w)
        assert text == format_word(w)
        assert parse_word(text, w.rank) == w


def test_canonical_cyclic():
    a = Word(2, (1, 2, -1))
    b = Word(2, (2,))
    assert _canonical_letters(a.letters) == _canonical_letters(b.letters)
    assert _canonical_letters((1, 1)) == _canonical_letters((-1, -1))


def _least_rotation_by_sorting(w):
    """Reference: the least of all 2L rotations of the cyclic reduction
    and of its inverse."""
    base = w.cyclic_reduce()
    if base.is_identity():
        return base
    candidates = []
    for word in (base.letters, base.inverse().letters):
        for i in range(len(word)):
            candidates.append(word[i:] + word[:i])
    return Word(w.rank, min(candidates))


@given(words(max_rank=3, max_len=16)
       | st.tuples(words(max_rank=2, max_len=4), st.integers(2, 4)).map(
           lambda wn: Word(wn[0].rank, wn[0].letters * wn[1])))
def test_canonical_cyclic_is_the_least_rotation(w):
    # powers have periodic cyclic reductions, so several rotations tie
    assert _canonical_letters(w.letters) == _least_rotation_by_sorting(w).letters


@given(words())
def test_free_reduce_idempotent_and_scan(w):
    again = Word(w.rank, w.letters)
    assert again == w
    for x, y in zip(w.letters, w.letters[1:]):
        assert x != -y


@given(words())
def test_invert_is_involution(w):
    assert w.inverse().inverse() == w
    assert (w * w.inverse()).is_identity()


@given(words())
def test_letter_inverse_is_involution(w):
    assert w.letter_inverse().letter_inverse() == w
    # letter inverse = reversal of the inverse, as reduced words
    reversed_inverse = Word(w.rank, tuple(reversed(w.inverse().letters)))
    assert w.letter_inverse() == reversed_inverse


@given(words())
def test_cyclic_reduce_keeps_a_cyclically_reduced_word(w):
    core = w.letters
    while len(core) >= 2 and core[0] == -core[-1]:
        core = core[1:-1]
    reduced = w.cyclic_reduce()
    assert reduced.letters == core
    assert (reduced is w) == (core == w.letters)


@given(words())
def test_cyclic_reduce_conjugacy(w):
    c = w.cyclic_reduce()
    assert len(c) <= len(w)
    if not c.is_identity():
        assert c.letters[0] != -c.letters[-1]


@st.composite
def random_automorphisms(draw, rank=3):
    phi = identity_automorphism(rank)
    count = draw(st.integers(0, 5))
    for _ in range(count):
        kind = draw(st.sampled_from(["transvect", "flip", "swap"]))
        if kind == "transvect":
            i = draw(st.integers(1, rank))
            j = draw(st.integers(1, rank).filter(lambda x: x != i))
            step = automorphism(rank, {i: (i, j)}, {i: (i, -j)})
        elif kind == "flip":
            i = draw(st.integers(1, rank))
            step = flip_letters(rank, {i})
        else:
            i = draw(st.integers(1, rank))
            j = draw(st.integers(1, rank).filter(lambda x: x != i))
            step = automorphism(rank, {i: (j,), j: (i,)}, {i: (j,), j: (i,)})
        phi = compose(step, phi)
    return phi


@given(random_automorphisms(), st.data())
def test_apply_respects_concatenation(phi, data):
    rank = phi.rank
    letters = st.lists(st.integers(-rank, rank).filter(lambda x: x != 0),
                       max_size=8)
    v = Word(rank, tuple(data.draw(letters)))
    w = Word(rank, tuple(data.draw(letters)))
    assert apply(phi, v * w) == apply(phi, v) * apply(phi, w)


@given(random_automorphisms(), st.data())
def test_tracked_inverse_is_inverse(phi, data):
    rank = phi.rank
    letters = st.lists(st.integers(-rank, rank).filter(lambda x: x != 0),
                       max_size=8)
    w = Word(rank, tuple(data.draw(letters)))
    assert apply(phi.inverse(), apply(phi, w)) == w


def checked(w):
    """``w`` as ``Word`` builds it with every check: the letters in range,
    then freely reduced."""
    return Word(w.rank, w.letters)


@st.composite
def reduced_images(draw, rank=3):
    """Freely reduced images, one per generator, some the inverse or the
    copy of another, so that products cancel completely, and some empty."""
    images = []
    for k in range(rank):
        kind = draw(st.sampled_from(["word", "inverse", "copy", "empty"]))
        if k and kind == "inverse":
            images.append(_letters_inverse(images[draw(st.integers(0, k - 1))]))
        elif k and kind == "copy":
            images.append(images[draw(st.integers(0, k - 1))])
        elif kind == "empty":
            images.append(())
        else:
            images.append(draw(words(max_rank=rank, max_len=6)).letters)
    return images


@given(reduced_images(), st.lists(st.integers(-3, 3).filter(bool), max_size=12))
def test_substitute_equals_building_the_product_then_reducing(images, letters):
    # the letters need not be reduced: the output is reduced all the same
    table = _signed_table(images)
    assert _substitute(table, letters) == reference_apply_images(images, letters)
    assert _substitute(table, ()) == ()
    for k in range(1, 4):
        assert _substitute(table, (k, -k)) == _substitute(table, (-k, k)) == ()


@given(random_automorphisms(), random_automorphisms())
def test_compose_of_tracked_inverses_is_what_the_checked_constructor_builds(phi, psi):
    # psi^-1 phi^-1 of two checked automorphisms inverts phi psi, so
    # compose skips the check; the full check accepts the same value
    composed = compose(phi, psi)
    assert composed.inverse_images is not None
    assert composed == FreeAutomorphism(phi.rank, composed.images,
                                        composed.inverse_images)
    assert composed.images == tuple(
        Word(phi.rank, reference_apply_images([img.letters for img in phi.images], img.letters))
        for img in psi.images)
    for img in composed.images + composed.inverse_images:
        assert checked(img) == img


def test_compose_checks_only_a_composite_without_tracked_inverses(monkeypatch):
    phi = automorphism(2, {1: (1, 2)}, {1: (1, -2)})
    untracked = FreeAutomorphism(2, phi.images)
    checked_values, determinants = [], []
    check, determinant = FreeAutomorphism.__post_init__, multisect.words.determinant

    def counting_check(self):
        checked_values.append(self)
        check(self)

    def counting_determinant(matrix):
        determinants.append(matrix)
        return determinant(matrix)

    monkeypatch.setattr(FreeAutomorphism, "__post_init__", counting_check)
    monkeypatch.setattr(multisect.words, "determinant", counting_determinant)
    assert compose(phi, phi).inverse_images is not None
    assert checked_values == [] and determinants == []
    assert compose(untracked, phi).inverse_images is None
    assert len(checked_values) == len(determinants) == 1


@given(random_automorphisms(), words(max_rank=3), st.integers(0, 3), st.integers(0, 2))
def test_made_words_are_what_the_checked_constructor_returns(phi, w, offset, spare):
    # every Word._made call site in this module, against Word(...) with
    # all its checks on the letters the site computes another way
    w = Word(3, w.letters)
    rank = w.rank
    made = {
        "inverse": (w.inverse(), tuple(-lt for lt in reversed(w.letters))),
        "letter_inverse": (w.letter_inverse(), tuple(-lt for lt in w.letters)),
        "cyclic_reduce": (w.cyclic_reduce(), Word(rank, w.letters).cyclic_reduce().letters),
        "shift": (w.shift(offset, rank + offset + spare),
                  tuple(lt + offset if lt > 0 else lt - offset for lt in w.letters)),
        "apply": (apply(phi, w), reference_apply_images([img.letters for img in phi.images], w.letters)),
        "parse": (multisect.words._LineReader(format_word(w) + "\n").words("", 1, rank)[0],
                  w.letters),
    }
    for site, (value, letters) in made.items():
        assert value == checked(value) == Word(value.rank, letters), site
    for img in identity_automorphism(rank).images:
        assert img == checked(img)
    with pytest.raises(ValueError):
        w.shift(offset, rank + offset - 1)


@given(st.integers(1, 3).flatmap(lambda r: st.tuples(
    st.just(r), st.lists(st.integers(-r, r).filter(bool), max_size=8))))
def test_parsed_words_are_refused_exactly_when_reduction_shortens_them(case):
    rank, letters = case
    text = " ".join(f"g{lt}" if lt > 0 else f"g{-lt}^-1" for lt in letters) or "1"
    reader = multisect.words._LineReader(text + "\n")
    if len(Word(rank, tuple(letters))) != len(letters):
        with pytest.raises(multisect.words.FormatError, match="^line 1: word is not freely reduced"):
            reader.words("", 1, rank)
    else:
        assert reader.words("", 1, rank) == (Word(rank, tuple(letters)),)


@pytest.mark.parametrize("build", [
    lambda: automorphism(2, {0: (2,), -1: (1,)}),  # was the identity, by negative indexing
    lambda: automorphism(2, {3: (1, 2)}),  # was an IndexError
    lambda: automorphism(2, {}, {3: (1,)}),
    lambda: flip_letters(2, {5}),  # was ignored
    lambda: flip_letters(2, {0}),
], ids=["automorphism-keys-0-and-minus-1", "automorphism-key-3", "automorphism-inverse-key-3",
        "flip-letters-5", "flip-letters-0"])
def test_generator_keys_outside_the_rank_are_refused(build):
    with pytest.raises(ValueError, match=r"outside 1\.\.2"):
        build()


@given(random_automorphisms(), random_automorphisms(), st.integers(0, 4),
       st.sets(st.integers(1, 4)))
def test_builders_whose_inverse_is_a_proof_run_no_composition_check(phi, psi, rank, flip):
    # what the builders make is what the checked constructor builds from
    # the same images and inverse, which it accepts; they build it unchecked
    built = []
    check = FreeAutomorphism.__post_init__

    def counting(self):
        built.append(self)
        check(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FreeAutomorphism, "__post_init__", counting)
        values = [identity_automorphism(rank), flip_letters(4, flip),
                  block_automorphism([phi, psi]), phi.inverse()]
        assert built == []
    for value in values:
        assert value.inverse_images is not None
        assert value == FreeAutomorphism(value.rank, value.images, value.inverse_images)
        for img in value.images + value.inverse_images:
            assert checked(img) == img
    assert values[0].images == tuple(Word(rank, (k,)) for k in range(1, rank + 1))
    assert values[1].images == tuple(Word(4, (-k if k in flip else k,)) for k in range(1, 5))
    assert values[2].images == tuple(img.shift(0, 6) for img in phi.images) + tuple(
        img.shift(3, 6) for img in psi.images)
    assert values[3].images == phi.inverse_images


def test_a_block_without_a_tracked_inverse_is_checked_by_its_determinant():
    phi = automorphism(2, {1: (1, 2)}, {1: (1, -2)})
    untracked = FreeAutomorphism(2, phi.images)
    block = block_automorphism([phi, untracked])
    assert block.inverse_images is None
    assert block.images == tuple(img.shift(k, 4) for k in (0, 2) for img in phi.images)
    with pytest.raises(ValueError, match="need one image per generator"):
        identity_automorphism(-1)
