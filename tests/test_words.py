import doctest

import pytest
from hypothesis import given, strategies as st

import multisect.words
from multisect.words import (FreeAutomorphism, Word, apply, automorphism,
                             block_automorphism, canonical_cyclic, compose,
                             flip_letters, format_word, identity_automorphism,
                             invert_all, parse_word, relabel)


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
    m = relabel(4, {1: 3, 3: 1, 2: 4, 4: 2})
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


def test_canonical_cyclic():
    a = Word(2, (1, 2, -1))
    b = Word(2, (2,))
    assert canonical_cyclic(a) == canonical_cyclic(b)
    assert canonical_cyclic(Word(1, (1, 1))) == canonical_cyclic(Word(1, (-1, -1)))


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
    assert canonical_cyclic(w) == _least_rotation_by_sorting(w)


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
            step = relabel(rank, {i: j, j: i})
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
