"""Word combinatorics: walks, generation, primitive generators, and the
fresh-choice placement functions."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

import afkit.words as W

short_words = st.text(alphabet="abc", min_size=1, max_size=6).map(W.word)


def test_word_roundtrip():
    assert W.word("abcbd") == ("a", "b", "c", "b", "d")
    assert W.format_word(W.word("abcbd")) == "abcbd"
    assert W.reverse(W.word("abc")) == W.word("cba")


def test_is_adjacent():
    assert W.is_adjacent((3, 2, 1, 2, 2, 3))
    assert W.is_adjacent((5,))
    assert not W.is_adjacent((1, 3))
    assert not W.is_adjacent((2, 2, 4, 3))


def test_walks_small():
    assert list(W.walks(2, 2)) == [(1, 1), (1, 2), (2, 2), (2, 1)]
    assert list(W.walks(3, 2, end_at=2)) == [
        (1, 1, 2), (1, 2, 2), (2, 2, 2), (2, 1, 2)]
    for f in W.walks(4, 3):
        assert W.is_adjacent(f)
        assert all(1 <= p <= 3 for p in f)
    assert set(W.surjective_walks(3, 2)) <= set(W.walks(3, 2))
    for f in W.surjective_walks(3, 2):
        assert W.is_surjective(f, 2)


def recursive_walks(m, k, end_at=None):
    """The depth-first enumeration of adjacent walks: the reference for the
    cached ``W.walks``."""
    if m == 0:
        if end_at is None:
            yield ()
        return
    if k == 0:
        return

    def extend(prefix):
        if len(prefix) == m:
            if end_at is None or prefix[-1] == end_at:
                yield tuple(prefix)
            return
        p = prefix[-1]
        for q in (p, p - 1, p + 1):
            if 1 <= q <= k:
                prefix.append(q)
                yield from extend(prefix)
                prefix.pop()

    for start in range(1, k + 1):
        yield from extend([start])


def test_walks_match_recursive_enumeration():
    """One cached tuple per (m, k, end_at), equal to the recursive
    enumeration in order, also for end positions outside [1, k]."""
    for m, k in itertools.product(range(7), range(5)):
        for end_at in [None, *range(0, k + 2)]:
            got = W.walks(m, k, end_at)
            assert isinstance(got, tuple)
            assert got == tuple(recursive_walks(m, k, end_at)), (m, k, end_at)
            assert W.walks(m, k, end_at) is got


def test_apply_walk_and_compose():
    w = W.word("abcde")
    assert W.apply_walk(w, (2, 3, 4)) == W.word("bcd")
    g, f = (2, 3, 4), (1, 2, 3, 2, 1)
    assert W.compose(g, f) == (2, 3, 4, 3, 2)
    assert W.apply_walk(w, W.compose(g, f)) == W.apply_walk(
        W.apply_walk(w, g), f)


@given(short_words)
def test_identity_walk(w):
    ident = tuple(range(1, len(w) + 1))
    assert W.apply_walk(w, ident) == w
    assert W.apply_walk(w, tuple(reversed(ident))) == W.reverse(w)


@given(short_words)
def test_generates_self_and_reversal(w):
    assert W.generates(w, w) is not None
    assert W.generates(w, W.reverse(w)) is not None


@given(short_words, short_words)
def test_generates_witness_is_sound(a, c):
    f = W.generates(a, c)
    if f is not None:
        assert W.is_adjacent(f)
        assert W.is_surjective(f, len(a))
        assert W.apply_walk(a, f) == c


def test_generation_examples():
    assert W.generates(W.word("abcd"), W.word("babcd")) is not None
    assert W.generates(W.word("abcd"), W.word("abcbcd")) is not None
    assert W.generates(W.word("abcd"), W.word("abcbda")) is None


def test_primitive_generator_examples():
    for text, gen in [("babcd", "abcd"), ("abcbcd", "abcd"),
                      ("abcbda", "abcbda"), ("babcc", "abc"),
                      ("abcbcbd", "abcbd")]:
        assert W.primitive_generator(W.word(text)) == W.word(gen)
    assert W.primitive_length(W.word("babcc")) == 3
    assert W.is_primitive(W.word("abcbda"))
    assert not W.is_primitive(W.word("babcd"))


def test_distinct_witness_walks():
    a, c = W.word("abcbd"), W.word("abcbcbd")
    witnesses = [f for f in W.surjective_walks(len(c), len(a))
                 if W.apply_walk(a, f) == c]
    assert len(witnesses) >= 2


def test_long_walk_example():
    f = (3, 2, 1, 2, 3, 3, 3, 4, 5, 6, 5, 4, 3, 4, 5, 6, 7, 8, 7, 6)
    assert W.is_adjacent(f) and W.is_surjective(f, 8)
    assert W.apply_walk(W.word("cbadefba"), f) == W.word(
        "abcbaaadefedadefbabf")


@given(short_words)
@settings(deadline=None)
def test_primitive_generator_generates(c):
    a = W.primitive_generator(c)
    assert W.generates(a, c) is not None
    assert W.is_primitive(a)
    b = W.primitive_generator(W.reverse(c))
    assert b in (a, W.reverse(a))


@given(short_words)
@settings(deadline=None, max_examples=40)
def test_minimal_generators_unique_up_to_reversal(c):
    gens = W.minimal_generators_bruteforce(c)
    order = W.symbol_order(c)
    canon = {W.canonical(g, order) for g in gens}
    assert len(canon) == 1
    assert W.primitive_generator(c) in gens


def test_enumerate_generated():
    out = W.enumerate_generated(W.word("ab"), 3)
    assert W.word("aba") in out
    assert W.word("bab") in out
    assert all(W.generates(W.word("ab"), c) is not None for c in out)


def _fresh_properties(fc, ts):
    g = W.fresh_apply(fc, ts)
    if g in ts:
        return False
    for perm in itertools.permutations(tuple(ts[1:]) + (g,)):
        if W.fresh_apply(fc, perm) in ts:
            return False
    return True


def test_fresh_choice_k1_exhaustive():
    fc = W.fresh_choice(1)
    z = 1 * 1 + 1 + 1
    J = list(itertools.product(range(1, z + 1), repeat=2))
    assert len(J) == 9
    assert all(_fresh_properties(fc, (t,)) for t in J)


@given(st.integers(0, 7 ** 3 - 1), st.integers(0, 7 ** 3 - 1))
def test_fresh_choice_k2_samples(i, j):
    fc = W.fresh_choice(2)
    J = list(itertools.product(range(1, 8), repeat=3))
    assert _fresh_properties(fc, (J[i], J[j]))


def test_small_pair_placement():
    n, g = W.small_pair_placement()
    assert n == 5
    assert W.check_pair_placement(n, g)


def test_stored_pair_placement_is_the_search_result():
    """The stored table is the smallest placement: the backtracking search
    finds none on 3 or 4 elements and exactly that table on 5."""
    assert W._search_pair_placement(3) is None
    assert W._search_pair_placement(4) is None
    assert W._search_pair_placement(5) == W.small_pair_placement()[1]
