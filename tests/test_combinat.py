import itertools
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wronski import combinat
from wronski.errors import InvalidInput


def test_catalan_values():
    assert [combinat.catalan(d) for d in range(2, 7)] == [1, 2, 5, 14, 42]


def test_ballot_sequences_counted_by_catalan():
    for d in range(2, 6):
        seqs = combinat.ballot_sequences(d)
        assert len(seqs) == combinat.catalan(d)
        assert len(set(seqs)) == len(seqs)
        assert all(len(s) == 2 * d - 2 for s in seqs)
        assert all(combinat.is_ballot(s) for s in seqs)


def test_words_counted_per_degree_pair():
    for n in range(1, 11):
        for e in range(n // 2 + 1):
            words = combinat.ballot_sequences(n + 1 - e, e)
            assert len(words) == comb(n, e) - (comb(n, e - 1) if e else 0)
            assert len(set(words)) == len(words)
            assert all(w.count("1") == e and len(w) == n for w in words)


def test_is_ballot():
    assert combinat.is_ballot("1122")
    assert combinat.is_ballot("1212")
    assert not combinat.is_ballot("2112")
    assert not combinat.is_ballot("112")


def test_ballot_to_matching_oracles():
    assert combinat.ballot_to_matching("1122") == frozenset({(1, 4), (2, 3)})
    assert combinat.ballot_to_matching("1212") == frozenset({(1, 2), (3, 4)})
    with pytest.raises(InvalidInput):
        combinat.ballot_to_matching("2211")


def test_matchings_are_noncrossing():
    for d in range(2, 6):
        seen = set()
        for s in combinat.ballot_sequences(d):
            m = combinat.ballot_to_matching(s)
            assert combinat.is_noncrossing(m)
            seen.add(m)
        assert len(seen) == combinat.catalan(d)


def test_noncrossing_matchings_count():
    # Counted by Catalan numbers 1, 2, 5, 14 on 2, 4, 6, 8 points.
    for k, expect in ((2, 1), (4, 2), (6, 5), (8, 14)):
        ms = combinat.noncrossing_matchings(k)
        assert len(ms) == expect
        assert all(combinat.is_noncrossing(m) for m in ms)
    assert combinat.noncrossing_matchings(3) == []


def test_kostka_reference_values():
    assert combinat.kostka((1, 1, 1, 1), 3) == 2
    assert combinat.kostka((2, 2), 3) == 1
    assert combinat.kostka((1, 1, 1, 1, 2), 4) == 3


def test_kostka_all_ones_is_catalan():
    for d in range(2, 7):
        ones = tuple([1] * (2 * d - 2))
        assert combinat.kostka(ones, d) == combinat.catalan(d)


def _valid_contents(d):
    total = 2 * d - 2
    def rec(left):
        if left == 0:
            yield ()
            return
        for part in range(1, min(left, d - 1) + 1):
            for rest in rec(left - part):
                yield (part,) + rest
    return list(rec(total))


def test_kostka_equals_net_count_exhaustive():
    for d in range(2, 6):
        for content in _valid_contents(d):
            assert combinat.kostka(content, d) == \
                combinat.count_nets_multiplicity(content, d), (d, content)


@given(st.integers(3, 5), st.data())
@settings(max_examples=40, deadline=None)
def test_kostka_permutation_invariant(d, data):
    contents = _valid_contents(d)
    content = data.draw(st.sampled_from(contents))
    perm = data.draw(st.permutations(content))
    assert combinat.kostka(content, d) == combinat.kostka(tuple(perm), d)


def test_invalid_content_rejected():
    with pytest.raises(InvalidInput):
        combinat.kostka((1, 1, 1), 3)  # wrong sum
    with pytest.raises(InvalidInput):
        combinat.kostka((3, 1), 3)  # entry above d-1
    with pytest.raises(InvalidInput):
        combinat.kostka((0, 2, 2), 3)


def test_ssyt_shapes_are_tableaux():
    for top, bottom in combinat.enumerate_ssyt((1, 1, 1, 1), 3):
        assert all(top[i] <= top[i + 1] for i in range(len(top) - 1))
        assert all(bottom[i] <= bottom[i + 1] for i in range(len(bottom) - 1))
        assert all(t < b for t, b in zip(top, bottom))
