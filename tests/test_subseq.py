"""Bounded subsequence sets and the two congruences built on them."""

import itertools

import pytest

from ponfa.core import accepts
from ponfa.extremal import build_a
from ponfa.subseq import (_read, class_dfa, class_search,
                          enumerate_minimal_representatives,
                          max_representative_length, representative, sub_k)

from oracles import is_minimal_representative, rk_signature, sim_k, sim_rk


def all_words(alphabet, max_len):
    for size in range(max_len + 1):
        yield from itertools.product(alphabet, repeat=size)


def brute_subsequences(word, k):
    out = set()
    for size in range(k + 1):
        for positions in itertools.combinations(range(len(word)), size):
            out.add(tuple(word[i] for i in positions))
    return out


def test_sub_k_against_brute_force():
    for word in all_words(("a", "b"), 5):
        for k in range(4):
            assert set(sub_k(word, k).members) == brute_subsequences(word, k)


def test_sub_k_rejects_negative_bound():
    with pytest.raises(ValueError):
        sub_k(("a",), -1)


def test_sub_k_zero_sees_only_the_empty_word():
    assert sub_k(("a", "b", "a"), 0).members == ((),)
    assert sim_k(("a",), ("b", "b"), 0)


def test_negative_bound_is_rejected_everywhere():
    a = build_a(1, 1)
    calls = [
        lambda: representative(("a",), -1),
        lambda: class_search(a, -1, lambda here, there: False, 100),
        lambda: list(enumerate_minimal_representatives(("a",), -1, 2)),
        lambda: class_dfa((), -1, ("a",)),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()


def test_level_vector_against_subseq_sets():
    """Reading a letter into the level vector agrees with SubseqSet on
    the growth flag, on the letter's level, and on the representative
    that the growth flags spell, for every word up to the given length
    and every k <= 4."""
    steps = 0
    for alphabet, max_len in ((("a",), 8), (("a", "b"), 8),
                              (("a", "b", "c"), 6)):
        for k in range(5):
            stack = [((), (), sub_k((), k), (0,) * len(alphabet))]
            while stack:
                word, rep, current, levels = stack.pop()
                assert representative(word, k) == rep, (word, k)
                if len(word) == max_len:
                    continue
                for index, symbol in enumerate(alphabet):
                    grown = current.extend(symbol)
                    after = _read(levels, index, k)
                    assert (after is not levels) == (grown is not current)
                    # sub_j(wa) = sub_j(w) up to the shortest new member
                    new = set(grown.members) - set(current.members)
                    level = min(map(len, new)) - 1 if new else k
                    assert levels[index] == level, (word, symbol, k)
                    stack.append((word + (symbol,),
                                  rep + (symbol,) if after is not levels
                                  else rep, grown, after))
                    steps += 1
    assert steps == 5 * (8 + 510 + 1092)


def test_sim_k_examples():
    assert sim_k("ab", "ba", 1)
    assert not sim_k("ab", "ba", 2)
    assert sim_k("aab", "ab", 1)
    # both contain every piece of length at most two
    assert sim_k("abba", "abab", 2)
    assert not sim_k("abba", "abab", 3)
    assert not sim_k("aabb", "abab", 2)


def test_signature_chain_grows_strictly():
    sig = rk_signature(("a", "a", "b", "a", "b"), 2)
    assert sig.chain[0].members == ((),)
    for earlier, later in zip(sig.chain, sig.chain[1:]):
        assert set(earlier.members) < set(later.members)


def test_sim_rk_refines_sim_k():
    # same letters seen, different order of first growth
    assert sim_k("ab", "ba", 1)
    assert not sim_rk("ab", "ba", 1)
    for x in all_words(("a", "b"), 4):
        for y in all_words(("a", "b"), 4):
            for k in range(3):
                if sim_rk(x, y, k):
                    assert sim_k(x, y, k)


def test_sim_rk_matches_signature_equality():
    words = list(all_words(("a", "b"), 4))
    for k in range(3):
        signatures = {w: rk_signature(w, k) for w in words}
        for x in words:
            for y in words:
                assert sim_rk(x, y, k) == (signatures[x] == signatures[y])


def test_minimal_representative_is_unique_shortest():
    words = list(all_words(("a", "b"), 4))
    for k in (1, 2):
        for x in words:
            mates = [y for y in words if sim_rk(x, y, k)]
            shortest = min(len(y) for y in mates)
            minimal = [y for y in mates if is_minimal_representative(y, k)]
            assert len(minimal) == 1
            assert len(minimal[0]) == shortest


def test_representative_is_the_minimal_class_member():
    for word in all_words(("a", "b"), 6):
        for k in range(4):
            rep = representative(word, k)
            assert is_minimal_representative(rep, k), (word, k)
            # independently of SubseqSet: every kept letter grows sub_k
            assert all(brute_subsequences(rep[:i], k)
                       != brute_subsequences(rep[:i + 1], k)
                       for i in range(len(rep))), (word, k)
            assert sim_rk(rep, word, k), (word, k)
            assert (rep == tuple(word)) == is_minimal_representative(word, k)


def test_enumeration_in_length_then_lex_order():
    reps = list(enumerate_minimal_representatives(("a", "b"), 1, 10))
    assert reps == [(), ("a",), ("b",), ("a", "b"), ("b", "a")]
    # at k = 0 every word is in the empty word's class
    assert list(enumerate_minimal_representatives(("a", "b"), 0, 10)) == [()]
    # max_len cuts the enumeration short of the longest, of length 5
    cut = enumerate_minimal_representatives(("a", "b"), 2, 3)
    assert max(map(len, cut)) == 3
    reps2 = list(enumerate_minimal_representatives(("a", "b"), 2, 10))
    # closed under prefixes, all flagged minimal, none repeated
    assert len(set(reps2)) == len(reps2)
    for rep in reps2:
        assert is_minimal_representative(rep, 2)
        assert rep[:-1] in reps2 if rep else True
    with pytest.raises(ValueError):
        list(enumerate_minimal_representatives(("a", "a"), 1, 2))


def test_enumeration_finds_every_class_once():
    words = list(all_words(("a", "b"), 4))
    for k in (1, 2):
        reps = list(enumerate_minimal_representatives(("a", "b"), k, 4))
        for x in words:
            assert sum(1 for rep in reps if sim_rk(x, rep, k)) == 1


def test_max_representative_length_is_tight():
    assert max_representative_length(1, 2) == 2
    assert max_representative_length(2, 2) == 5
    assert max_representative_length(2, 3) == 9
    for k, n in ((1, 1), (1, 2), (2, 2)):
        alphabet = tuple("ab"[:n])
        bound = max_representative_length(k, n)
        reps = list(enumerate_minimal_representatives(alphabet, k, bound + 2))
        longest = max(len(rep) for rep in reps)
        assert longest == bound


def test_class_dfa_accepts_exactly_the_class():
    alphabet = ("a", "b")
    for k in (1, 2):
        for rep in enumerate_minimal_representatives(alphabet, k, 3):
            machine = class_dfa(rep, k, alphabet)
            for word in all_words(alphabet, 5):
                assert accepts(machine, word) == sim_rk(word, rep, k)


def test_class_dfa_rejects_non_minimal_input():
    with pytest.raises(ValueError):
        class_dfa(("a", "a"), 1, ("a", "b"))
    # the fifth letter adds nothing: abab holds every word of length 2
    class_dfa(("a", "b", "a", "b"), 2, ("a", "b"))
    with pytest.raises(ValueError):
        class_dfa(("a", "b", "a", "b", "a"), 2, ("a", "b"))
