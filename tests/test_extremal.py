"""The extremal word and automaton pair and their verification."""

import itertools
import math
import time

import pytest

from ponfa.cli import main
from ponfa.core import (AutomatonKind, CapacityError, accepts, classify)
from ponfa import extremal
from ponfa.extremal import ExtremalReport, build_a, build_w, verify_extremal
from ponfa.ops import (INFINITE, complement, count_language_size, determinize,
                       is_empty, minimize)
from ponfa.subseq import max_representative_length

from oracles import is_minimal_representative


def test_small_words_are_pinned():
    assert build_w(1, 1) == ("a1",)
    assert build_w(2, 1) == ("a1", "a1")
    assert build_w(1, 2) == ("a1", "a2")
    assert build_w(1, 3) == ("a1", "a2", "a3")
    assert build_w(2, 2) == ("a1", "a1", "a2", "a1", "a2")
    assert build_w(0, 5) == ()
    assert build_w(5, 0) == ()


def test_word_follows_the_recursion():
    for k in range(1, 5):
        for n in range(2, 5):
            prefix = build_w(k, n - 1)
            suffix = build_w(k - 1, n)
            assert build_w(k, n) == prefix + (f"a{n}",) + suffix


def test_word_length_formula():
    for k in range(1, 6):
        for n in range(1, 6):
            assert len(build_w(k, n)) == math.comb(k + n, n) - 1


def test_word_is_a_longest_minimal_representative():
    for k in (1, 2, 3):
        for n in (1, 2, 3):
            word = build_w(k, n)
            assert is_minimal_representative(word, k)
            assert len(word) == max_representative_length(k, n)


def test_word_size_cap(monkeypatch):
    with pytest.raises(CapacityError):
        build_w(30, 30)
    with pytest.raises(ValueError):
        build_w(-1, 2)
    # a word of exactly the limit's length is built
    monkeypatch.setattr(extremal, "DEFAULT_WORD_LIMIT", 5)
    assert len(build_w(2, 2)) == 5
    with pytest.raises(CapacityError, match="word of length 9 exceeds "
                       "the limit of 5"):
        build_w(3, 2)


def test_automaton_size_cap(monkeypatch):
    # the count checked up front is the count built: an automaton of
    # exactly the limit's transitions is built, one more is refused
    built = {(k, n): build_a(k, n) for k in range(1, 5) for n in range(1, 5)}
    for (k, n), a in built.items():
        cells = sum(map(len, a.transitions.values()))
        monkeypatch.setattr(extremal, "DEFAULT_TRANSITION_LIMIT", cells)
        assert build_a(k, n) == a
        monkeypatch.setattr(extremal, "DEFAULT_TRANSITION_LIMIT",
                            cells - 1)
        with pytest.raises(CapacityError, match=(
                f"automaton with {cells} transitions exceeds the "
                f"limit of {cells - 1}")):
            build_a(k, n)
    monkeypatch.undo()
    # refused before anything is built; verify-extremal's word of 2,000
    # letters passes its own cap, so the automaton's is the one hit
    start = time.perf_counter()
    with pytest.raises(CapacityError, match="2239600 transitions"):
        build_a(1, 800)
    assert main(["gen-a", "1", "2000"]) == 2
    assert main(["verify-extremal", "1", "2000"]) == 2
    assert time.perf_counter() - start < 0.5


def test_automaton_shape():
    for k in (1, 2, 3):
        for n in (1, 2, 3):
            a = build_a(k, n)
            assert len(a.states) == n * (k + 2)
            flags = classify(a)
            # the single-letter instance degenerates to a chain
            expected = (AutomatonKind.PO_DFA if n == 1
                        else AutomatonKind.RPO_NFA)
            assert flags.label is expected
            assert flags.is_partially_ordered
            assert flags.is_self_loop_deterministic
    with pytest.raises(ValueError):
        build_a(0, 2)
    with pytest.raises(ValueError):
        build_a(2, 0)


def test_exactly_one_word_is_rejected():
    for k, n in ((1, 1), (1, 2), (2, 2)):
        a = build_a(k, n)
        word = build_w(k, n)
        assert not accepts(a, word)
        rejected = complement(determinize(a))
        assert count_language_size(rejected) == 1
        # spot check around the rejected length
        for size in range(len(word) + 2):
            for candidate in itertools.product(a.alphabet, repeat=size):
                assert accepts(a, candidate) == (candidate != word)


def test_verify_extremal_reports(monkeypatch):
    report = verify_extremal(2, 2)
    assert report.state_count == 8 == report.expected_states
    assert report.rejected_count == 1
    assert report.rejected_word_matches
    assert report.min_dfa_states is None and report.min_dfa_bound is None
    # the word must also be rejected by the automaton itself, not only
    # be the witness read off its subset table
    monkeypatch.setattr(extremal, "accepts", lambda a, word: True)
    assert not verify_extremal(2, 2).rejected_word_matches


def named_report(k, n, do_minimize):
    """``verify_extremal`` through named automata: the DFA, its
    complement, that complement's count and emptiness witness, and the
    minimized DFA."""
    word = build_w(k, n)
    automaton = build_a(k, n)
    dfa = determinize(automaton)
    rejected = complement(dfa)
    count = count_language_size(rejected)
    witness = is_empty(rejected).witness
    return ExtremalReport(
        k, n, len(automaton.states), n * (k + 2),
        int(count) if count != INFINITE else -1,
        witness == word and not accepts(automaton, word),
        len(minimize(dfa).states) if do_minimize else None,
        math.comb(2 * n, n) if do_minimize and k == n else None)


def test_verify_extremal_equals_the_named_route():
    pairs = [(k, n) for k in range(1, 8) for n in range(1, 9 - k)]
    for k, n in pairs + [(5, 5), (4, 5), (5, 4)]:
        for do_minimize in (False, True):
            assert (verify_extremal(k, n, do_minimize)
                    == named_report(k, n, do_minimize)), (k, n, do_minimize)


def test_verify_extremal_families():
    for k in (1, 2, 3):
        for n in (1, 2, 3):
            report = verify_extremal(k, n)
            assert report.state_count == n * (k + 2)
            assert report.rejected_count == 1
            assert report.rejected_word_matches


def test_verify_extremal_checks_the_word_cap_first():
    start = time.perf_counter()
    with pytest.raises(CapacityError):
        verify_extremal(80, 80)
    assert time.perf_counter() - start < 0.5
    assert main(["verify-extremal", "80", "80"]) == 2
    for k, n in ((0, 2), (2, 0), (-1, 2)):
        with pytest.raises(ValueError):
            verify_extremal(k, n)


def test_minimal_dfa_blowup_on_the_diagonal():
    for n in range(1, 6):
        report = verify_extremal(n, n, do_minimize=True)
        assert report.min_dfa_bound == math.comb(2 * n, n)
        assert report.min_dfa_states >= report.min_dfa_bound


def test_count_language_size_sees_the_infinite_complement():
    a = build_a(2, 2)
    assert count_language_size(determinize(a)) == INFINITE
