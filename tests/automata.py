"""Small automata and word lists that several test modules share."""

from __future__ import annotations

import itertools

from ponfa.core import Automaton


def all_words(alphabet, max_len):
    """Every word over the alphabet of length at most ``max_len``, in
    length-lexicographic order."""
    for size in range(max_len + 1):
        yield from itertools.product(alphabet, repeat=size)


def loop_plus():
    """b*a(b*a)*: words ending in a after stripping trailing b-blocks."""
    return Automaton(
        ("a", "b"),
        ("p", "q"),
        ["p"],
        ["q"],
        {("p", "b"): ["p"], ("p", "a"): ["q"],
         ("q", "b"): ["p"], ("q", "a"): ["q"]},
    )


def second_last_b():
    """(a+b)*b(a+b): the second-to-last letter is b."""
    return Automaton(
        ("a", "b"),
        ("s", "t", "u"),
        ["s"],
        ["u"],
        {("s", "a"): ["s"], ("s", "b"): ["s", "t"],
         ("t", "a"): ["u"], ("t", "b"): ["u"]},
    )


def suffix_b(m):
    """Σ*bΣ^m over {a, b}: the (m + 1)-th letter from the end is b."""
    states = [f"q{i}" for i in range(m + 2)]
    transitions = {("q0", "a"): ["q0"], ("q0", "b"): ["q0", "q1"]}
    for i in range(1, m + 1):
        for symbol in ("a", "b"):
            transitions[(states[i], symbol)] = [states[i + 1]]
    return Automaton(("a", "b"), states, ["q0"], [states[-1]], transitions)
