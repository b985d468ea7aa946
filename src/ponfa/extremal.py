"""Extremal witness words and the automata that reject exactly them.

``build_w(k, n)`` produces a word over the alphabet a1..an whose
length is C(k+n, n) - 1, the longest possible for a word in which
every letter strictly grows the set of length-at-most-k subsequences.
``build_a(k, n)`` produces a small nondeterministic automaton, with
self-loop-deterministic nondeterminism only, that accepts every word
except that single one.  The pair is the standard source of hard
instances for universality: the automaton has n(k+2) states while any
deterministic automaton for its language needs at least C(2n, n)
states when k equals n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .core import Automaton, CapacityError, Word, accepts
from .ops import (DEFAULT_SUBSET_LIMIT, INFINITE, _count_words, _hopcroft,
                  _subset_table, shortest_word)

DEFAULT_WORD_LIMIT = 10**7
DEFAULT_TRANSITION_LIMIT = 200_000


def _alphabet(n: int) -> tuple[str, ...]:
    return tuple(f"a{i}" for i in range(1, n + 1))


def build_w(k: int, n: int) -> Word:
    """The unique rejected word, materialised as a symbol tuple.

    Defined by taking the word for one letter fewer, appending the new
    letter, and repeating with the count lowered by one:

        ``W(k, m) = W(k, m-1) + am + W(k-1, m)``

    with ``W(k, 1) = a1^k`` and the empty word when ``k*n == 0``.  The
    recursion is evaluated iteratively, letter level by letter level,
    reusing the previous level's segments.
    """
    if k < 0 or n < 0:
        raise ValueError("k and n must be nonnegative")
    if k == 0 or n == 0:
        return ()
    expected = math.comb(k + n, n) - 1
    if expected > DEFAULT_WORD_LIMIT:
        raise CapacityError(f"word of length {expected} exceeds the limit "
                            f"of {DEFAULT_WORD_LIMIT}")
    symbols = _alphabet(n)
    # current[j] holds W(j, m) for the level m being built
    current: list[Word] = [(symbols[0],) * j for j in range(k + 1)]
    for m in range(2, n + 1):
        letter = symbols[m - 1]
        previous = current
        current = [()]
        for j in range(1, k + 1):
            current.append(previous[j] + (letter,) + current[j - 1])
    word = current[k]
    assert len(word) == expected
    return word


def _state(i: int, m: int) -> str:
    return f"({i};{m})"


def build_a(k: int, n: int) -> Automaton:
    """Self-loop-deterministic automaton accepting all words but one.

    States are ``(i;m)`` for 0 <= i <= k+1 and 1 <= m <= n.  Level 1
    is a chain counting occurrences of a1 with a terminal self-loop.
    Each later level m adds a chain for the letter am that can also
    restart earlier levels or jump to the new terminal state from any
    state that was accepting one level down.  Every level contributes
    its chain start to the initial set, and every state is accepting
    except the k-th of each level.

    Level m adds k + 2 + (m - 1)(3k + 4) transitions, so the automaton
    has n(k + 2) + (3k + 4)n(n - 1)/2; past ``DEFAULT_TRANSITION_LIMIT``
    it raises CapacityError before building anything.
    """
    if k < 1 or n < 1:
        raise ValueError("build_a requires k >= 1 and n >= 1")
    count = n * (k + 2) + (3 * k + 4) * n * (n - 1) // 2
    if count > DEFAULT_TRANSITION_LIMIT:
        raise CapacityError(f"automaton with {count} transitions exceeds the "
                            f"limit of {DEFAULT_TRANSITION_LIMIT}")
    symbols = _alphabet(n)
    states = [_state(i, m) for m in range(1, n + 1) for i in range(k + 2)]
    transitions: dict[tuple[str, str], set[str]] = {}

    def add(src: str, symbol: str, dst: str) -> None:
        transitions.setdefault((src, symbol), set()).add(dst)

    # level 1: count a1 up to k+1, then absorb further a1
    for i in range(k + 1):
        add(_state(i, 1), symbols[0], _state(i + 1, 1))
    add(_state(k + 1, 1), symbols[0], _state(k + 1, 1))

    for m in range(2, n + 1):
        letter = symbols[m - 1]
        # earlier letters idle on the new level
        for i in range(k + 2):
            for j in range(m - 1):
                add(_state(i, m), symbols[j], _state(i, m))
        # the new letter advances its own chain and absorbs at the end
        for i in range(k + 1):
            add(_state(i, m), letter, _state(i + 1, m))
        add(_state(k + 1, m), letter, _state(k + 1, m))
        # advancing the new letter may also restart any earlier level
        for i in range(k + 1):
            for earlier in range(1, m):
                add(_state(i, m), letter, _state(i + 1, earlier))
        # states accepting one level down can jump to the new terminal
        for earlier in range(1, m):
            for i in range(k + 2):
                if i != k:
                    add(_state(i, earlier), letter, _state(k + 1, m))

    initial = [_state(0, m) for m in range(1, n + 1)]
    accepting = [_state(i, m) for m in range(1, n + 1) for i in range(k + 2)
                 if i != k]
    return Automaton(symbols, states, initial, accepting, transitions)


@dataclass(frozen=True)
class ExtremalReport:
    """Checks tying the automaton to its unique rejected word."""

    k: int
    n: int
    state_count: int
    expected_states: int
    rejected_count: int
    rejected_word_matches: bool
    min_dfa_states: Optional[int] = None
    min_dfa_bound: Optional[int] = None


def verify_extremal(k: int, n: int, do_minimize: bool = False) -> ExtremalReport:
    """Build both artifacts and confirm they fit together.

    Checks the state count, that the word is rejected, that the
    rejected language has exactly one member, and that this member is
    the word.  With ``do_minimize`` the minimal deterministic size is
    measured as well; for k == n it must reach C(2n, n).  The count,
    the witness and that size are read off one unnamed subset table.
    """
    # the word's length cap raises before the automaton is built
    word = build_w(k, n)
    automaton = build_a(k, n)
    state_count = len(automaton.states)
    alphabet = automaton.alphabet
    _subsets, table, accepting = _subset_table(automaton, DEFAULT_SUBSET_LIMIT)
    rejecting = [not final for final in accepting]
    count = _count_words(table, rejecting, 0)
    rejected_count = int(count) if count != INFINITE else -1
    witness = shortest_word([0], alphabet, lambda i: zip(alphabet, table[i]),
                            rejecting.__getitem__)
    matches = (witness == word) and not accepts(automaton, word)
    min_states = None
    bound = None
    if do_minimize:
        min_states = len(_hopcroft(table, accepting)[0])
        if k == n:
            bound = math.comb(2 * n, n)
    return ExtremalReport(k, n, state_count, n * (k + 2), rejected_count,
                          matches, min_states, bound)
