"""Bounded-length subsequence machinery.

``sub_k(w)`` is the set of all subsequences (scattered subwords) of
``w`` of length at most ``k``.  Two words are k-equivalent when these
sets agree, and prefix-k-equivalent when additionally every prefix of
one is k-equivalent to some prefix of the other.  The second relation
is the finer one; its classes are regular and each class contains a
unique shortest word, obtained by dropping letters that do not grow
the subsequence set.

``representative`` and ``class_search``, the search behind
``triviality.is_k_r_trivial``, never build sub_k(w).  They keep its
level vector: for each letter a, level(a) is the largest j <= k with
sub_j(wa) = sub_j(w), and 0 when a does not occur in w.  Reading a
letter a with L = level(a) grows sub_k(w) exactly when L < k, and
updates the vector by

    level(a) becomes min(L + 1, k),
    level(b) becomes min(level(b), L + 1) for every other letter b.

The vector is a function of sub_k(w) that fixes all future growth, so
it can stand in for the set as a search key.  ``SubseqSet`` and
``sub_k`` build the sets themselves, with the one-letter update

    sub_k(wa) = sub_k(w) united with { ua : u in sub_k(w), |u| < k },

and are the definitional reference for the level vector; the oracle
``triviality.is_k_r_trivial_oracle`` runs on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .core import Automaton, Word
from .ops import shortest_word


def _canonical(members: Iterable[Word]) -> tuple[Word, ...]:
    return tuple(sorted(set(members), key=lambda u: (len(u), u)))


@dataclass(frozen=True)
class SubseqSet:
    """Set of subsequences up to length ``k``, stored in a canonical
    length-then-lexicographic order so that equality is structural."""

    k: int
    members: tuple[Word, ...]

    def extend(self, symbol: str) -> "SubseqSet":
        """Subsequence set after appending one letter."""
        grown = set(self.members)
        for u in self.members:
            if len(u) < self.k:
                grown.add(u + (symbol,))
        if len(grown) == len(self.members):
            return self
        return SubseqSet(self.k, _canonical(grown))


def sub_k(word: Sequence[str], k: int) -> SubseqSet:
    """Subsequence set of a word, built with the one-letter update."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    current = SubseqSet(k, ((),))
    for symbol in word:
        current = current.extend(symbol)
    return current


def _read(levels: tuple[int, ...], index: int, k: int) -> tuple[int, ...]:
    """Level vector after reading the letter at ``index``, or
    ``levels`` itself when that letter does not grow sub_k."""
    cap = levels[index] + 1
    if cap > k:
        return levels
    grown = [min(level, cap) for level in levels]
    grown[index] = cap
    return tuple(grown)


def representative(word: Sequence[str], k: int) -> Word:
    """The unique shortest member of the prefix-k-equivalence class of
    ``word``: the word without the letters that do not grow its
    subsequence set."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    index = {symbol: i for i, symbol in enumerate(dict.fromkeys(word))}
    levels = (0,) * len(index)
    kept: list[str] = []
    for symbol in word:
        grown = _read(levels, index[symbol], k)
        if grown is not levels:
            kept.append(symbol)
            levels = grown
    return tuple(kept)


def class_search(a: Automaton, k: int,
                 is_goal: Callable[[frozenset[str], frozenset[str]], bool],
                 max_nodes: int) -> Optional[Word]:
    """Length-lex-least word w with ``is_goal(subset of a after w,
    subset of a after representative(w, k))``, or None.

    ``shortest_word`` runs over nodes (subset after w, subset after the
    representative, level vector of w), the vector indexed by alphabet
    position.  The second subset moves only on letters that grow
    sub_k(w), so it reads the representative.  A node fixes the nodes of
    every extension, so words reaching the same node are
    interchangeable; each node is a function of its word, so the search
    is deterministic.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    symbols = a.alphabet

    def successors(node):
        on_word, on_rep, levels = node
        for index, symbol in enumerate(symbols):
            grown = _read(levels, index, k)
            yield symbol, (a.move(on_word, symbol),
                           on_rep if grown is levels
                           else a.move(on_rep, symbol), grown)

    start = (a.initial, a.initial, (0,) * len(symbols))
    return shortest_word([start], symbols, successors,
                         lambda node: is_goal(node[0], node[1]), max_nodes)


def max_representative_length(k: int, alphabet_size: int) -> int:
    """Largest possible length of a minimal representative."""
    return math.comb(k + alphabet_size, k) - 1


def enumerate_minimal_representatives(alphabet: Sequence[str], k: int,
                                      max_len: int) -> Iterator[Word]:
    """Yield all minimal representatives up to ``max_len`` in
    length-then-lexicographic order (lexicographic by alphabet order).

    Minimal representatives are closed under prefixes, so the
    enumeration extends shorter ones letter by letter.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if len(set(alphabet)) != len(alphabet):
        raise ValueError("alphabet contains duplicate symbols")
    layer: list[tuple[Word, tuple[int, ...]]] = [((), (0,) * len(alphabet))]
    yield ()
    length = 0
    while layer and length < max_len:
        nxt: list[tuple[Word, tuple[int, ...]]] = []
        for word, levels in layer:
            for index, symbol in enumerate(alphabet):
                grown = _read(levels, index, k)
                if grown is not levels:
                    extended = word + (symbol,)
                    yield extended
                    nxt.append((extended, grown))
        layer = nxt
        length += 1


def _prefix_name(prefix: Word) -> str:
    return "[" + " ".join(prefix) + "]"


def class_dfa(word: Sequence[str], k: int, alphabet: Sequence[str]) -> Automaton:
    """Deterministic automaton for the prefix-k-equivalence class of a
    minimal representative.

    States are the prefixes of the word.  The next letter of the word
    advances; letters that leave the subsequence set unchanged loop;
    everything else falls into a rejecting sink.  Minimality of the
    input makes the advancing letter and the looping letters disjoint,
    so the automaton is deterministic.  The looping letters are those
    at level k in the level vector of the prefix.
    """
    w = tuple(word)
    if representative(w, k) != w:
        raise ValueError("class_dfa requires a minimal representative")
    position = {symbol: index for index, symbol in enumerate(alphabet)}
    for symbol in w:
        if symbol not in position:
            raise ValueError(f"word symbol {symbol!r} outside the alphabet")
    states = [_prefix_name(w[:i]) for i in range(len(w) + 1)]
    transitions: dict[tuple[str, str], frozenset[str]] = {}
    sink_needed = False
    sink = "sink"
    levels = (0,) * len(alphabet)
    for i in range(len(w) + 1):
        for index, symbol in enumerate(alphabet):
            if i < len(w) and symbol == w[i]:
                target = states[i + 1]
            elif levels[index] == k:
                target = states[i]
            else:
                target = sink
                sink_needed = True
            transitions[(states[i], symbol)] = frozenset((target,))
        if i < len(w):
            levels = _read(levels, position[w[i]], k)
    if sink_needed:
        states.append(sink)
        for symbol in alphabet:
            transitions[(sink, symbol)] = frozenset((sink,))
    return Automaton(alphabet, states, [states[0]],
                     [_prefix_name(w)], transitions)
