"""Definitional references that the tests compare the package against.

The subsequence relations are built from the subsequence sets
themselves (``ponfa.subseq.sub_k``), not from the level vector the
package searches with: ~k is equality of the sets, and ~Rk equality of
the sets seen along the prefixes.  ``format_checker_ponfa`` is the
block-format detector of the Turing-machine reduction on its own.
``glushkov`` builds the position automaton of a regular expression, the
reference for definability by deterministic expressions: an expression
is deterministic exactly when its Glushkov automaton is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from ponfa.core import Automaton, classify
from ponfa.reductions import _add_malformed_detectors, _blocks, _Sketch
from ponfa.subseq import SubseqSet, sub_k


# A regular expression: "" is the empty word, any other string a letter,
# ("|", left, right) a union, (".", left, right) a concatenation and
# ("*", inner) a star.
Expr = Union[str, tuple]


@dataclass(frozen=True)
class RChainSignature:
    """The distinct subsequence sets seen along the prefixes of a word,
    in order of first appearance.  The sets only ever grow, so the
    chain is strictly increasing."""

    k: int
    chain: tuple[SubseqSet, ...]


def sim_k(x: Sequence[str], y: Sequence[str], k: int) -> bool:
    """k-equivalence: equal subsequence sets up to length ``k``."""
    return sub_k(x, k) == sub_k(y, k)


def rk_signature(word: Sequence[str], k: int) -> RChainSignature:
    current = sub_k((), k)
    chain = [current]
    for symbol in word:
        grown = current.extend(symbol)
        if grown is not current and grown != current:
            chain.append(grown)
            current = grown
    return RChainSignature(k, tuple(chain))


def sim_rk(x: Sequence[str], y: Sequence[str], k: int) -> bool:
    """Prefix-k-equivalence, checked directly from the definition:
    every prefix of ``x`` is k-equivalent to some prefix of ``y`` and
    the other way round.  Equivalent to equality of signatures."""
    def prefix_sets(w: Sequence[str]) -> set[SubseqSet]:
        current = sub_k((), k)
        out = {current}
        for symbol in w:
            current = current.extend(symbol)
            out.add(current)
        return out

    return prefix_sets(x) == prefix_sets(y)


def is_minimal_representative(word: Sequence[str], k: int) -> bool:
    """True when every letter strictly grows the subsequence set.

    Such words are the unique shortest members of their
    prefix-k-equivalence classes.
    """
    current = sub_k((), k)
    for symbol in word:
        grown = current.extend(symbol)
        if grown is current:
            return False
        current = grown
    return True


def format_checker_ponfa(symbol_count: int) -> Automaton:
    """Standalone automaton over {0, 1} accepting exactly the words
    that are not concatenations of valid blocks for a code table of
    the given size."""
    if symbol_count < 2:
        raise ValueError("the code table needs at least two symbols")
    sk = _Sketch(("0", "1"))
    _add_malformed_detectors(sk, _blocks(symbol_count), {})
    result = sk.build()
    assert classify(result).is_partially_ordered
    return result


def glushkov(expr: Expr, alphabet: Sequence[str]) -> Automaton:
    """The Glushkov (position) automaton of ``expr`` over ``alphabet``.

    Its states are "0", the start, and one state per letter occurrence,
    numbered from 1 left to right.  The start moves to the positions
    that can come first, a position to those that can follow it, each
    on its own letter; the positions that can come last accept, and
    the start too when ``expr`` matches the empty word.
    """
    labels: list[str] = []
    follow: dict[int, list[int]] = {}

    def walk(e: Expr) -> tuple[bool, list[int], list[int]]:
        """Whether ``e`` matches the empty word, and its first and last
        positions."""
        if isinstance(e, str):
            if not e:
                return True, [], []
            labels.append(e)
            follow[len(labels)] = []
            return False, [len(labels)], [len(labels)]
        if e[0] == "*":
            _nullable, first, last = walk(e[1])
            for p in last:
                follow[p] += first
            return True, first, last
        null_l, first_l, last_l = walk(e[1])
        null_r, first_r, last_r = walk(e[2])
        if e[0] == "|":
            return null_l or null_r, first_l + first_r, last_l + last_r
        for p in last_l:
            follow[p] += first_r
        return (null_l and null_r, first_l + first_r if null_l else first_l,
                last_l + last_r if null_r else last_r)

    nullable, first, last = walk(expr)
    transitions: dict[tuple[str, str], set[str]] = {}
    for p, targets in [(0, first), *follow.items()]:
        for q in targets:
            transitions.setdefault((str(p), labels[q - 1]), set()).add(str(q))
    accepting = [str(p) for p in last] + (["0"] if nullable else [])
    return Automaton(alphabet, [str(p) for p in range(len(labels) + 1)],
                     ["0"], accepting, transitions)
