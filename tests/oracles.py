"""Definitional references that the tests compare the package against.

The subsequence relations are built from the subsequence sets
themselves (``ponfa.subseq.sub_k``), not from the level vector the
package searches with: ~k is equality of the sets, and ~Rk equality of
the sets seen along the prefixes.  ``format_checker_ponfa`` is the
block-format detector of the Turing-machine reduction on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ponfa.core import Automaton, classify
from ponfa.reductions import _add_malformed_detectors, _blocks, _Sketch
from ponfa.subseq import SubseqSet, sub_k


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
