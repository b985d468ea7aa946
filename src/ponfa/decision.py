"""Universality, inclusion and equivalence by one subset search.

Every question is an inclusion L(left) ⊆ L(right): universality of an
automaton is the inclusion of Σ* in it, and equivalence is inclusion
both ways.  One search decides an inclusion: an on-the-fly subset
construction with breadth-first search for a word accepted on the left
and rejected on the right.  For universality the search runs over
subsets of the right side alone, otherwise over pairs of subsets.  A
subset steps on a letter as one union of the letter's row,
``state -> targets``, over its members.  The rows are filled on first
lookup, not up front, because most searches stop after a few subsets.
At subset |Q| + 1 a universality search builds
``ops.bisimulation_quotient``, and starts again on it only when it
merges states.  The search core is ``ops.shortest_word``.

The witness is the length-lex-least word accepted on the left and
rejected on the right, ties broken by alphabet order.  Two cases of the
paper come out of this one search.  On a one-letter partially ordered
automaton it is the paper's polynomial walk: a word is only its length,
the subsets stop changing within |Q| letters, and the search stores at
most |Q| + 1 subsets (for an inclusion, pairs of subsets, with |Q| the
larger state count).  When the right side is partially ordered with
deterministic self-loops, its language is a union of
prefix-d-equivalence classes for d the completed automaton's depth, so
the witness is its own class representative
(``subseq.representative``), at most C(d + |Σ|, d) - 1 letters long:
the paper's coNP certificate.

``Strategy`` names the search two ways.  ``GENERIC`` runs it on any
input.  ``RPONFA_BOUNDED`` first checks the paper's precondition on the
right-hand automaton, partially ordered with deterministic self-loops,
and raises ``ValueError`` when it fails; then it runs the same search.
An equivalence checks both automata before either inclusion runs, so
its refusal does not depend on the verdict.
The keyword stays until the benchmark's class-reps workload stops
passing it (ROADMAP item 2).
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import Optional

from .core import EMPTY, Automaton, CapacityError, Decision, classify
from .ops import DEFAULT_SUBSET_LIMIT, bisimulation_quotient, shortest_word


class Strategy(Enum):
    GENERIC = "generic"
    RPONFA_BOUNDED = "bounded"


def _absorbing_accepting(a: Automaton) -> frozenset[str]:
    """Accepting states that persist under every symbol.  A subset
    containing one can never lead to a rejected word, which prunes the
    search without affecting shortest witnesses."""
    return frozenset(q for q in a.accepting
                     if all(q in a.step(q, sym) for sym in a.alphabet))


class _Smaller(Exception):
    """Raised with the quotient of the automaton searched."""


def _check_strategy(strategy: "Strategy | str", *rights: Automaton) -> None:
    """Raise ``ValueError`` for an unknown ``strategy`` name, and under
    ``RPONFA_BOUNDED`` when a right-hand automaton is not partially
    ordered with deterministic self-loops."""
    if Strategy(strategy) is Strategy.RPONFA_BOUNDED:
        for right in rights:
            flags = classify(right)
            if not (flags.is_partially_ordered
                    and flags.is_self_loop_deterministic):
                raise ValueError("the bounded engine requires the right-hand "
                                 "automaton to be partially ordered with "
                                 "deterministic self-loops")


def _decide(left: Optional[Automaton], right: Automaton,
            max_nodes: int) -> Decision:
    """Is L(left) ⊆ L(right)?  ``left`` None stands for Σ* over the
    alphabet of ``right``."""
    try:
        return _includes_generic(left, right, max_nodes, left is None)
    except _Smaller as smaller:
        return _includes_generic(None, smaller.args[0], max_nodes)


def is_universal(a: Automaton, strategy: "Strategy | str" = Strategy.GENERIC,
                 max_nodes: int = DEFAULT_SUBSET_LIMIT) -> Decision:
    """Does the automaton accept every word over its alphabet?

    Decided as the inclusion of Σ* in ``a``.  The witness of a negative
    answer is the length-lex-least rejected word, ties broken by
    alphabet order.  Both ``strategy`` names run the same search;
    ``"bounded"`` first checks that ``a`` is partially ordered with
    deterministic self-loops.
    """
    _check_strategy(strategy, a)
    return _decide(None, a, max_nodes)


def includes(a: Automaton, b: Automaton,
             strategy: "Strategy | str" = Strategy.GENERIC,
             max_nodes: int = DEFAULT_SUBSET_LIMIT) -> Decision:
    """Language inclusion: is every word of ``a`` accepted by ``b``?

    A negative witness is the length-lex-least word accepted by ``a``
    and rejected by ``b``, ties broken by alphabet order.  Both
    ``strategy`` names run the same search; ``"bounded"`` first checks
    that ``b`` is partially ordered with deterministic self-loops.  On
    one-letter partially ordered automata the search is the paper's
    polynomial walk: it stores at most |Q| + 1 pairs of subsets, for |Q|
    the larger of the two state counts.
    """
    if tuple(a.alphabet) != tuple(b.alphabet):
        raise ValueError("inclusion requires identical alphabets")
    _check_strategy(strategy, b)
    return _decide(a, b, max_nodes)


class _Row(dict):
    """One automaton's moves on one letter, ``state -> targets``.  A
    cell is read from the transition table the first time it is looked
    up, so a search pays only for the states it meets."""

    __slots__ = ("cells", "symbol")

    def __init__(self, a: Automaton, symbol: str):
        super().__init__()
        self.cells = a.transitions
        self.symbol = symbol

    def __missing__(self, q: str) -> frozenset[str]:
        self[q] = targets = self.cells.get((q, self.symbol), EMPTY)
        return targets


def _includes_generic(left: Optional[Automaton], right: Automaton,
                      max_nodes: int, quotient: bool = False) -> Decision:
    """Breadth-first search for a word accepted by ``left`` (None: Σ*)
    and rejected by ``right``, over subsets of ``right`` or over pairs
    of subsets.

    With ``quotient``, a universality search storing subset |Q| + 1
    builds ``right``'s quotient, which costs about |Q| steps: it goes on
    when nothing merges, and raises ``_Smaller`` otherwise.

    A subset steps on a letter through that letter's row, one C-level
    union of its members' cells with no loop per state.  The rows belong
    to this search and fill on first lookup: filling them up front costs
    |Q|·|Σ| before the first step, more than the many searches that stop
    after a few subsets spend in all.  ``Automaton.move`` keeps its loop:
    caching rows on ``Automaton`` and stepping ``move`` through them
    slowed the bench's class-reps workload from 7,735-7,995 to
    7,159-7,455 queries/s (three paired 12 s runs on one machine, seeds
    1-3).
    """
    absorbing = _absorbing_accepting(right)
    union = EMPTY.union
    if left is None:
        rows = [(sym, _Row(right, sym).__getitem__) for sym in right.alphabet]

        def successors(subset):
            if absorbing.isdisjoint(subset):
                for sym, row in rows:
                    yield sym, union(*map(row, subset))

        plain = right.accepting.isdisjoint
        calls = itertools.count(-len(right.states))

        def checked(subset) -> bool:
            # shortest_word tests each stored subset once
            if not next(calls):
                smaller = bisimulation_quotient(right)
                if smaller is not right:
                    raise _Smaller(smaller)
            return plain(subset)

        rejected = checked if quotient else plain
        starts = [right.initial]
        message = "universality search exceeded {} subsets"
    else:
        pair_rows = [(sym, _Row(left, sym).__getitem__,
                      _Row(right, sym).__getitem__)
                     for sym in right.alphabet]

        def successors(node):
            sa, sb = node
            if sa and absorbing.isdisjoint(sb):
                for sym, row_a, row_b in pair_rows:
                    yield sym, (union(*map(row_a, sa)),
                                union(*map(row_b, sb)))

        def rejected(node) -> bool:
            sa, sb = node
            return (not left.accepting.isdisjoint(sa)
                    and right.accepting.isdisjoint(sb))

        starts = [(left.initial, right.initial)]
        message = "inclusion search exceeded {} subset pairs"
    try:
        word = shortest_word(starts, right.alphabet, successors, rejected,
                             max_nodes)
    except CapacityError:
        raise CapacityError(message.format(max_nodes)) from None
    return Decision(True) if word is None else Decision(False, word)


def equivalent(a: Automaton, b: Automaton,
               strategy: "Strategy | str" = Strategy.GENERIC,
               max_nodes: int = DEFAULT_SUBSET_LIMIT) -> Decision:
    """Language equality via inclusion both ways.

    The witness of a negative answer belongs to exactly one language;
    ``direction`` records which ("first-only" or "second-only").
    ``"bounded"`` checks both automata, each the right-hand side of one
    inclusion, before either search runs.
    """
    if tuple(a.alphabet) != tuple(b.alphabet):
        raise ValueError("inclusion requires identical alphabets")
    _check_strategy(strategy, b, a)
    forward = _decide(a, b, max_nodes)
    if not forward.holds:
        return Decision(False, forward.witness, direction="first-only")
    backward = _decide(b, a, max_nodes)
    if not backward.holds:
        return Decision(False, backward.witness, direction="second-only")
    return Decision(True)
