"""Definability by deterministic regular expressions.

A deterministic (one-unambiguous) regular expression is one where,
while reading a word left to right, each symbol matches a unique
position of the expression.  Whether a language has such an expression
is decided on its minimal DFA, an integer table that names no state,
through the orbit criterion of Brüggemann-Klein and Wood: the strongly
connected components, or orbits, must present a uniform face to the
rest of the automaton (the orbit property), and the languages looping
inside each orbit must be definable in turn.

The recursion needs care on strongly connected automata, where the
orbit is the whole machine and restricting to it makes no progress.
There the decision proceeds by cutting, at the accepting states, the
consistent symbols, those on which all accepting states move to one
shared target.  With no consistent symbol there is nothing to cut and
the language is not definable, Brüggemann-Klein and Wood's rule for a
strongly connected automaton; if cutting cannot break the orbit the
language is not definable either.  The cut is where this
implementation goes beyond the plain restatement of the criterion, and
the no-progress verdict is logged when it decides.  Every table the
decision reads has all its states reachable from its start, so one
walk back to the start, ``core._all_reach_start``, tells whether it is
one orbit; the Tarjan core finds the orbits of the other tables and of
a cut one.

The recursion runs only on the orbit languages of orbits with two or
more states; each has a minimal DFA smaller than the automaton it came
from, so the nesting is bounded by the state count.  Verdicts are not
memoised: equal orbit languages are rare enough that a key per call
costs more than it saves.
"""

from __future__ import annotations

import logging
from typing import Optional

from .core import Automaton, _all_reach_start, _strongly_connected_components
from .ops import DEFAULT_SUBSET_LIMIT, _explore, _hopcroft, _minimal_table

logger = logging.getLogger(__name__)

Table = list[list[Optional[int]]]   # a DFA's rows: start 0, None: no move


def _orbits(rows: Table) -> list[list[int]]:
    """The orbits of a table, in the reverse topological order of
    ``core._strongly_connected_components``, each in state order.  A
    state with only a self-loop is its own orbit; so is a state with no
    cycle at all, the two differing only in their orbit language."""
    return [sorted(component) for component in _strongly_connected_components(
        range(len(rows)), [[t for t in row if t is not None] for row in rows])]


def _gates(rows: Table, accepting: list[bool], orbit: list[int]
           ) -> tuple[list[int], bool]:
    """An orbit's gates, in state order, and whether they agree: the
    same acceptance and, on each symbol, the same move out of the orbit.
    A gate is a state that is accepting or has a move leaving the orbit."""
    members = set(orbit)
    gates = [q for q in orbit if accepting[q] or any(
        t is not None and t not in members for t in rows[q])]
    faces = {(accepting[q], tuple(t if t not in members else None
                                  for t in rows[q])) for q in gates}
    return gates, len(faces) <= 1


def _trim(rows: Table, accepting: list[bool]
          ) -> tuple[Table, list[bool]] | None:
    """A minimal complete DFA without its dead state, the one rejecting
    state whose every move loops, or None when that is state 0, the
    start (the empty language).  The other states keep their order."""
    dead = next((q for q, row in enumerate(rows) if not accepting[q]
                 and all(t == q for t in row)), None)
    if dead is None:
        return rows, accepting
    if dead == 0:
        return None
    return ([[None if t == dead else t - (t > dead) for t in row]
             for q, row in enumerate(rows) if q != dead],
            accepting[:dead] + accepting[dead + 1:])


def _orbit_language(rows: Table, orbit: list[int], start: int,
                    gates: list[int]) -> tuple[Table, list[bool]] | None:
    """The trimmed minimal DFA of the language read inside the orbit
    from ``start`` to a gate.  It determinizes to the orbit states
    reachable from ``start``, in breadth-first order, and a rejecting
    sink, None, that takes the moves leaving the orbit or missing."""
    members = set(orbit)
    sink: list[Optional[int]] = [None] * len(rows[start])
    graph = _explore([start], lambda q: [
        (s, t if t in members else None)    # None is no member
        for s, t in enumerate(sink if q is None else rows[q])])
    number = {q: i for i, q in enumerate(graph)}
    table = [[number[t] for _s, t in edges] for edges in graph.values()]
    final = set(gates)
    return _trim(*_hopcroft(table, [q in final for q in graph])[1:])


def _definable(d: tuple[Table, list[bool]] | None) -> bool:
    """Whether the language of a trimmed minimal DFA, None standing for
    the empty language, is definable.  Every state of the table is
    reachable from state 0, so ``core._all_reach_start`` tells when it
    is one orbit without the Tarjan core; one with no consistent symbol
    is not definable, decided without a cut or a second orbit pass."""
    if d is None or len(d[0]) <= 1:
        return True
    rows, accepting = d
    found = ([list(range(len(rows)))] if _all_reach_start(rows)
             else _orbits(rows))
    if len(found) == 1:
        # the whole automaton is one strongly connected component, whose
        # gates, its accepting states, agree; cut the symbols on which
        # every accepting state moves to one shared target, to break it
        final = [q for q, accepts in enumerate(accepting) if accepts]
        cut = [len({rows[q][s] for q in final}) == 1
               and rows[final[0]][s] is not None for s in range(len(rows[0]))]
        if any(cut):
            rows = [[None if accepts and cut[s] else t
                     for s, t in enumerate(row)]
                    for row, accepts in zip(rows, accepting)]
            found = _orbits(rows)
        if len(found) == 1:
            logger.warning(
                "strongly connected automaton with %d states survives its "
                "cut; deciding not definable", len(rows))
            return False
    faces = [_gates(rows, accepting, orbit) for orbit in found]
    if not all(agree for _, agree in faces):
        return False
    for orbit, (gates, _agree) in zip(found, faces):
        # the orbit language of a single state has a minimal DFA of at
        # most one state, which is always definable
        if len(orbit) == 1:
            continue
        for start in orbit:
            # an orbit of m states, fewer than d has, determinizes to at
            # most m + 1 subsets, so no budget is needed
            if not _definable(_orbit_language(rows, orbit, start, gates)):
                return False
    return True


def is_dre_definable(a: Automaton,
                     max_subsets: int = DEFAULT_SUBSET_LIMIT) -> bool:
    """Whether the language of the automaton is definable by a
    deterministic regular expression.  The input may be any automaton;
    the decision runs on its minimal DFA, as the integer table
    ``ops._minimal_table`` builds, and ``max_subsets`` bounds the subset
    construction that builds it."""
    return _definable(_trim(*_minimal_table(a, max_subsets)))
