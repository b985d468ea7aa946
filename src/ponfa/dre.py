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
strongly connected automaton.  Otherwise the cut table is decided like
any other: by their theorem, with the consistent symbols as the cut,
the language is definable exactly when the cut table has the orbit
property and the orbit languages of its orbits are definable.  A cut
that leaves one orbit needs no rule of its own: that orbit's gates are
its accepting states, which agree, since no move leaves the orbit, and
the recursion runs on its orbit language.  Every table the decision
reads has all its states reachable from its start, and
``core._proper_orbits`` finds its orbits of two or more states; a table
with none is R-trivial, so definable.  A cut may strand states, so the
Tarjan core finds a cut table's orbits.

The recursion runs only on the orbit languages of these orbits, one per
orbit, read from the orbit's first state.  Every start in an orbit
reaches the same states, so it minimizes to the same table with another
start state, and the decision reads that table's graph, never which
state is the start.  Each nested table has fewer states than the one it
came from, or, after a cut, as many states and fewer moves, since the
cut takes a move from every accepting state and minimizing and trimming
add none; so the pair (states, moves) falls at every level and the
nesting ends.  Verdicts are not memoised: equal orbit languages are
rare enough that a key per call costs more than it saves.
"""

from __future__ import annotations

from typing import Optional

from .core import Automaton, _proper_orbits, _strongly_connected_components
from .ops import DEFAULT_SUBSET_LIMIT, _explore, _hopcroft, _minimal_table

Table = list[list[Optional[int]]]   # a DFA's rows: start 0, None: no move


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


def _orbit_language(rows: Table, orbit: list[int], gates: list[int]
                    ) -> tuple[Table, list[bool]] | None:
    """The trimmed minimal DFA of the language read inside the orbit
    from its first state to a gate.  It determinizes to the orbit's
    states, in breadth-first order, and a rejecting sink, None, that
    takes the moves leaving the orbit or missing.  Any other start in
    the orbit reaches the same states, so it minimizes to the same
    table with another start state, and gets the same verdict."""
    members = set(orbit)
    sink: list[Optional[int]] = [None] * len(rows[orbit[0]])
    graph = _explore([orbit[0]], lambda q: [
        (s, t if t in members else None)    # None is no member
        for s, t in enumerate(sink if q is None else rows[q])])
    number = {q: i for i, q in enumerate(graph)}
    table = [[number[t] for _s, t in edges] for edges in graph.values()]
    final = set(gates)
    return _trim(*_hopcroft(table, [q in final for q in graph])[1:])


def _definable(d: tuple[Table, list[bool]] | None) -> bool:
    """Whether the language of a trimmed minimal DFA, None standing for
    the empty language, is definable: at once when the table has no
    orbit of two or more states, else by the orbit criterion, after a
    cut when the table is one orbit.  Each nested call gets a table
    with fewer states, or as many states and fewer moves."""
    if d is None:
        return True
    rows, accepting = d
    found = _proper_orbits(rows)
    if not found:
        return True
    if found == [list(range(len(rows)))]:
        # the whole automaton is one strongly connected component, whose
        # gates, its accepting states, agree; cut the symbols on which
        # every accepting state moves to one shared target, to break it
        final = [q for q, accepts in enumerate(accepting) if accepts]
        cut = [len({rows[q][s] for q in final}) == 1
               and rows[final[0]][s] is not None for s in range(len(rows[0]))]
        if not any(cut):    # the criterion's own rule: not definable
            return False
        rows = [[None if accepts and cut[s] else t
                 for s, t in enumerate(row)]
                for row, accepts in zip(rows, accepting)]
        # a cut may strand states, where the walk would see one orbit
        found = [sorted(component) for component in
                 _strongly_connected_components(range(len(rows)), rows)
                 if len(component) > 1]
    # only orbits of two or more states are checked: a single state's
    # one gate agrees with itself, and its orbit language has a minimal
    # DFA of at most one state, which is always definable
    faces = [_gates(rows, accepting, orbit) for orbit in found]
    if not all(agree for _, agree in faces):
        return False
    # an orbit of m states determinizes to at most m + 1 subsets, so
    # its orbit language needs no budget
    return all(_definable(_orbit_language(rows, orbit, gates))
               for orbit, (gates, _agree) in zip(found, faces))


def is_dre_definable(a: Automaton,
                     max_subsets: int = DEFAULT_SUBSET_LIMIT) -> bool:
    """Whether the language of the automaton is definable by a
    deterministic regular expression.  The input may be any automaton;
    the decision runs on its minimal DFA, as the integer table
    ``ops._minimal_table`` builds, and ``max_subsets`` bounds the subset
    construction that builds it."""
    return _definable(_trim(*_minimal_table(a, max_subsets)))
