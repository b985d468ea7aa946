"""Orbit analysis and definability by deterministic regular expressions.

A deterministic (one-unambiguous) regular expression is one where,
while reading a word left to right, each symbol matches a unique
position of the expression.  Whether a language has such an expression
is decided on its minimal DFA through the orbit criterion of
Brüggemann-Klein and Wood: the strongly connected components, or
orbits, must present a uniform face to the rest of the automaton (the
orbit property), and the languages looping inside each orbit must be
definable in turn.

The recursion needs care on strongly connected automata, where the
orbit is the whole machine and restricting to it makes no progress.
There the decision proceeds by cutting, at the accepting states, the
symbols on which all accepting states agree; if cutting cannot break
the orbit the language is not definable.  The cut is where this
implementation goes beyond the plain restatement of the criterion, and
the no-progress verdict is logged when it decides.

The recursion runs only on the orbit languages of orbits with two or
more states; each has a minimal DFA smaller than the automaton it came
from, so the nesting is bounded by the state count.  Verdicts are not
memoised: equal orbit languages are rare enough that a key per call
costs more than it saves.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .core import Automaton, components
from .ops import DEFAULT_SUBSET_LIMIT, co_reachable_states, minimal_dfa

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class OrbitDecomposition:
    """Partition of a DFA's states into maximal strongly connected
    components, with the gate states of each.  A gate is a state that
    is accepting or has a transition leaving its component."""

    orbits: tuple[frozenset[str], ...]
    gates: tuple[frozenset[str], ...]

    def orbit_of(self, state: str) -> frozenset[str]:
        for orbit in self.orbits:
            if state in orbit:
                return orbit
        raise KeyError(state)


def orbits(d: Automaton) -> OrbitDecomposition:
    """Orbit decomposition of a deterministic automaton.  A state with
    only a self-loop is its own orbit; so is a state with no cycle at
    all, the two differing only in their orbit language."""
    # checked here, not through classify, which would add a second
    # component pass
    if len(d.initial) != 1 or any(len(t) > 1 for t in d.transitions.values()):
        raise ValueError("orbit analysis requires a deterministic automaton")
    orbit_list = tuple(frozenset(component) for component in components(d))
    gate_list = []
    for orbit in orbit_list:
        gate_list.append(frozenset(
            q for q in orbit
            if q in d.accepting
            or any(t not in orbit
                   for symbol in d.alphabet for t in d.step(q, symbol))))
    return OrbitDecomposition(orbit_list, tuple(gate_list))


def has_orbit_property(d: Automaton) -> bool:
    """True when, in every orbit, all gates agree: same acceptance
    status, and on each symbol the same targets outside the orbit."""
    return _gates_agree(d, orbits(d))


def _gates_agree(d: Automaton, decomposition: OrbitDecomposition) -> bool:
    for orbit, gates in zip(decomposition.orbits, decomposition.gates):
        ordered = sorted(gates, key=d.state_index)
        if len(ordered) < 2:
            continue
        first = ordered[0]
        for other in ordered[1:]:
            if (first in d.accepting) != (other in d.accepting):
                return False
            for symbol in d.alphabet:
                outside_first = d.step(first, symbol) - orbit
                outside_other = d.step(other, symbol) - orbit
                if outside_first != outside_other:
                    return False
    return True


def _restrict(d: Automaton, keep: set[str] | frozenset[str],
              initial: list[str], accepting: frozenset[str]) -> Automaton:
    """``d`` with its states, and the moves between them, cut down to
    ``keep``."""
    states = [q for q in d.states if q in keep]
    transitions = {
        (source, symbol): targets & keep
        for (source, symbol), targets in d.transitions.items()
        if source in keep
    }
    return Automaton(d.alphabet, states, initial, accepting, transitions)


def _trim(d: Automaton) -> Automaton | None:
    """Drop states that cannot reach an accepting state, or None when
    none remains reachable (the empty language)."""
    useful = co_reachable_states(d)
    initial = [q for q in d.initial if q in useful]
    if not initial:
        return None
    return _restrict(d, useful, initial, d.accepting & useful)


def _minimal_trimmed(a: Automaton,
                     max_subsets: int = DEFAULT_SUBSET_LIMIT) -> Automaton | None:
    return _trim(minimal_dfa(a, max_subsets))


def _consistent_symbols(d: Automaton) -> set[str]:
    """Symbols on which every accepting state moves to one shared
    target."""
    consistent = set()
    for symbol in d.alphabet:
        targets = {d.step(q, symbol) for q in d.accepting}
        if len(targets) == 1 and len(next(iter(targets))) == 1:
            consistent.add(symbol)
    return consistent


def _cut_at_accepting(d: Automaton, symbols: set[str]) -> Automaton:
    transitions = {
        (source, symbol): targets
        for (source, symbol), targets in d.transitions.items()
        if not (source in d.accepting and symbol in symbols)
    }
    return Automaton(d.alphabet, d.states, d.initial, d.accepting,
                     transitions)


def _definable(d: Automaton | None) -> bool:
    """Whether the language of a trimmed minimal DFA, None standing for
    the empty language, is definable."""
    if d is None or len(d.states) <= 1:
        return True
    decomposition = orbits(d)
    if len(decomposition.orbits) == 1:
        # the whole automaton is one strongly connected component, whose
        # gates, its accepting states, agree; cut the symbols all
        # accepting states agree on, to break the component
        d = _cut_at_accepting(d, _consistent_symbols(d))
        decomposition = orbits(d)
        if len(decomposition.orbits) == 1:
            logger.warning(
                "strongly connected automaton with %d states survives its "
                "cut; deciding not definable", len(d.states))
            return False
    if not _gates_agree(d, decomposition):
        return False
    for orbit, gates in zip(decomposition.orbits, decomposition.gates):
        # the orbit language of a single state has a minimal DFA of at
        # most one state, which is always definable
        if len(orbit) == 1:
            continue
        for start in sorted(orbit, key=d.state_index):
            # an orbit of m states, fewer than d has, determinizes to at
            # most m + 1 subsets, so the top-level budget cannot bind
            restricted = _restrict(d, orbit, [start], gates)
            if not _definable(_minimal_trimmed(restricted)):
                return False
    return True


def is_dre_definable(a: Automaton,
                     max_subsets: int = DEFAULT_SUBSET_LIMIT) -> bool:
    """Whether the language of the automaton is definable by a
    deterministic regular expression.  The input may be any automaton;
    the decision runs on its minimal DFA, and ``max_subsets`` bounds
    the subset construction that builds it."""
    return _definable(_minimal_trimmed(a, max_subsets))
