"""Core automaton model.

A nondeterministic finite automaton over string symbols.  Symbols and
states keep the order in which they were declared; every tie-break in
the toolkit (witness search, canonical serialization, enumeration) is
resolved through that order, so identical inputs always produce
identical outputs.

The automaton classes recognised by ``classify`` form a small lattice:

* ``DFA``          single initial state, at most one move per symbol
* ``PO_DFA``       deterministic and partially ordered
* ``RPO_NFA``      partially ordered, and a state that loops on a
                   symbol has no other move on that symbol
* ``PO_NFA``       partially ordered: the only cycles are self-loops
* ``NFA``          everything else

"Partially ordered" means the reachability relation on states is a
partial order, equivalently that every cycle in the transition graph
is a self-loop.  ``_ordered_states`` finds such a cycle or orders the
states, each after its targets, in one Kahn pass for classification,
depth and the quotient.  The Tarjan core runs only on the integer
tables of the triviality, orbit and word-counting passes, and the first
two skip it on a table that ``_all_reach_start``, one walk back to
state 0, finds strongly connected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from json.encoder import encode_basestring_ascii
from typing import Hashable, Iterable, Mapping, Sequence, TypeVar

Word = tuple[str, ...]

EMPTY: frozenset[str] = frozenset()

Node = TypeVar("Node", bound=Hashable)


class FormatError(ValueError):
    """Raised for malformed automaton files or invalid components."""


class CapacityError(RuntimeError):
    """Raised when a construction exceeds a configured size budget."""


class AutomatonKind(str, Enum):
    DFA = "DFA"
    PO_DFA = "PO_DFA"
    RPO_NFA = "RPO_NFA"
    PO_NFA = "PO_NFA"
    NFA = "NFA"


@dataclass(frozen=True)
class AutomatonClass:
    """Classification flags plus the most specific matching label."""

    label: AutomatonKind
    is_complete: bool
    is_deterministic: bool
    is_partially_ordered: bool
    is_self_loop_deterministic: bool


@dataclass(frozen=True)
class Decision:
    """Outcome of a yes/no language question.

    ``witness`` is present exactly when ``holds`` is false and the
    failure can be demonstrated by a word.  ``direction`` is only set
    by the equivalence check, where it records which input accepts the
    witness ("first-only" or "second-only").
    """

    holds: bool
    witness: Word | None = None
    direction: str | None = None


class Automaton:
    """Finite automaton with ordered alphabet and state list.

    ``transitions`` maps ``(state, symbol)`` to a frozenset of target
    states; pairs without an entry have no move.  Instances are treated
    as immutable once constructed.
    """

    __slots__ = ("alphabet", "states", "initial", "accepting", "transitions",
                 "_state_index", "_symbol_index")

    def __init__(self, alphabet: Sequence[str], states: Sequence[str],
                 initial: Iterable[str], accepting: Iterable[str],
                 transitions: Mapping[tuple[str, str], Iterable[str]]):
        self.alphabet: tuple[str, ...] = tuple(alphabet)
        self.states: tuple[str, ...] = tuple(states)
        self.initial: frozenset[str] = frozenset(initial)
        self.accepting: frozenset[str] = frozenset(accepting)
        self.transitions: dict[tuple[str, str], frozenset[str]] = {
            key: frozenset(targets) for key, targets in transitions.items()
            if targets
        }
        self._state_index = {q: i for i, q in enumerate(self.states)}
        self._symbol_index = {a: i for i, a in enumerate(self.alphabet)}
        self._validate()

    def _validate(self) -> None:
        if not self.alphabet:
            raise FormatError("alphabet must not be empty")
        if not self.states:
            raise FormatError("state list must not be empty")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise FormatError("duplicate symbol in alphabet")
        if len(set(self.states)) != len(self.states):
            raise FormatError("duplicate state name")
        for q in self.initial:
            if q not in self._state_index:
                raise FormatError(f"initial state {q!r} is not declared")
        for q in self.accepting:
            if q not in self._state_index:
                raise FormatError(f"accepting state {q!r} is not declared")
        for (q, a), targets in self.transitions.items():
            if q not in self._state_index:
                raise FormatError(f"transition source {q!r} is not declared")
            if a not in self._symbol_index:
                raise FormatError(f"transition symbol {a!r} is not declared")
            for t in targets:
                if t not in self._state_index:
                    raise FormatError(f"transition target {t!r} is not declared")

    def state_index(self, q: str) -> int:
        return self._state_index[q]

    def symbol_index(self, a: str) -> int:
        return self._symbol_index[a]

    def step(self, state: str, symbol: str) -> frozenset[str]:
        return self.transitions.get((state, symbol), EMPTY)

    def move(self, subset: Iterable[str], symbol: str) -> frozenset[str]:
        cell = self.transitions.get
        out: set[str] = set()
        for q in subset:
            out |= cell((q, symbol), EMPTY)
        return frozenset(out)

    def self_loop_symbols(self, state: str) -> frozenset[str]:
        return frozenset(a for a in self.alphabet if state in self.step(state, a))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Automaton):
            return NotImplemented
        return (self.alphabet == other.alphabet and self.states == other.states
                and self.initial == other.initial
                and self.accepting == other.accepting
                and self.transitions == other.transitions)

    def __repr__(self) -> str:
        return (f"Automaton({len(self.states)} states, "
                f"alphabet {list(self.alphabet)})")


def parse_automaton(text: str) -> Automaton:
    """Parse the JSON automaton format.

    The object needs the fields ``alphabet``, ``states``, ``initial``,
    ``accepting`` and ``transitions`` (a list of ``[src, symbol, dst]``
    triples).  Symbol and state order is the declaration order.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from None
    if not isinstance(raw, dict):
        raise FormatError("top-level value must be a JSON object")
    for field in ("alphabet", "states", "initial", "accepting", "transitions"):
        if field not in raw:
            raise FormatError(f"missing field {field!r}")
        if not isinstance(raw[field], list):
            raise FormatError(f"field {field!r} must be a list")
    for field in ("alphabet", "states", "initial", "accepting"):
        for item in raw[field]:
            if not isinstance(item, str):
                raise FormatError(f"field {field!r} contains non-string {item!r}")
    transitions: dict[tuple[str, str], set[str]] = {}
    for entry in raw["transitions"]:
        if isinstance(entry, list) and len(entry) == 3:
            src, symbol, dst = entry
            if (isinstance(src, str) and isinstance(symbol, str)
                    and isinstance(dst, str)):
                transitions.setdefault((src, symbol), set()).add(dst)
                continue
        raise FormatError(f"transition {entry!r} is not a [src, symbol, dst] "
                          "triple of strings")
    return Automaton(raw["alphabet"], raw["states"], raw["initial"],
                     raw["accepting"], transitions)


def serialize_automaton(a: Automaton) -> str:
    """Serialize to the JSON format in canonical order.

    Transitions are sorted by source state, then symbol, then target,
    all in declaration order, so serializing a parsed file is a fixed
    point after one round trip.  The text is what ``json.dumps`` with
    ``indent=2`` prints, plus a newline, written directly: each name is
    quoted once, and the lists are joined at their fixed indents.
    """
    states = [encode_basestring_ascii(q) for q in a.states]
    symbols = [encode_basestring_ascii(sym) for sym in a.alphabet]
    index = a.state_index
    triples = sorted((index(q), a.symbol_index(sym), index(t))
                     for (q, sym), targets in a.transitions.items()
                     for t in targets)
    fields = {
        "alphabet": symbols,
        "states": states,
        "initial": [states[i] for i in sorted(map(index, a.initial))],
        "accepting": [states[i] for i in sorted(map(index, a.accepting))],
        "transitions": [f"[\n      {states[q]},\n      {symbols[s]},\n"
                        f"      {states[t]}\n    ]" for q, s, t in triples],
    }
    return "{\n" + ",\n".join(
        f'  "{key}": ' + ("[\n    " + ",\n    ".join(items) + "\n  ]"
                          if items else "[]")
        for key, items in fields.items()) + "\n}\n"


def parse_word(tokens: Sequence[str] | str, alphabet: Sequence[str]) -> Word:
    """Interpret a word given either as symbol tokens or as a plain string.

    A plain string is split into characters, which is only allowed when
    every alphabet symbol is a single character.
    """
    if isinstance(tokens, str):
        if any(len(sym) != 1 for sym in alphabet):
            raise FormatError("string form requires single-character symbols")
        tokens = list(tokens)
    word = tuple(tokens)
    known = set(alphabet)
    for sym in word:
        if sym not in known:
            raise FormatError(f"symbol {sym!r} is not in the alphabet")
    return word


def accepts(a: Automaton, word: Iterable[str]) -> bool:
    """Subset simulation; true when the word reaches an accepting state."""
    current = a.initial
    for symbol in word:
        if symbol not in a._symbol_index:
            raise ValueError(f"symbol {symbol!r} is not in the alphabet")
        current = a.move(current, symbol)
    return bool(current & a.accepting)


def _strongly_connected_components(
        vertices: Iterable[int], edges: Sequence[Sequence[int]]
        ) -> list[list[int]]:
    """Iterative Tarjan over the integer graph whose vertex ``v`` has the
    successors ``edges[v]``, with its roots taken from ``vertices``.
    Components come out in reverse topological order, the same with or
    without self-loops and repeated edges."""
    index = [-1] * len(edges)
    low = [0] * len(edges)
    on_stack = [False] * len(edges)
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0
    for root in vertices:
        if index[root] >= 0:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            v, ei = work.pop()
            if ei == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            targets = edges[v]
            while ei < len(targets):
                w = targets[ei]
                ei += 1
                if index[w] < 0:
                    work.append((v, ei))
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            if advanced:
                continue
            if low[v] == index[v]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    component.append(w)
                    if w == v:
                        break
                components.append(component)
            if work:
                parent = work[-1][0]
                if low[v] < low[parent]:
                    low[parent] = low[v]
    return components


def _all_reach_start(rows: Sequence[Sequence[int | None]]) -> bool:
    """Whether every state of a table reaches state 0, found by one walk
    back from 0 over the predecessor lists; a ``None`` cell is no move.
    On a table whose every state is reachable from 0, as on every table
    the triviality and orbit passes read, True means that the table is
    one strongly connected component."""
    sources: list[list[int]] = [[] for _ in rows]
    for q, row in enumerate(rows):
        for t in row:
            if t is not None:
                sources[t].append(q)
    seen = [False] * len(rows)
    seen[0] = True
    order = [0]
    for t in order:     # the list grows while it is read
        for q in sources[t]:
            if not seen[q]:
                seen[q] = True
                order.append(q)
    return len(order) == len(rows)


def _ordered_states(a: Automaton) -> list[str] | None:
    """Every state after each of its targets other than itself, or None
    when a cycle runs through two or more states.  Kahn's pass: a state
    waits for one placement per (cell, target) other than itself.  The
    states with none come first, in state order, and each placed state
    releases its sources in transitions-dict order, not the hash seed's."""
    waiting = dict.fromkeys(a.states, 0)
    sources: dict[str, list[str]] = {q: [] for q in a.states}
    for (q, _sym), targets in a.transitions.items():
        for t in targets:
            if t != q:
                waiting[q] += 1
                sources[t].append(q)
    order = [q for q, count in waiting.items() if not count]
    for t in order:     # the list grows while it is read
        for q in sources[t]:
            waiting[q] -= 1
            if not waiting[q]:
                order.append(q)
    return order if len(order) == len(a.states) else None


def classify(a: Automaton) -> AutomatonClass:
    """Compute structural flags and the most specific class label.

    The constructor drops empty target sets, so the flags read only the
    stored cells: the automaton is complete when every (state, symbol)
    pair has a cell, deterministic when it has one initial state and
    every cell one target, and self-loop-deterministic when every cell
    holding its own source holds nothing else.  It is partially ordered
    when ``_ordered_states`` orders every state.
    """
    cells = a.transitions
    complete = len(cells) == len(a.states) * len(a.alphabet)
    deterministic = len(a.initial) == 1 and all(
        len(targets) == 1 for targets in cells.values())
    ordered = _ordered_states(a) is not None
    loop_det = all(len(targets) == 1
                   for (q, _sym), targets in cells.items() if q in targets)
    if deterministic and ordered:
        label = AutomatonKind.PO_DFA
    elif deterministic:
        label = AutomatonKind.DFA
    elif ordered and loop_det:
        label = AutomatonKind.RPO_NFA
    elif ordered:
        label = AutomatonKind.PO_NFA
    else:
        label = AutomatonKind.NFA
    return AutomatonClass(label, complete, deterministic, ordered, loop_det)


def complete_automaton(a: Automaton) -> Automaton:
    """Add a nonaccepting sink state for all missing moves.

    Returns the automaton unchanged when it is already complete.  The
    sink is named ``sink``, with ``'`` appended while that name is
    taken.  It only carries self-loops, so partial order and self-loop
    determinism survive completion.
    """
    missing = [(q, sym) for q in a.states for sym in a.alphabet
               if not a.step(q, sym)]
    if not missing:
        return a
    sink = "sink"
    while sink in a._state_index:
        sink = sink + "'"
    transitions: dict[tuple[str, str], frozenset[str]] = dict(a.transitions)
    for q, sym in missing:
        transitions[(q, sym)] = frozenset((sink,))
    for sym in a.alphabet:
        transitions[(sink, sym)] = frozenset((sink,))
    return Automaton(a.alphabet, (*a.states, sink), a.initial, a.accepting,
                     transitions)


def depth(a: Automaton) -> int:
    """Length of the longest self-loop-free path from an initial state.

    Only defined for partially ordered automata; the length counts
    transitions, not states.  ``_ordered_states`` places every state
    after its targets, so every target's longest path is known before
    its sources are reached.
    """
    order = _ordered_states(a)
    if order is None:
        raise ValueError("depth requires a partially ordered automaton")
    longest: dict[str, int] = {}
    for q in order:
        longest[q] = max((1 + longest[t] for sym in a.alphabet
                          for t in a.step(q, sym) if t != q), default=0)
    return max((longest[q] for q in a.initial), default=0)
