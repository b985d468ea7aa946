"""Hardness constructions that tie universality to other problems.

Satisfiability of a CNF formula becomes non-universality of a small
self-loop-deterministic automaton over {0, 1}: the automaton accepts
every word except the length-n bit strings that encode satisfying
assignments.

Acceptance of a word by a space-bounded deterministic Turing machine
becomes non-universality of a binary partially ordered automaton: the
machine's computation is spelled out as a sequence of tape snapshots,
each cell encoded as a fixed-length bit block, and the automaton
accepts exactly the words that fail to be that one encoding.  The
detector families cover malformed block structure, a wrong starting
snapshot, a cell that contradicts the transition table, and runs that
stop too early or keep going after acceptance.  Every fragment is a
trie over block words (``_trie``) or a chain of states joined on both
bits.  The trie of the starting snapshot accepts its proper prefixes,
so words shorter than it need no fragment of their own.

Both reductions build through one register over the sketch's alphabet
(``_Sketch.node``; Daciuk, Mihov, Watson and Watson, 2000), so each
output is its own bisimulation quotient; both raise CapacityError past
``DEFAULT_STATE_LIMIT`` states.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Optional, Sequence

from .core import (Automaton, AutomatonKind, CapacityError, FormatError,
                   Word, classify)

DEFAULT_STATE_LIMIT = 200_000
SEPARATOR = "#"
MOVES = ("L", "R", "S")


@dataclass(frozen=True)
class CnfFormula:
    """Conjunction of clauses over variables 1..variable_count.

    A clause is a set of nonzero integer literals; positive k stands
    for variable k, negative k for its negation.  A clause containing
    both k and -k is rejected, and so is a formula without clauses.
    """

    variable_count: int
    clauses: tuple[frozenset[int], ...]

    def __post_init__(self):
        object.__setattr__(self, "clauses",
                           tuple(frozenset(clause) for clause in self.clauses))
        if self.variable_count < 1:
            raise FormatError("a formula needs at least one variable")
        if not self.clauses:
            raise FormatError("a formula needs at least one clause")
        for i, clause in enumerate(self.clauses, start=1):
            for literal in clause:
                if not isinstance(literal, int) or isinstance(literal, bool) \
                        or literal == 0:
                    raise FormatError(
                        f"clause {i}: literals must be nonzero integers")
                if abs(literal) > self.variable_count:
                    raise FormatError(
                        f"clause {i}: variable {abs(literal)} out of range")
                if -literal in clause:
                    raise FormatError(
                        f"clause {i} contains a variable and its negation")

    def evaluate(self, assignment: Sequence[bool]) -> bool:
        if len(assignment) != self.variable_count:
            raise ValueError("assignment length must match the variable count")
        return all(
            any(assignment[abs(literal) - 1] == (literal > 0)
                for literal in clause)
            for clause in self.clauses)


def parse_dimacs(text: str) -> CnfFormula:
    """Parse the DIMACS CNF format: a 'p cnf <vars> <clauses>' header
    followed by whitespace-separated literals, clauses ending in 0."""
    header = None
    literals: list[int] = []
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if header is not None:
                raise FormatError(f"line {number}: duplicate header")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise FormatError(
                    f"line {number}: expected 'p cnf <variables> <clauses>'")
            try:
                header = (int(parts[2]), int(parts[3]))
            except ValueError:
                raise FormatError(
                    f"line {number}: header counts must be integers") from None
            continue
        if header is None:
            raise FormatError(f"line {number}: clause before the header")
        for token in line.split():
            try:
                literals.append(int(token))
            except ValueError:
                raise FormatError(
                    f"line {number}: bad literal {token!r}") from None
    if header is None:
        raise FormatError("missing 'p cnf' header")
    clauses: list[frozenset[int]] = []
    current: list[int] = []
    for literal in literals:
        if literal == 0:
            clauses.append(frozenset(current))
            current = []
        else:
            current.append(literal)
    if current:
        raise FormatError("last clause is not terminated by 0")
    if len(clauses) != header[1]:
        raise FormatError(
            f"header announces {header[1]} clauses, found {len(clauses)}")
    return CnfFormula(header[0], tuple(clauses))


def cnf_to_rponfa(formula: CnfFormula) -> Automaton:
    """Automaton over {0, 1} accepting every word except the length-n
    encodings of satisfying assignments, where bit j gives the value
    of variable j.  Universal exactly when the formula is
    unsatisfiable.

    Each clause contributes a path that reads precisely the bit
    patterns falsifying it, and a chain accepts every word whose
    length differs from the variable count.  Both are built from
    their ends through ``dtm_to_ponfa``'s register, ``_Sketch.node``,
    so clauses alike after bit j share the state it reaches and the
    automaton is its own bisimulation quotient.  Builds at most
    ``DEFAULT_STATE_LIMIT`` states, and raises CapacityError past that.

    Every output has at least 2n + 2 states: the length chain's n + 1,
    one clause path's n and the start state, which the register cannot
    merge across these groups or across depths.  A formula with
    2n + 2 > ``DEFAULT_STATE_LIMIT`` is refused before any state is
    made.  A formula of one one-literal clause meets the bound.
    """
    n = formula.variable_count
    if 2 * n + 2 > DEFAULT_STATE_LIMIT:
        raise CapacityError(
            f"construction exceeded {DEFAULT_STATE_LIMIT} states")
    sk = _Sketch(("0", "1"))
    chain = sk.state("longer", accepting=True)
    sk.any_edge(chain, chain)
    for j in range(n, 0, -1):
        # the state after j bits accepts unless j is the variable count
        chain = sk.node("len", j != n, sk.every(chain))
    starts = sk.every(chain)
    # free[i]: after bit n - i of a clause on no later variable, made once
    free = [sk.node("c", True, ())]
    for clause in formula.clauses:
        last = max(map(abs, clause), default=1)
        while len(free) <= n - last:
            free.append(sk.node("c", False, sk.every(free[-1])))
        path = free[n - last]
        for j in range(last, 0, -1):
            # each bit for variable j, with the literal it makes true
            moves = [(bit, path) for bit, literal in (("0", -j), ("1", j))
                     if literal not in clause]
            if j > 1:
                path = sk.node("c", False, moves)
        starts += moves     # the bits for variable 1 leave the start
    sk.initial.append(sk.node("start", True, starts))
    result = sk.build()
    assert classify(result).label is AutomatonKind.RPO_NFA
    return result


def sat_brute_force(formula: CnfFormula) -> bool:
    """Satisfiability by assignment enumeration, for use as an oracle."""
    if formula.variable_count > 20:
        raise ValueError("brute force is limited to 20 variables")
    return any(formula.evaluate(assignment)
               for assignment in itertools.product(
                   (False, True), repeat=formula.variable_count))


class Dtm:
    """Deterministic Turing machine confined to a fixed tape window.

    ``space_bound`` is the number of usable cells; the head starts on
    cell 1 and must stay within 1..space_bound throughout the run.
    The transition table maps (state, tape symbol) to (state, written
    symbol, move) with move one of "L", "R", "S", and must cover every
    pair except those of the accepting state, where the machine halts.
    """

    __slots__ = ("states", "tape_alphabet", "input_alphabet", "blank",
                 "initial", "accepting", "transitions", "space_bound")

    def __init__(self, states: Sequence[str], tape_alphabet: Sequence[str],
                 input_alphabet: Sequence[str], blank: str, initial: str,
                 accepting: str,
                 transitions: Mapping[tuple[str, str], Iterable[str]],
                 space_bound: int):
        self.states = tuple(states)
        self.tape_alphabet = tuple(tape_alphabet)
        self.input_alphabet = tuple(input_alphabet)
        self.blank = blank
        self.initial = initial
        self.accepting = accepting
        self.transitions = {key: tuple(value)
                            for key, value in dict(transitions).items()}
        self.space_bound = int(space_bound)
        self._validate()

    def _validate(self) -> None:
        if len(set(self.states)) != len(self.states) or not self.states:
            raise FormatError("states must be distinct and nonempty")
        if len(set(self.tape_alphabet)) != len(self.tape_alphabet) \
                or not self.tape_alphabet:
            raise FormatError("tape alphabet must be distinct and nonempty")
        unknown = set(self.input_alphabet) - set(self.tape_alphabet)
        if unknown:
            raise FormatError(
                f"input symbols missing from the tape alphabet: {sorted(unknown)}")
        if self.blank not in self.tape_alphabet:
            raise FormatError("the blank must be a tape symbol")
        if self.blank in self.input_alphabet:
            raise FormatError("the blank must not be an input symbol")
        for state in (self.initial, self.accepting):
            if state not in self.states:
                raise FormatError(f"unknown state {state!r}")
        if self.initial == self.accepting:
            raise FormatError("initial and accepting states must differ")
        if self.space_bound < 1:
            raise FormatError("space bound must be positive")
        for (state, symbol), value in self.transitions.items():
            if state not in self.states:
                raise FormatError(f"transition from unknown state {state!r}")
            if symbol not in self.tape_alphabet:
                raise FormatError(f"transition on unknown symbol {symbol!r}")
            if len(value) != 3:
                raise FormatError(
                    f"transition for ({state!r}, {symbol!r}) must be "
                    "(state, symbol, move)")
            target, written, move = value
            if target not in self.states:
                raise FormatError(f"transition to unknown state {target!r}")
            if written not in self.tape_alphabet:
                raise FormatError(f"transition writes unknown symbol {written!r}")
            if move not in MOVES:
                raise FormatError(f"move must be one of {MOVES}, got {move!r}")
        for state in self.states:
            if state == self.accepting:
                continue
            for symbol in self.tape_alphabet:
                if (state, symbol) not in self.transitions:
                    raise FormatError(
                        f"missing transition for ({state!r}, {symbol!r})")


def parse_dtm(text: str) -> Dtm:
    """Parse a machine from JSON with fields states, tape_alphabet,
    input_alphabet, blank, initial, accepting, space_bound and
    transitions (a list of [state, symbol, state, symbol, move])."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as error:
        raise FormatError(f"invalid JSON: {error}") from None
    if not isinstance(data, dict):
        raise FormatError("machine description must be a JSON object")
    required = ("states", "tape_alphabet", "input_alphabet", "blank",
                "initial", "accepting", "space_bound", "transitions")
    missing = [field for field in required if field not in data]
    if missing:
        raise FormatError(f"missing fields: {', '.join(missing)}")
    for field in ("states", "tape_alphabet", "input_alphabet", "transitions"):
        if not isinstance(data[field], list):
            raise FormatError(f"field {field!r} must be a list")
    for field in ("blank", "initial", "accepting"):
        if not isinstance(data[field], str):
            raise FormatError(f"field {field!r} must be a string")
    if not isinstance(data["space_bound"], int) \
            or isinstance(data["space_bound"], bool):
        raise FormatError("field 'space_bound' must be an integer")
    transitions: dict[tuple[str, str], tuple[str, str, str]] = {}
    for i, entry in enumerate(data["transitions"]):
        if not isinstance(entry, list) or len(entry) != 5 \
                or not all(isinstance(part, str) for part in entry):
            raise FormatError(
                f"transition {i}: expected [state, symbol, state, symbol, move]")
        key = (entry[0], entry[1])
        if key in transitions:
            raise FormatError(
                f"transition {i}: duplicate rule for ({entry[0]!r}, {entry[1]!r})")
        transitions[key] = (entry[2], entry[3], entry[4])
    return Dtm(data["states"], data["tape_alphabet"], data["input_alphabet"],
               data["blank"], data["initial"], data["accepting"],
               transitions, data["space_bound"])


class SimulationStatus(Enum):
    ACCEPTED = "accepted"
    LOOPS = "loops"


@dataclass(frozen=True)
class Configuration:
    """Tape snapshot: the control state, the 1-based head position and
    the full contents of the space window."""

    state: str
    head: int
    tape: tuple[str, ...]


@dataclass(frozen=True)
class SimulationResult:
    status: SimulationStatus
    configurations: tuple[Configuration, ...]

    @property
    def steps(self) -> int:
        return len(self.configurations) - 1


def _starting_configuration(machine: Dtm, word: Word) -> Configuration:
    """The snapshot before the first step: the input, padded with
    blanks to the space bound, under the head in the initial state."""
    for symbol in word:
        if symbol not in machine.input_alphabet:
            raise ValueError(f"input symbol {symbol!r} is not in the "
                             "machine's input alphabet")
    if len(word) > machine.space_bound:
        raise ValueError("input longer than the space bound")
    return Configuration(machine.initial, 1, tuple(word) + (
        machine.blank,) * (machine.space_bound - len(word)))


def simulate(machine: Dtm, word: Word) -> SimulationResult:
    """Run the machine on the word until it accepts or repeats a
    snapshot.  A deterministic run that repeats one loops forever and
    never accepts; its trace ends on the repeated snapshot.  A head
    move outside the space window raises ValueError.
    """
    config = _starting_configuration(machine, word)
    tape, state, head = list(config.tape), config.state, config.head
    # insertion-ordered, so the keys are the run so far
    trace = {config: None}
    while state != machine.accepting:
        state, written, move = machine.transitions[(state, tape[head - 1])]
        tape[head - 1] = written
        if move == "L":
            head -= 1
        elif move == "R":
            head += 1
        if not 1 <= head <= machine.space_bound:
            raise ValueError(
                f"head left the tape window after step {len(trace)}")
        config = Configuration(state, head, tuple(tape))
        if config in trace:
            return SimulationResult(SimulationStatus.LOOPS,
                                    (*trace, config))
        trace[config] = None
    return SimulationResult(SimulationStatus.ACCEPTED, tuple(trace))


def _blocks(count: int) -> list[Word]:
    """The block of every symbol index below ``count``: 0 0 1 b1 1 b2 1
    ... bK 1 for the K-bit code of the index, so that 00 occurs only at
    block starts in any concatenation of blocks."""
    code_length = max(1, (count - 1).bit_length())
    return [("0", "0", "1") + tuple(itertools.chain.from_iterable(
                (bit, "1") for bit in format(index, f"0{code_length}b")))
            for index in range(count)]


class _Encoding:
    """Fixed-length binary blocks for tape cells and the separator.

    A cell is a pair (tape symbol, state or None); the separator keeps
    snapshots apart.  Symbols are numbered in a fixed order (cells
    grouped by tape symbol, plain cell first, separator last), and
    symbol i is written as block i of ``_blocks``.
    """

    def __init__(self, machine: Dtm):
        symbols: list[object] = []
        for tape_symbol in machine.tape_alphabet:
            symbols.append((tape_symbol, None))
            for state in machine.states:
                symbols.append((tape_symbol, state))
        symbols.append(SEPARATOR)
        self.symbols: tuple[object, ...] = tuple(symbols)
        self.index = {symbol: i for i, symbol in enumerate(symbols)}
        self.blocks = _blocks(len(symbols))


def _encode_configurations(machine: Dtm, encoding: _Encoding,
                           configurations: Iterable[Configuration]) -> Word:
    """The snapshots in the block encoding ``encode_run`` describes."""
    sequence: list[object] = [SEPARATOR]
    for config in configurations:
        sequence.extend(
            (config.tape[j], config.state if config.head == j + 1 else None)
            for j in range(machine.space_bound))
        sequence.append(SEPARATOR)
    bits: list[str] = []
    for symbol in sequence:
        bits.extend(encoding.blocks[encoding.index[symbol]])
    return tuple(bits)


def encode_run(machine: Dtm, word: Word) -> Optional[Word]:
    """Binary encoding of the accepting computation on the word, or
    None when the run loops (``SimulationStatus.LOOPS``).  The encoding
    is separator, first snapshot, separator, next snapshot, and so on,
    closing with a separator; every symbol is one block."""
    outcome = simulate(machine, word)
    if outcome.status is not SimulationStatus.ACCEPTED:
        return None
    return _encode_configurations(machine, _Encoding(machine),
                                  outcome.configurations)


class _Sketch:
    """Mutable scratchpad for a reduction automaton over ``alphabet``:
    ``node`` is the one register both reductions build through, and a
    state past ``DEFAULT_STATE_LIMIT`` raises CapacityError."""

    def __init__(self, alphabet: Sequence[str]):
        self.alphabet = tuple(alphabet)
        self.states: list[str] = []
        self.initial: list[str] = []
        self.accepting: list[str] = []
        self.transitions: dict[tuple[str, str], set[str]] = {}
        self.counters: dict[str, int] = {}
        self.nodes: dict[tuple[bool, tuple[tuple[str, str], ...]], str] = {}

    def state(self, name: str, accepting: bool = False) -> str:
        if len(self.states) >= DEFAULT_STATE_LIMIT:
            raise CapacityError(
                f"construction exceeded {DEFAULT_STATE_LIMIT} states")
        self.states.append(name)
        if accepting:
            self.accepting.append(name)
        return name

    def fresh(self, prefix: str, accepting: bool = False) -> str:
        count = self.counters.get(prefix, 0)
        self.counters[prefix] = count + 1
        return self.state(f"{prefix}{count}", accepting)

    def node(self, prefix: str, accepting: bool,
             moves: Iterable[tuple[str, str]]) -> str:
        """The one state with this acceptance whose only moves are the
        ``(symbol, target)`` pairs of ``moves``, in this order, made on
        first request; no move is added to it later.  Callers list
        moves in a fixed order, such as the alphabet's."""
        key = (accepting, tuple(moves))
        state = self.nodes.get(key)
        if state is None:
            self.nodes[key] = state = self.fresh(prefix, accepting)
            for symbol, target in key[1]:
                self.edge(state, symbol, target)
        return state

    def edge(self, source: str, symbol: str, target: str) -> None:
        self.transitions.setdefault((source, symbol), set()).add(target)

    def every(self, target: str) -> list[tuple[str, str]]:
        """Moves to ``target`` on every letter."""
        return [(symbol, target) for symbol in self.alphabet]

    def any_edge(self, source: str, target: str) -> None:
        for symbol in self.alphabet:
            self.edge(source, symbol, target)

    def build(self) -> Automaton:
        return Automaton(self.alphabet, self.states, self.initial,
                         self.accepting, self.transitions)


def _trie(sk: _Sketch, label: str, words: Sequence[Word],
          targets: Sequence[Optional[str]], accepting: bool = False,
          off: Optional[str] = None) -> str:
    """The root of a trie over the words, built from its leaves through
    the register ``_Sketch.node`` over the sketch's alphabet, so equal
    subtries anywhere are one state.  The last letter of ``words[i]``
    goes to ``targets[i]``, or nowhere when that is None.  With ``off``,
    every letter that leaves all the words goes there; without it, such
    a path simply ends."""
    # number the proper prefixes top down, each after its parent, and
    # note where each step from a prefix goes
    below: dict[tuple[int, str], int] = {}
    goes: dict[Optional[tuple[int, str]], Optional[str]] = {}
    for word, target in zip(words, targets):
        prefix = 0
        for symbol in word[:-1]:
            prefix = below.setdefault((prefix, symbol), len(below) + 1)
        goes[prefix, word[-1]] = target
    # make the prefixes bottom up, each before the step that reaches it
    for step, prefix in reversed([(None, 0), *below.items()]):
        goes[step] = sk.node(label, accepting, [
            (symbol, target) for symbol in sk.alphabet
            if (target := goes.get((prefix, symbol), off)) is not None])
    return goes[None]


def _add_malformed_detectors(sk: _Sketch, blocks: Sequence[Word],
                             leaf_moves: Mapping) -> tuple[str, str]:
    """Fragments accepting every word that is not a concatenation of
    the blocks: wrong start, trailing 0, a broken or unassigned block
    body, a block followed by 1 or 01, or ending inside a block.

    The state reached after block i also moves as ``leaf_moves[i]``
    says, so continuations can hang off it.  Returns the all-accepting
    sink and the state a guessed block start reaches after its first 0.
    """
    all_state = sk.state("all", accepting=True)
    sk.any_edge(all_state, all_state)
    watch = sk.state("watch")
    sk.any_edge(watch, watch)
    sk.initial.append(watch)
    sk.initial.append(_trie(sk, "lead", [("0", "0")], [None],
                            off=all_state))
    sk.edge(watch, "0", sk.node("tail", True, ()))
    mark = sk.state("mark")
    sk.edge(watch, "0", mark)
    blockzero = sk.state("blk0", accepting=True)
    sk.edge(blockzero, "1", all_state)
    # one leaf per move set: equal leaves share the states above them
    leaves = [sk.node("sym", False, (("1", all_state), ("0", blockzero),
                                     *leaf_moves.get(i, ())))
              for i in range(len(blocks))]
    # every state of the body trie accepts, since a word may not end
    # inside a block, and a body naming no symbol leaves it for all
    sk.edge(mark, "0", _trie(sk, "fmt", [block[2:] for block in blocks],
                             leaves, accepting=True, off=all_state))
    return all_state, mark


def _successor_table(machine: Dtm,
                     encoding: _Encoding) -> dict[tuple[int, int, int],
                                                  Optional[int]]:
    """For every three adjacent symbols, the symbol forced at the same
    cell in the next snapshot, or None when any continuation there is
    acceptable as a violation (the accepting state was reached, or the
    head would leave the window, so no next snapshot may exist)."""
    separator = encoding.index[SEPARATOR]
    table: dict[tuple[int, int, int], Optional[int]] = {}

    def has_accepting_mark(symbol: object) -> bool:
        return symbol != SEPARATOR and symbol[1] == machine.accepting

    for (i, left), (j, mid), (k, right) in itertools.product(
            enumerate(encoding.symbols), repeat=3):
        key = (i, j, k)
        if mid == SEPARATOR:
            table[key] = separator
            continue
        if any(has_accepting_mark(s) for s in (left, mid, right)):
            table[key] = None
            continue
        tape_symbol, state = mid
        if state is not None:
            target, written, move = machine.transitions[(state, tape_symbol)]
            if move == "S":
                table[key] = encoding.index[(written, target)]
            else:
                beside = left if move == "L" else right
                table[key] = None if beside == SEPARATOR \
                    else encoding.index[(written, None)]
            continue
        arriving = None
        if left != SEPARATOR and left[1] is not None:
            target, _, move = machine.transitions[(left[1], left[0])]
            if move == "R":
                arriving = target
        if arriving is None and right != SEPARATOR and right[1] is not None:
            target, _, move = machine.transitions[(right[1], right[0])]
            if move == "L":
                arriving = target
        table[key] = encoding.index[(tape_symbol, arriving)]
    return table


def _add_transition_checks(sk: _Sketch, blocks: Sequence[Word], mark: str,
                           all_state: str,
                           successor: dict[tuple[int, int, int],
                                           Optional[int]],
                           space: int) -> None:
    """Fragments accepting words where three adjacent blocks are
    followed, one snapshot later, by anything other than the block
    the transition table forces there."""
    symbols = range(len(blocks))

    # the register shares equal tries anyway; the caches save time
    @functools.cache
    def entry_for(forced: Optional[int]) -> str:
        entry = _trie(sk, "tgt", blocks, [
            None if value == forced else all_state for value in symbols])
        for _ in range((space - 1) * len(blocks[0])):
            entry = sk.node("gap", False, sk.every(entry))
        return entry

    chk = functools.cache(functools.partial(_trie, sk, "chk", blocks))

    # the first block's leading 00 was read by the guess reaching mark
    root = _trie(sk, "chk", [block[2:] for block in blocks], [
        chk(tuple(chk(tuple(entry_for(successor[first, second, third])
                            for third in symbols))
                  for second in symbols))
        for first in symbols])
    sk.edge(mark, "0", root)


def _add_ending_checks(sk: _Sketch, encoding: _Encoding,
                       machine: Dtm) -> dict[int, list[tuple[str, str]]]:
    """Fragments accepting words that end inside a snapshot and words
    whose final snapshot still carries a non-accepting head.  Returns
    the moves they need from the state reached after each block."""
    block_length = len(encoding.blocks[0])
    space = machine.space_bound
    separator = encoding.blocks[encoding.index[SEPARATOR]]
    # ending 1..space blocks after a separator means the final
    # snapshot is incomplete; ending inside a block is malformed
    # anyway, so every state of the chain may accept
    cut = end = sk.node("end", True, ())
    for _ in range(space * block_length - 1):
        cut = sk.node("cut", True, sk.every(cut))
    leaf_moves = {encoding.index[SEPARATOR]: sk.every(cut)}
    # a non-accepting head whose snapshot closes at the end of the
    # word means the run stopped without accepting
    closing = _trie(sk, "halt", [separator[1:]], [end])
    live = [sk.fresh("live") for _ in range((space - 1) * block_length)]
    for source, target in zip(live, live[1:]):
        sk.any_edge(source, target)
    for state in live[block_length - 1::block_length]:
        sk.edge(state, separator[0], closing)
    head_moves = [(separator[0], closing)]
    if live:
        head_moves += sk.every(live[0])
    for i, symbol in enumerate(encoding.symbols):
        if symbol != SEPARATOR and symbol[1] not in (None, machine.accepting):
            leaf_moves[i] = head_moves
    return leaf_moves


def dtm_to_ponfa(machine: Dtm, word: Word) -> Automaton:
    """Binary partially ordered automaton accepting every word except
    the encoding of an accepting computation of the machine on the
    given input.  Universal exactly when the machine does not accept
    within its space window.  Builds at most ``DEFAULT_STATE_LIMIT``
    states, and raises CapacityError past that."""
    start = _starting_configuration(machine, word)
    encoding = _Encoding(machine)
    sk = _Sketch(("0", "1"))
    all_state, mark = _add_malformed_detectors(
        sk, encoding.blocks, _add_ending_checks(sk, encoding, machine))
    # the proper prefixes of the starting snapshot accept, and a word
    # leaving it goes to all
    sk.initial.append(_trie(
        sk, "init", [_encode_configurations(machine, encoding, [start])],
        [None], accepting=True, off=all_state))
    _add_transition_checks(sk, encoding.blocks, mark, all_state,
                           _successor_table(machine, encoding),
                           machine.space_bound)
    result = sk.build()
    assert classify(result).label is AutomatonKind.PO_NFA
    return result
