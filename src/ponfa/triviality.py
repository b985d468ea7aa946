"""Deciders for the ordered-language hierarchy.

A language is order-trivial (historically: R-trivial) exactly when its
minimal deterministic automaton is partially ordered, equivalently
when it is a finite union of languages of the form

    S1* x1 S2* x2 ... xm Sm+1*

where each letter xi is not in the preceding loop set Si.  The finer,
counted variant asks whether the language is a union of
prefix-k-equivalence classes; every language accepted by a complete
self-loop-deterministic partially ordered automaton has this property
with k equal to the automaton's depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .core import (Automaton, CapacityError, Word, _proper_orbits, accepts,
                   classify)
from .ops import (DEFAULT_SUBSET_LIMIT, _minimal_table, determinize,
                  minimize, shortest_word)
from .subseq import SubseqSet, class_search, representative, sub_k

DEFAULT_PATH_LIMIT = 10**6
DEFAULT_SIGNATURE_LIMIT = 10**6


@dataclass(frozen=True)
class TrivialityVerdict:
    """Outcome of a triviality check.

    For the counted variant, ``split_class`` on failure carries the
    class representative together with an accepted and a rejected
    member of the same class.  For the uncounted variant, failure
    means the minimal automaton has a proper cycle; ``cycle_words``
    holds two words reaching the same state whose lengths differ by
    the cycle length.  ``k_used`` reports the smallest bound at which
    the counted property was established.
    """

    holds: bool
    k_used: Optional[int] = None
    split_class: Optional[tuple[Word, Word, Word]] = None
    cycle_words: Optional[tuple[Word, Word]] = None


@dataclass(frozen=True)
class RExpression:
    """One branch of the union form: loop sets alternating with
    letters, with one more loop set than letters.  Each letter must
    not occur in the loop set it leaves."""

    loops: tuple[frozenset[str], ...]
    letters: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.loops) != len(self.letters) + 1:
            raise ValueError("need exactly one more loop set than letters")
        for loop, letter in zip(self.loops, self.letters):
            if letter in loop:
                raise ValueError(f"letter {letter!r} occurs in its loop set")


def is_r_trivial(a: Automaton,
                 max_subsets: int = DEFAULT_SUBSET_LIMIT) -> TrivialityVerdict:
    """Order-triviality of the language.

    Decided on the minimal DFA, as ``ops._minimal_table``'s integer
    table: the language qualifies exactly when it is partially ordered,
    that is when ``core._proper_orbits`` finds no orbit.
    A subset construction beyond ``max_subsets`` subsets raises
    ``CapacityError``.
    On failure the verdict exhibits a state on a proper cycle through
    two access words, one of which traverses the cycle once; both words
    are the shortest of their kind, ties broken by alphabet order.
    """
    rows, _accepting = _minimal_table(a, max_subsets)
    orbits = _proper_orbits(rows)
    if not orbits:
        return TrivialityVerdict(True)
    anchor = min(orbit[0] for orbit in orbits)
    # every state of a minimized automaton is reachable
    access = shortest_word([0], a.alphabet, lambda q: zip(a.alphabet, rows[q]),
                           lambda q: q == anchor)
    # the loop leaves the anchor and comes back, -1 standing for its
    # return; no path back leaves the orbit, no self-loop shortens it
    loop = shortest_word([anchor], a.alphabet, lambda q: [
        (sym, -1 if t == anchor else t) for sym, t in zip(a.alphabet, rows[q])
        if t != q], lambda q: q < 0)
    return TrivialityVerdict(False, cycle_words=(access, access + loop))


def is_k_r_trivial(a: Automaton, k: int, max_subsets: int = DEFAULT_SUBSET_LIMIT
                   ) -> TrivialityVerdict:
    """Is the language a union of prefix-k-equivalence classes?

    A word shares its class with its representative, the word without
    the letters that do not grow its subsequence set.  So the property
    fails exactly when some word and its representative differ in
    acceptance; ``subseq.class_search`` finds the length-lex-least such
    word, and ``split_class`` holds its representative and the accepted
    and the rejected one of the two.  Since the property is monotone in
    ``k``, smaller bounds are tried first and ``k_used`` reports the
    first success.  A search storing more than ``max_subsets`` nodes
    raises ``CapacityError``.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    for smaller in range(k + 1):
        word = class_search(a, smaller, max_subsets)
        if word is None:
            return TrivialityVerdict(True, k_used=smaller)
    rep = representative(word, k)
    split = (rep, word, rep) if accepts(a, word) else (rep, rep, word)
    return TrivialityVerdict(False, k_used=k, split_class=split)


def is_k_r_trivial_oracle(a: Automaton, k: int) -> TrivialityVerdict:
    """Independent route to the same property.

    Runs the deterministic signature machine, whose states are the
    chains of distinct subsequence sets along prefixes, in lockstep
    with the minimal automaton.  The language is a union of classes
    exactly when no chain value co-occurs with both an accepting and a
    rejecting state of the minimal automaton.  Unlike
    ``is_k_r_trivial`` it decides at ``k`` alone, so a positive verdict
    reports ``k_used = k``, not the least bound that holds.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    minimal = minimize(determinize(a))
    (start_state,) = minimal.initial
    empty = sub_k((), k)
    start = ((empty,), start_state)
    first_word: dict[tuple[tuple[SubseqSet, ...], str], Word] = {start: ()}
    chain_accepting: dict[tuple[SubseqSet, ...], Word] = {}
    chain_rejecting: dict[tuple[SubseqSet, ...], Word] = {}
    chain_minimum: dict[tuple[SubseqSet, ...], Word] = {}
    frontier = [start]
    while frontier:
        nxt = []
        for node in frontier:
            chain, state = node
            word = first_word[node]
            chain_minimum.setdefault(chain, word)
            if state in minimal.accepting:
                chain_accepting.setdefault(chain, word)
            else:
                chain_rejecting.setdefault(chain, word)
            if chain in chain_accepting and chain in chain_rejecting:
                return TrivialityVerdict(
                    False, k_used=k,
                    split_class=(chain_minimum[chain], chain_accepting[chain],
                                 chain_rejecting[chain]))
            for sym in minimal.alphabet:
                grown = chain[-1].extend(sym)
                next_chain = chain if grown == chain[-1] else chain + (grown,)
                (next_state,) = minimal.step(state, sym)
                next_node = (next_chain, next_state)
                if next_node not in first_word:
                    if len(first_word) >= DEFAULT_SIGNATURE_LIMIT:
                        raise CapacityError(
                            "signature machine exceeded "
                            f"{DEFAULT_SIGNATURE_LIMIT} nodes")
                    first_word[next_node] = word + (sym,)
                    nxt.append(next_node)
        frontier = nxt
    return TrivialityVerdict(True, k_used=k)


def rponfa_to_r_expressions(a: Automaton) -> list[RExpression]:
    """Union form for the language of a self-loop-deterministic
    partially ordered automaton.

    Every simple path from an initial to an accepting state yields one
    branch: the loop sets are the self-loop symbols of the visited
    states, the letters are the path labels.  Self-loop determinism
    guarantees each path letter is missing from the loop set it
    leaves.  Paths are enumerated depth first in declaration order;
    duplicates are removed structurally.
    """
    flags = classify(a)
    if not (flags.is_partially_ordered and flags.is_self_loop_deterministic):
        raise ValueError("union form requires a partially ordered automaton "
                         "with deterministic self-loops")
    loops = {q: a.self_loop_symbols(q) for q in a.states}
    seen: set[RExpression] = set()
    out: list[RExpression] = []
    counter = 0

    def emit(path_states: tuple[str, ...], path_letters: Word) -> None:
        nonlocal counter
        counter += 1
        if counter > DEFAULT_PATH_LIMIT:
            raise CapacityError(
                f"more than {DEFAULT_PATH_LIMIT} accepting paths")
        expr = RExpression(tuple(loops[q] for q in path_states), path_letters)
        if expr not in seen:
            seen.add(expr)
            out.append(expr)

    # depth first with an explicit stack, children pushed in reverse;
    # the order has no cycles but self-loops, so every path is simple
    stack = [((q,), ()) for q in sorted(a.initial, key=a.state_index,
                                       reverse=True)]
    while stack:
        path_states, path_letters = stack.pop()
        q = path_states[-1]
        if q in a.accepting:
            emit(path_states, path_letters)
        stack.extend(reversed([
            (path_states + (t,), path_letters + (sym,)) for sym in a.alphabet
            for t in sorted(a.step(q, sym), key=a.state_index) if t != q]))
    return out


def r_expression_to_automaton(e: RExpression,
                              alphabet: Sequence[str] | None = None
                              ) -> Automaton:
    """Chain automaton for one union branch.

    One state per loop set, self-loops for the loop symbols, one
    advancing edge per letter.  The result is deterministic and
    partially ordered, though not complete in general.
    """
    if alphabet is None:
        ordered: list[str] = []
        for i, loop in enumerate(e.loops):
            for sym in sorted(loop):
                if sym not in ordered:
                    ordered.append(sym)
            if i < len(e.letters) and e.letters[i] not in ordered:
                ordered.append(e.letters[i])
        alphabet = ordered or ["a"]
    states = [f"x{i}" for i in range(len(e.loops))]
    transitions: dict[tuple[str, str], frozenset[str]] = {}
    for i, loop in enumerate(e.loops):
        for sym in loop:
            transitions[(states[i], sym)] = frozenset((states[i],))
        if i < len(e.letters):
            transitions[(states[i], e.letters[i])] = frozenset((states[i + 1],))
    return Automaton(alphabet, states, [states[0]], [states[-1]], transitions)
