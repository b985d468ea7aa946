"""Constructions on automata: determinization, minimization, products,
and the shortest-word search behind every witness.

Witness words returned by the emptiness test are always the shortest
accepted word, with ties broken lexicographically by alphabet order.
"""

from __future__ import annotations

from collections import deque
from typing import (Callable, Hashable, Iterable, Optional, Sequence, TypeVar,
                    Union)

from .core import Automaton, CapacityError, Decision, Word

DEFAULT_SUBSET_LIMIT = 1 << 20

INFINITE = float("inf")
LanguageSize = Union[int, float]

Node = TypeVar("Node", bound=Hashable)


def _subset_name(a: Automaton, subset: frozenset[str]) -> str:
    members = sorted(subset, key=a.state_index)
    return "{" + ",".join(members) + "}"


def determinize(a: Automaton, max_subsets: int = DEFAULT_SUBSET_LIMIT) -> Automaton:
    """Subset construction.  The result is always complete.

    Unreachable subsets are never materialised; the empty subset acts
    as the rejecting sink when some move is missing.  Exceeding
    ``max_subsets`` distinct subsets raises ``CapacityError``.
    """
    start = a.initial
    names: dict[frozenset[str], str] = {start: _subset_name(a, start)}
    order: list[frozenset[str]] = [start]
    transitions: dict[tuple[str, str], frozenset[str]] = {}
    queue = deque([start])
    while queue:
        subset = queue.popleft()
        for sym in a.alphabet:
            target = a.move(subset, sym)
            if target not in names:
                if len(names) >= max_subsets:
                    raise CapacityError(
                        f"subset construction exceeded {max_subsets} states")
                names[target] = _subset_name(a, target)
                order.append(target)
                queue.append(target)
            transitions[(names[subset], sym)] = frozenset((names[target],))
    states = [names[s] for s in order]
    accepting = [names[s] for s in order if s & a.accepting]
    return Automaton(a.alphabet, states, [names[start]], accepting, transitions)


def _require_complete_dfa(a: Automaton, operation: str) -> None:
    if len(a.initial) != 1:
        raise ValueError(f"{operation} requires a single initial state")
    for q in a.states:
        for sym in a.alphabet:
            if len(a.step(q, sym)) != 1:
                raise ValueError(
                    f"{operation} requires a complete deterministic automaton; "
                    f"state {q!r} has {len(a.step(q, sym))} moves on {sym!r}")


def minimize(d: Automaton) -> Automaton:
    """Minimal complete DFA for the language of ``d``.

    Unreachable states are discarded, then states are merged by
    partition refinement.  The state count of the result equals the
    number of distinguishable residual languages.
    """
    _require_complete_dfa(d, "minimize")
    (start,) = d.initial
    reachable: list[str] = [start]
    seen = {start}
    i = 0
    while i < len(reachable):
        q = reachable[i]
        i += 1
        for sym in d.alphabet:
            (t,) = d.step(q, sym)
            if t not in seen:
                seen.add(t)
                reachable.append(t)
    # refine the accepting / rejecting split until transitions respect it
    block_of = {q: (q in d.accepting) for q in reachable}
    while True:
        signature = {
            q: (block_of[q],
                tuple(block_of[next(iter(d.step(q, sym)))] for sym in d.alphabet))
            for q in reachable
        }
        fresh: dict[object, int] = {}
        new_block_of = {}
        for q in reachable:
            sig = signature[q]
            if sig not in fresh:
                fresh[sig] = len(fresh)
            new_block_of[q] = fresh[sig]
        if len(set(new_block_of.values())) == len(set(block_of.values())):
            block_of = new_block_of
            break
        block_of = new_block_of
    members: dict[int, list[str]] = {}
    for q in reachable:
        members.setdefault(block_of[q], []).append(q)
    names = {block: _subset_name(d, frozenset(qs))
             for block, qs in members.items()}
    ordered_blocks = sorted(members, key=lambda b: min(d.state_index(q)
                                                       for q in members[b]))
    transitions = {}
    for block in ordered_blocks:
        representative = members[block][0]
        for sym in d.alphabet:
            (t,) = d.step(representative, sym)
            transitions[(names[block], sym)] = frozenset((names[block_of[t]],))
    states = [names[b] for b in ordered_blocks]
    accepting = [names[b] for b in ordered_blocks
                 if members[b][0] in d.accepting]
    return Automaton(d.alphabet, states, [names[block_of[start]]], accepting,
                     transitions)


def complement(d: Automaton) -> Automaton:
    """Flip accepting states; requires a complete deterministic input."""
    _require_complete_dfa(d, "complement")
    accepting = [q for q in d.states if q not in d.accepting]
    return Automaton(d.alphabet, d.states, d.initial, accepting, d.transitions)


def product_intersection(a: Automaton, b: Automaton) -> Automaton:
    """Reachable product automaton accepting the intersection."""
    if tuple(a.alphabet) != tuple(b.alphabet):
        raise ValueError("product requires identical alphabets")
    start = [(p, q) for p in sorted(a.initial, key=a.state_index)
             for q in sorted(b.initial, key=b.state_index)]
    names = {pair: f"({pair[0]},{pair[1]})" for pair in start}
    order = list(start)
    transitions: dict[tuple[str, str], set[str]] = {}
    queue = deque(start)
    while queue:
        p, q = queue.popleft()
        for sym in a.alphabet:
            targets_a = sorted(a.step(p, sym), key=a.state_index)
            targets_b = sorted(b.step(q, sym), key=b.state_index)
            for ta in targets_a:
                for tb in targets_b:
                    pair = (ta, tb)
                    if pair not in names:
                        names[pair] = f"({ta},{tb})"
                        order.append(pair)
                        queue.append(pair)
                    transitions.setdefault((names[(p, q)], sym),
                                           set()).add(names[pair])
    states = [names[pair] for pair in order]
    accepting = [names[(p, q)] for (p, q) in order
                 if p in a.accepting and q in b.accepting]
    return Automaton(a.alphabet, states or ["(dead)"],
                     [names[pair] for pair in start], accepting, transitions)


def shortest_word(starts: Iterable[Node], symbols: Sequence[str],
                  successors: Callable[[Node], Iterable[tuple[str, Node]]],
                  is_goal: Callable[[Node], bool],
                  max_nodes: float = INFINITE) -> Optional[Word]:
    """Shortest word leading from a start node to a goal node, ties
    broken by the order of ``symbols``; None when no goal is reachable.

    ``successors(node)`` yields ``(symbol, node)`` pairs in symbol
    order.  The search is breadth first over a FIFO queue with parent
    links, and tests the goal when a node is discovered.  Nodes first
    reached by the same word share one link and leave the queue as a
    group.  The group's successors are gathered per symbol in group
    order and read in symbol order, so the first goal met closes the
    length-lex-least word also when several nodes share a word.  A
    node is stored once; storing more than ``max_nodes`` raises
    ``CapacityError``.
    """
    parents: dict[Node, Optional[tuple[Node, str]]] = {}
    queue: deque[Node] = deque()
    for node in starts:
        if node not in parents:
            parents[node] = None
            if is_goal(node):
                return ()
            queue.append(node)
    while queue:
        node = queue.popleft()
        link = parents[node]
        if queue and parents[queue[0]] is link:
            group = [node]
            while queue and parents[queue[0]] is link:
                group.append(queue.popleft())
            buckets: dict[str, list[Node]] = {}
            for member in group:
                for symbol, target in successors(member):
                    buckets.setdefault(symbol, []).append(target)
            pairs: Iterable[tuple[str, Node]] = [
                (symbol, target) for symbol in symbols
                for target in buckets.get(symbol, ())]
        else:   # the only case in deterministic searches
            pairs = successors(node)
        last = None
        for symbol, target in pairs:
            if target in parents:
                continue
            if len(parents) >= max_nodes:
                raise CapacityError(f"search exceeded {max_nodes} nodes")
            if symbol != last:
                last, new_link = symbol, (node, symbol)
            parents[target] = new_link
            if is_goal(target):
                return _spell(parents, target)
            queue.append(target)
    return None


def _spell(parents: dict, node: Hashable) -> Word:
    letters: list[str] = []
    while parents[node] is not None:
        node, symbol = parents[node]
        letters.append(symbol)
    return tuple(reversed(letters))


def moves(a: Automaton, q: str) -> list[tuple[str, str]]:
    """The ``(symbol, target)`` pairs leaving a state, in alphabet order
    and, per symbol, in no particular order."""
    return [(sym, t) for sym in a.alphabet for t in a.step(q, sym)]


def is_empty(a: Automaton) -> Decision:
    """Emptiness test.

    ``holds`` means the language is empty.  Otherwise the witness is
    the shortest accepted word, ties broken by alphabet order.
    """
    word = shortest_word(a.initial, a.alphabet, lambda q: moves(a, q),
                         lambda q: q in a.accepting)
    return Decision(True, None) if word is None else Decision(False, word)


def count_language_size(d: Automaton) -> LanguageSize:
    """Number of accepted words, or ``INFINITE``.

    Requires a complete deterministic input.  The language is infinite
    exactly when a cycle lies on some path from the initial state to an
    accepting state; otherwise accepted words correspond one-to-one to
    paths through the useful part, which is a DAG.
    """
    _require_complete_dfa(d, "count_language_size")
    (start,) = d.initial
    reachable = {start}
    queue = deque([start])
    while queue:
        q = queue.popleft()
        for sym in d.alphabet:
            (t,) = d.step(q, sym)
            if t not in reachable:
                reachable.add(t)
                queue.append(t)
    predecessors: dict[str, set[str]] = {q: set() for q in d.states}
    for q in reachable:
        for sym in d.alphabet:
            (t,) = d.step(q, sym)
            predecessors[t].add(q)
    co_reachable = set(q for q in d.accepting if q in reachable)
    queue = deque(co_reachable)
    while queue:
        q = queue.popleft()
        for p in predecessors[q]:
            if p not in co_reachable:
                co_reachable.add(p)
                queue.append(p)
    useful = reachable & co_reachable
    if not useful:
        return 0
    edges: dict[str, list[str]] = {q: [] for q in useful}
    for q in useful:
        for sym in d.alphabet:
            (t,) = d.step(q, sym)
            if t in useful:
                edges[q].append(t)

    # cycle check on the useful part, self-loops included
    state_color: dict[str, int] = {}

    def has_cycle(root: str) -> bool:
        stack = [(root, iter(edges[root]))]
        state_color[root] = 1
        while stack:
            q, it = stack[-1]
            advanced = False
            for t in it:
                if state_color.get(t, 0) == 1:
                    return True
                if t not in state_color:
                    state_color[t] = 1
                    stack.append((t, iter(edges[t])))
                    advanced = True
                    break
            if not advanced:
                state_color[q] = 2
                stack.pop()
        return False

    for q in useful:
        if q not in state_color and has_cycle(q):
            return INFINITE

    counts: dict[str, int] = {}
    order: list[str] = []
    mark: set[str] = set()
    done: set[str] = set()

    def topo(root: str) -> None:
        stack = [(root, iter(edges[root]))]
        mark.add(root)
        while stack:
            q, it = stack[-1]
            advanced = False
            for t in it:
                if t not in mark:
                    mark.add(t)
                    stack.append((t, iter(edges[t])))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                if q not in done:
                    done.add(q)
                    order.append(q)

    if start not in useful:
        return 0
    topo(start)
    for q in order:
        total = 1 if q in d.accepting else 0
        for t in edges[q]:
            total += counts[t]
        counts[q] = total
    return counts[start]
