"""Constructions on automata: determinization, minimization, products,
and the two graph searches they rest on.

``_explore`` walks the whole reachable part of a graph breadth first;
reachability, co-reachability, the subset construction and the product
read it.  ``shortest_word`` searches for a goal node and stops at the
first one; it gives every witness.  Witness words returned by the
emptiness test are always the shortest accepted word, with ties broken
lexicographically by alphabet order.
"""

from __future__ import annotations

from collections import deque
from typing import (Callable, Hashable, Iterable, Optional, Sequence, TypeVar,
                    Union)

from .core import (Automaton, CapacityError, Decision, Word,
                   _strongly_connected_components)

DEFAULT_SUBSET_LIMIT = 1 << 20

INFINITE = float("inf")
LanguageSize = Union[int, float]

Node = TypeVar("Node", bound=Hashable)


def _claim(name: str, taken: set[str]) -> str:
    """``name`` with ``'`` appended until it is not in ``taken``, then
    added to it.  A generated name only changes when member names with
    commas make two constructed states spell the same."""
    while name in taken:
        name += "'"
    taken.add(name)
    return name


def _subset_name(a: Automaton, subset: frozenset[str],
                 taken: set[str]) -> str:
    members = sorted(subset, key=a.state_index)
    return _claim("{" + ",".join(members) + "}", taken)


def _explore(starts: Iterable[Node],
             successors: Callable[[Node], list[tuple[str, Node]]],
             max_nodes: float = INFINITE
             ) -> dict[Node, list[tuple[str, Node]]]:
    """Every node reachable from a start node, in breadth-first
    discovery order, mapped to the ``(symbol, target)`` list that
    ``successors`` returns for it.  Discovering a node beyond the first
    ``max_nodes`` raises ``CapacityError``."""
    graph: dict[Node, list[tuple[str, Node]]] = dict.fromkeys(starts)
    order = list(graph)
    for node in order:      # the list grows while it is read
        graph[node] = edges = successors(node)
        for _symbol, target in edges:
            if target not in graph:
                if len(graph) >= max_nodes:
                    raise CapacityError(f"search exceeded {max_nodes} nodes")
                graph[target] = None
                order.append(target)
    return graph


def reachable_states(a: Automaton) -> list[str]:
    """States reachable from an initial state, in breadth-first order."""
    return list(_explore(sorted(a.initial, key=a.state_index),
                         lambda q: moves(a, q)))


def co_reachable_states(a: Automaton) -> set[str]:
    """States from which an accepting state can be reached."""
    inverse: dict[str, list[tuple[str, str]]] = {q: [] for q in a.states}
    for (source, symbol), targets in a.transitions.items():
        for target in targets:
            inverse[target].append((symbol, source))
    return set(_explore(a.accepting, inverse.__getitem__))


def determinize(a: Automaton, max_subsets: int = DEFAULT_SUBSET_LIMIT) -> Automaton:
    """Subset construction.  The result is always complete.

    Unreachable subsets are never materialised; the empty subset acts
    as the rejecting sink when some move is missing.  Exceeding
    ``max_subsets`` distinct subsets raises ``CapacityError``.
    """
    try:
        graph = _explore([a.initial], lambda subset: [
            (sym, a.move(subset, sym)) for sym in a.alphabet], max_subsets)
    except CapacityError:
        raise CapacityError(
            f"subset construction exceeded {max_subsets} states") from None
    taken: set[str] = set()
    names = {subset: _subset_name(a, subset, taken) for subset in graph}
    # one frozenset per target state, not one per move
    targets = {subset: frozenset((name,)) for subset, name in names.items()}
    transitions = {(names[subset], sym): targets[target]
                   for subset, edges in graph.items()
                   for sym, target in edges}
    accepting = [names[s] for s in graph if s & a.accepting]
    return Automaton(a.alphabet, list(names.values()), [names[a.initial]],
                     accepting, transitions)


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
    Hopcroft's partition refinement (in the form of Valmari, "Fast
    brief practical DFA minimization", 2012).  Starting from the
    accepting / rejecting split, a (block, letter) splitter cuts every
    block that holds only some of the states whose move on the letter
    enters the splitter block.  When a block is cut, a half is queued
    with each letter: the new half where the block was still queued
    with that letter, the smaller half otherwise.  The state count of
    the result equals the number of distinguishable residual languages.
    """
    _require_complete_dfa(d, "minimize")
    (start,) = d.initial
    reachable = reachable_states(d)
    number = {q: i for i, q in enumerate(reachable)}
    letters = range(len(d.alphabet))
    # inverse[s][t]: the states whose move on letter s enters state t
    inverse: list[list[list[int]]] = [[[] for _ in reachable] for _ in letters]
    for i, q in enumerate(reachable):
        for s, sym in enumerate(d.alphabet):
            (t,) = d.step(q, sym)
            inverse[s][number[t]].append(i)
    accepting_ids = {i for i, q in enumerate(reachable) if q in d.accepting}
    blocks = [side for side in (accepting_ids,
                                set(range(len(reachable))) - accepting_ids)
              if side]
    block_of = [0] * len(reachable)
    for b, block in enumerate(blocks):
        for i in block:
            block_of[i] = b
    smaller = min(range(len(blocks)), key=lambda b: len(blocks[b]))
    pending = [(smaller, s) for s in letters]
    queued = set(pending)
    while pending:
        splitter = pending.pop()
        queued.remove(splitter)
        b, s = splitter
        hits: dict[int, list[int]] = {}
        for t in blocks[b]:
            for i in inverse[s][t]:
                hits.setdefault(block_of[i], []).append(i)
        for c, hit in hits.items():
            if len(hit) == len(blocks[c]):
                continue
            new = len(blocks)
            blocks[c].difference_update(hit)
            blocks.append(set(hit))
            for i in hit:
                block_of[i] = new
            for r in letters:
                half = (new if (c, r) in queued or len(hit) <= len(blocks[c])
                        else c)
                pending.append((half, r))
                queued.add((half, r))
    members: dict[int, list[str]] = {}
    for i, q in enumerate(reachable):
        members.setdefault(block_of[i], []).append(q)
    ordered_blocks = sorted(members, key=lambda b: min(d.state_index(q)
                                                       for q in members[b]))
    taken: set[str] = set()
    names = {block: _subset_name(d, frozenset(members[block]), taken)
             for block in ordered_blocks}
    transitions = {}
    for block in ordered_blocks:
        representative = members[block][0]
        for sym in d.alphabet:
            (t,) = d.step(representative, sym)
            transitions[(names[block], sym)] = frozenset(
                (names[block_of[number[t]]],))
    states = [names[b] for b in ordered_blocks]
    accepting = [names[b] for b in ordered_blocks
                 if members[b][0] in d.accepting]
    return Automaton(d.alphabet, states, [names[block_of[number[start]]]],
                     accepting, transitions)


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

    def successors(pair: tuple[str, str]) -> list[tuple[str, tuple[str, str]]]:
        p, q = pair
        return [(sym, (ta, tb)) for sym in a.alphabet
                for ta in sorted(a.step(p, sym), key=a.state_index)
                for tb in sorted(b.step(q, sym), key=b.state_index)]

    graph = _explore(start, successors)
    taken: set[str] = set()
    names = {pair: _claim(f"({pair[0]},{pair[1]})", taken) for pair in graph}
    transitions: dict[tuple[str, str], set[str]] = {}
    for pair, edges in graph.items():
        for sym, target in edges:
            transitions.setdefault((names[pair], sym),
                                   set()).add(names[target])
    accepting = [names[(p, q)] for (p, q) in graph
                 if p in a.accepting and q in b.accepting]
    return Automaton(a.alphabet, list(names.values()) or ["(dead)"],
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
    paths through the useful part, which is a DAG.  Its components come
    in reverse topological order, so a state's count is summed from
    targets already counted.
    """
    _require_complete_dfa(d, "count_language_size")
    (start,) = d.initial
    useful = set(reachable_states(d)) & co_reachable_states(d)
    if start not in useful:
        return 0
    # one edge per symbol: two symbols to one target are two words
    edges = {q: [t for sym in d.alphabet for t in d.step(q, sym)
                 if t in useful] for q in useful}
    counts: dict[str, int] = {}
    for component in _strongly_connected_components([start], edges):
        q = component[0]
        if len(component) > 1 or q in edges[q]:
            return INFINITE
        counts[q] = (q in d.accepting) + sum(counts[t] for t in edges[q])
    return counts[start]
