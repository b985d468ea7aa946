"""Constructions on automata: determinization, minimization, products,
and the two graph searches they rest on.

``_explore`` walks the whole reachable part of a graph breadth first;
minimization, the product and ``dre._orbit_language`` read it.
``shortest_word`` searches for a goal node and stops at the first one;
it gives every witness: the shortest word, ties broken by alphabet order.

DFA questions are answered on integer tables of successor numbers,
read from a named DFA by ``_read`` or built by the subset construction,
which holds each subset as a bit mask over state indices and each
state's moves on every letter as one packed integer, the letters'
target masks side by side, so a subset's moves cost one walk over its
members.
One Hopcroft core minimizes a table, ``_count_words`` counts its words,
and ``_named_dfa`` names it on the way out; ``_minimal_table`` hands the
minimal DFA's table unnamed to R-triviality and DRE definability.  It
skips the Hopcroft core when ``_co_deterministic`` proves the subset
table minimal as built (Brzozowski's lemma), as on Σ*bΣ^m.
``bisimulation_quotient`` merges the bisimilar states of a partially
ordered automaton in one pass; universality searches the quotient.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, Optional, Sequence, Union

from .core import (EMPTY, Automaton, CapacityError, Decision, Node, Word,
                   _ordered_states, _strongly_connected_components)

DEFAULT_SUBSET_LIMIT = 1 << 20

INFINITE = float("inf")
LanguageSize = Union[int, float]


def _claim(name: str, taken: set[str]) -> str:
    """``name`` with ``'`` appended until it is not in ``taken``, then
    added to it.  A generated name only changes when member names with
    commas make two constructed states spell the same."""
    while name in taken:
        name += "'"
    taken.add(name)
    return name


def _explore(starts: Iterable[Node],
             successors: Callable[[Node], list[tuple[str, Node]]]
             ) -> dict[Node, list[tuple[str, Node]]]:
    """Every node reachable from a start node, in breadth-first
    discovery order, mapped to the ``(symbol, target)`` list that
    ``successors`` returns for it."""
    graph: dict[Node, list[tuple[str, Node]]] = dict.fromkeys(starts)
    order = list(graph)
    for node in order:      # the list grows while it is read
        graph[node] = edges = successors(node)
        for _symbol, target in edges:
            if target not in graph:
                graph[target] = None
                order.append(target)
    return graph


def _read(d: Automaton) -> tuple[list[list[Optional[int]]], list[bool], int]:
    """A deterministic automaton as successor rows over its state
    indices, None for a missing move, its acceptance flags and the
    index of its initial state."""
    rows: list[list[Optional[int]]] = [[None] * len(d.alphabet)
                                       for _ in d.states]
    for (q, symbol), (t,) in d.transitions.items():
        rows[d.state_index(q)][d.symbol_index(symbol)] = d.state_index(t)
    (start,) = d.initial
    return rows, [q in d.accepting for q in d.states], d.state_index(start)


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _subset_table(a: Automaton, max_subsets: int) -> tuple[
        list[int], list[list[int]], list[bool]]:
    """Subset construction over state indices.

    A subset is a bit mask, bit ``q`` standing for state ``q``.  The
    moves of state ``q`` on every letter are packed into one integer
    ``packed[q]``: the target mask on letter ``s`` sits at bit offset
    ``s·|Q|``.  One walk over a subset's members ORs their packed rows
    together, and the subset's move on letter ``s`` is read back as
    that union shifted down by ``s·|Q|`` bits and cut to ``|Q|`` bits.
    The shifts cost most where subsets are single states over many
    letters: on 20-letter chains of 100-200 states the table took about
    1.3 times as long as with one OR loop per letter, and on
    ``build_a(6, 6)`` 0.6 times as long (best-of timings, CPython 3.11
    on a 2-vCPU x86-64 host).
    Returns the reachable subsets in breadth-first discovery order, the
    successor table (``table[i][s]`` is the index of the subset that
    subset ``i`` moves to on letter ``s``) and the acceptance of each
    subset.  Subset 0 is the set of initial states.  Discovering a
    subset beyond the first ``max_subsets`` raises ``CapacityError``.
    """
    index = a.state_index
    width = len(a.states)
    full = (1 << width) - 1
    packed = [0] * width
    for (q, sym), targets in a.transitions.items():
        packed[index(q)] |= sum(1 << index(t) for t in targets) << (
            a.symbol_index(sym) * width)
    shifts = range(0, len(a.alphabet) * width, width)
    start = sum(1 << index(q) for q in a.initial)
    number = {start: 0}
    subsets = [start]
    table = []
    for subset in subsets:      # the list grows while it is read
        moved = 0
        while subset:
            low = subset & -subset
            moved |= packed[low.bit_length() - 1]
            subset ^= low
        table.append(row := [])
        for shift in shifts:
            target = moved >> shift & full
            i = number.get(target)
            if i is None:
                if len(subsets) >= max_subsets:
                    raise CapacityError(f"subset construction exceeded "
                                        f"{max_subsets} states")
                i = number[target] = len(subsets)
                subsets.append(target)
            row.append(i)
    accepting = sum(1 << index(q) for q in a.accepting)
    return subsets, table, [subset & accepting != 0 for subset in subsets]


def determinize(a: Automaton, max_subsets: int = DEFAULT_SUBSET_LIMIT) -> Automaton:
    """Subset construction.  The result is always complete.

    Subsets are ``_subset_table``'s bit masks over state indices,
    discovered breadth first; each is named by its members in
    declaration order, such as ``{q0,q2}``.  Unreachable subsets are
    never materialised; the empty subset ``{}`` acts as the rejecting
    sink when some move is missing.  Exceeding ``max_subsets`` distinct
    subsets raises ``CapacityError``.
    """
    subsets, table, accepting = _subset_table(a, max_subsets)
    return _named_dfa(a.alphabet, a.states, 0, list(map(_bits, subsets)),
                      table, accepting)


def _named_dfa(alphabet: Sequence[str], names: Sequence[str], start: int,
               members: Sequence[list[int]], rows: list[list[int]],
               accepting: list[bool]) -> Automaton:
    """The complete DFA of a table whose state ``i`` is named after its
    members ``members[i]``, ascending indices into ``names``, such as
    ``{q0,q2}``, made unique by ``_claim``."""
    taken: set[str] = set()
    state_names = [_claim("{" + ",".join([names[i] for i in m]) + "}", taken)
                   for m in members]
    # one frozenset per target state, not one per move
    targets = [frozenset((name,)) for name in state_names]
    transitions = {(name, sym): targets[t]
                   for name, row in zip(state_names, rows)
                   for sym, t in zip(alphabet, row)}
    return Automaton(alphabet, state_names, [state_names[start]],
                     [name for name, accepts in zip(state_names, accepting)
                      if accepts], transitions)


def _require_complete_dfa(a: Automaton, operation: str) -> None:
    if len(a.initial) != 1:
        raise ValueError(f"{operation} requires a single initial state")
    for q in a.states:
        for sym in a.alphabet:
            if len(a.step(q, sym)) != 1:
                raise ValueError(
                    f"{operation} requires a complete deterministic automaton; "
                    f"state {q!r} has {len(a.step(q, sym))} moves on {sym!r}")


def _hopcroft(table: list[list[int]], accepting: list[bool]
              ) -> tuple[list[list[int]], list[list[int]], list[bool]]:
    """The minimal DFA of a complete DFA's table: the blocks of the
    coarsest partition that separates accepting from rejecting states
    and that every letter maps into itself, as state lists in the order
    of their first members, and each block's successor row and acceptance.

    Hopcroft's partition refinement, in the form of Valmari ("Fast
    brief practical DFA minimization", 2012).  Starting from the
    accepting / rejecting split, a (block, letter) splitter cuts every
    block that holds only some of the states whose move on the letter
    enters the splitter block.  When a block is cut, a half is queued
    with each letter: the new half where the block was still queued
    with that letter, the smaller half otherwise.
    """
    letters = range(len(table[0]))
    # inverse[s][t]: the states whose move on letter s enters state t
    inverse: list[list[list[int]]] = [[[] for _ in table] for _ in letters]
    for i, row in enumerate(table):
        for s, t in enumerate(row):
            inverse[s][t].append(i)
    blocks = [side for side in ({i for i, f in enumerate(accepting) if f},
                                {i for i, f in enumerate(accepting) if not f})
              if side]
    block_of = [0] * len(table)
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
    members: dict[int, list[int]] = {}
    for i, b in enumerate(block_of):
        members.setdefault(b, []).append(i)
    number = {b: n for n, b in enumerate(members)}
    ordered = list(members.values())
    return (ordered, [[number[block_of[t]] for t in table[m[0]]]
                      for m in ordered], [accepting[m[0]] for m in ordered])


def _co_deterministic(a: Automaton) -> bool:
    """Whether ``a`` has exactly one accepting state, every state
    reaches it, and no state is entered twice on one letter: its
    reversal is then a DFA whose states are all reachable.

    By Brzozowski's lemma ("Canonical regular expressions and minimal
    state graphs for definite events", 1962) the subset table of such
    an ``a`` is minimal.  Each state accepts some word, as it reaches
    the accepting state, and no two states accept a common word, as the
    word read backwards from the accepting state retraces one run; so
    distinct subsets, the empty one included, accept distinct
    languages."""
    if len(a.accepting) != 1:
        return False
    entered: set[tuple[str, str]] = set()
    sources: dict[str, list[tuple[str, str]]] = {q: [] for q in a.states}
    for (q, sym), targets in a.transitions.items():
        for t in targets:
            if (t, sym) in entered:
                return False
            entered.add((t, sym))
            sources[t].append((sym, q))
    return len(_explore(a.accepting, sources.__getitem__)) == len(a.states)


def _minimal_table(a: Automaton, max_subsets: int
                   ) -> tuple[list[list[int]], list[bool]]:
    """The rows and acceptance of ``minimize(determinize(a,
    max_subsets))``, built from the subset table and never named.

    When ``a`` is co-deterministic (``_co_deterministic``) the table is
    minimal already: every Hopcroft block would be one subset, numbered
    as the table numbers it, so the table is returned as it is.
    Otherwise the Hopcroft core minimizes it."""
    _subsets, table, accepting = _subset_table(a, max_subsets)
    if _co_deterministic(a):
        return table, accepting
    return _hopcroft(table, accepting)[1:]


def minimize(d: Automaton) -> Automaton:
    """Minimal complete DFA for the language of ``d``.

    Unreachable states are discarded, then states are merged by the
    Hopcroft core, over ``d`` read into an integer successor table.
    The state count of the result equals the number of distinguishable
    residual languages.
    """
    _require_complete_dfa(d, "minimize")
    rows, accepting, start = _read(d)
    # numbered in declaration order, which orders and names the blocks
    states = sorted(_explore([start], lambda q: list(enumerate(rows[q]))))
    number = {q: i for i, q in enumerate(states)}
    members, table, final = _hopcroft(
        [[number[t] for t in rows[q]] for q in states],
        [accepting[q] for q in states])
    entry = next(b for b, m in enumerate(members) if number[start] in m)
    return _named_dfa(d.alphabet, [d.states[q] for q in states], entry,
                      members, table, final)


def bisimulation_quotient(a: Automaton) -> Automaton:
    """``a`` with each block of its coarsest forward bisimulation merged
    into its first member in ``core._ordered_states``, which places a
    state after its targets other than itself.  A state joins the block
    with its signature: acceptance and the (letter, target block) pairs,
    its self-loops counted as entering that block.  Returns ``a`` itself
    when a cycle runs through two or more states or nothing merges."""
    order = _ordered_states(a)
    if order is None:
        return a
    cell = a.transitions.get
    letters = range(len(a.alphabet))
    block_of: dict[str, str] = {}
    # a block under its signature, and under its first member's with the
    # self-loops marked None, found so by states entering it by loops alone
    blocks: dict[tuple, str] = {}
    for q in order:
        rows = [cell((q, sym), EMPTY) for sym in a.alphabet]
        moves = frozenset([(i, block_of[t]) for i in letters
                           for t in rows[i] if t != q])
        loops = [i for i in letters if q in rows[i]]
        if not loops:   # one signature, whatever the block
            block_of[q] = blocks.setdefault((q in a.accepting, moves), q)
            continue

        def signature(own: Optional[str]) -> tuple:
            return (q in a.accepting, moves.union([(i, own) for i in loops]))

        b = next((c for _, c in moves if blocks.get(signature(c)) == c), None)
        if b is None:
            b = blocks.setdefault(signature(None), q)
            if b == q:
                blocks[signature(q)] = q
        block_of[q] = b
    if len(set(block_of.values())) == len(a.states):
        return a
    return Automaton(
        a.alphabet, [q for q in a.states if block_of[q] == q],
        {block_of[q] for q in a.initial}, {block_of[q] for q in a.accepting},
        {(q, sym): {block_of[t] for t in targets}
         for (q, sym), targets in a.transitions.items() if block_of[q] == q})


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


def _spell(parents: dict, node: Node) -> Word:
    letters: list[str] = []
    while parents[node] is not None:
        node, symbol = parents[node]
        letters.append(symbol)
    return tuple(reversed(letters))


def is_empty(a: Automaton) -> Decision:
    """Emptiness test.

    ``holds`` means the language is empty.  Otherwise the witness is
    the shortest accepted word, ties broken by alphabet order.
    """
    word = shortest_word(a.initial, a.alphabet, lambda q: [
        (sym, t) for sym in a.alphabet for t in a.step(q, sym)],
        lambda q: q in a.accepting)
    return Decision(True, None) if word is None else Decision(False, word)


def count_language_size(d: Automaton) -> LanguageSize:
    """Number of accepted words, or ``INFINITE``; requires a complete
    deterministic input, which ``_count_words`` counts as a table."""
    _require_complete_dfa(d, "count_language_size")
    return _count_words(*_read(d))


def _count_words(rows: list[list[int]], final: list[bool],
                 start: int) -> LanguageSize:
    """Number of words a complete DFA's table accepts from ``start``,
    or ``INFINITE``.  One component pass from ``start`` yields targets
    first, so a state counts its acceptance plus its targets' counts,
    one per move.  A component with a cycle (two or more states, or a
    self-loop) is infinite when it reaches acceptance, else 0."""
    counts = [0] * len(rows)   # still 0 in the component being summed
    for component in _strongly_connected_components([start], rows):
        q = component[0]
        count = sum(final[p] + sum(counts[t] for t in rows[p])
                    for p in component)
        if count and (len(component) > 1 or q in rows[q]):
            return INFINITE
        counts[q] = count
    return counts[start]
