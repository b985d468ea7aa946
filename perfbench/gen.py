"""Seeded input generators for the benchmark.

Every generator takes a ``random.Random`` and returns plain data: an
automaton is a dict in the JSON wire format (``alphabet``, ``states``,
``initial``, ``accepting``, ``transitions`` as ``[src, symbol, dst]``
triples), a formula is ``(variable_count, clauses)``, a machine is a
dict in the machine JSON format.  Nothing here imports the package
under test, so the program sees only the generated inputs.
"""

from __future__ import annotations

import random


def _automaton(alphabet, states, initial, accepting, cells):
    """Assemble the wire format from a ``{(state, symbol): targets}`` map,
    keeping declaration order for the triples."""
    triples = [[q, sym, t] for q in states for sym in alphabet
               for t in cells.get((q, sym), ())]
    return {"alphabet": list(alphabet), "states": list(states),
            "initial": list(initial), "accepting": list(accepting),
            "transitions": triples}


def letters(count: int) -> list[str]:
    return [chr(ord("a") + i) for i in range(count)]


def random_nfa(rng: random.Random, n_states: int, alphabet,
               p_split: float = 0.5) -> dict:
    """Unrestricted NFA: each cell is filled with probability 0.85 by
    one arbitrary target, or by two with probability ``p_split``."""
    states = [f"s{i}" for i in range(n_states)]
    cells = {}
    for q in states:
        for sym in alphabet:
            if rng.random() < 0.85:
                targets = rng.sample(states, 1 + (rng.random() < p_split))
                cells[(q, sym)] = sorted(targets, key=states.index)
    accepting = sorted(rng.sample(states, rng.randint(1, n_states)),
                       key=states.index)
    return _automaton(alphabet, states, [states[0]], accepting, cells)


def subset_count(aut: dict, cap: int) -> int | None:
    """Number of reachable subsets of the automaton, or None once it
    exceeds ``cap``.  Bounds both the exhaustive pair search and the
    determinizing reference check for a generated pair."""
    cells: dict = {}
    for q, sym, t in aut["transitions"]:
        cells.setdefault((q, sym), set()).add(t)
    start = frozenset(aut["initial"])
    seen, todo = {start}, [start]
    while todo:
        subset = todo.pop()
        for sym in aut["alphabet"]:
            target = frozenset(t for q in subset for t in cells.get((q, sym), ()))
            if target not in seen:
                if len(seen) >= cap:
                    return None
                seen.add(target)
                todo.append(target)
    return len(seen)


def sized_nfa(rng: random.Random, n_states: int, alphabet, cap: int) -> dict:
    """``random_nfa`` with rare splits, redrawn until its subset
    construction has at most ``cap`` states."""
    while True:
        aut = random_nfa(rng, n_states, alphabet, p_split=0.02)
        if subset_count(aut, cap) is not None:
            return aut


def weakened(rng: random.Random, aut: dict) -> dict:
    """Copy with some transitions and accepting states dropped, so its
    language is included in the original's."""
    keep = [t for t in aut["transitions"] if rng.random() < 0.8]
    accepting = [q for q in aut["accepting"] if rng.random() < 0.8]
    return dict(aut, transitions=keep, accepting=accepting)


def renamed(rng: random.Random, aut: dict) -> dict:
    """Same automaton under shuffled state names and state order, so
    its language is equal to the original's."""
    order = aut["states"][:]
    rng.shuffle(order)
    name = {q: f"r{i}" for i, q in enumerate(order)}
    transitions = [[name[q], sym, name[t]] for q, sym, t in aut["transitions"]]
    rng.shuffle(transitions)
    return {"alphabet": aut["alphabet"], "states": [name[q] for q in order],
            "initial": [name[q] for q in aut["initial"]],
            "accepting": [name[q] for q in aut["accepting"]],
            "transitions": transitions}


def completed_depth(aut: dict) -> int:
    """Depth of a partially ordered automaton after completion with a
    sink: the longest self-loop-free path from an initial state, where
    a state with a missing move gains one more step into the sink."""
    succ: dict = {q: set() for q in aut["states"]}
    filled = set()
    for q, sym, t in aut["transitions"]:
        filled.add((q, sym))
        if t != q:
            succ[q].add(t)
    memo: dict = {}

    def longest(q):
        if q not in memo:
            missing = any((q, sym) not in filled for sym in aut["alphabet"])
            memo[q] = max([1 + longest(t) for t in succ[q]] + [int(missing)])
        return memo[q]

    return max(longest(q) for q in aut["initial"])


def random_rponfa(rng: random.Random, n_states: int, alphabet,
                  complete: bool = False) -> dict:
    """Self-loop-deterministic partially ordered NFA.  States are
    ordered; a cell is a lone self-loop or moves to one or two later
    states.  Without ``complete`` some cells stay empty."""
    states = [f"s{i}" for i in range(n_states)]
    cells = {}
    for i, q in enumerate(states):
        ahead = states[i + 1:]
        for sym in alphabet:
            r = rng.random()
            if not ahead:
                if complete or r < 0.5:
                    cells[(q, sym)] = [q]
            elif r < 0.3:
                cells[(q, sym)] = [q]
            elif r < 0.85 or complete:
                targets = {rng.choice(ahead)}
                if rng.random() < 0.4:
                    targets.add(rng.choice(ahead))
                cells[(q, sym)] = sorted(targets, key=states.index)
    accepting = sorted(rng.sample(states, rng.randint(1, n_states)),
                       key=states.index)
    return _automaton(alphabet, states, [states[0]], accepting, cells)


def acceptance(aut: dict, length: int) -> list[bool]:
    """Whether the automaton accepts each word of length at most
    ``length``, the words in length-lexicographic order."""
    cells: dict = {}
    for q, sym, t in aut["transitions"]:
        cells.setdefault((q, sym), set()).add(t)
    accepting = set(aut["accepting"])
    level = [frozenset(aut["initial"])]
    accepted = []
    for _ in range(length + 1):
        accepted += [bool(subset & accepting) for subset in level]
        level = [frozenset(t for q in subset for t in cells.get((q, sym), ()))
                 for subset in level for sym in aut["alphabet"]]
    return accepted


def accepted_fraction(aut: dict, length: int) -> float:
    """Share of the words of length at most ``length`` that the
    automaton accepts."""
    accepted = acceptance(aut, length)
    return sum(accepted) / len(accepted)


def separated(a: dict, b: dict, length: int) -> bool:
    """Whether ``a`` accepts a word of length at most ``length`` that
    ``b`` rejects.  The two share an alphabet."""
    return any(x and not y for x, y in zip(acceptance(a, length),
                                           acceptance(b, length)))


def wide_chain(rng: random.Random, length: int, alphabet_size: int) -> dict:
    """rpoNFA chain ``s0 -> s1 -> ... `` over a wide alphabet.  Each
    state loops on a random half of the letters and advances on one
    other letter; the rest of its cells are empty, so the language is
    far from universal while the completed depth is the chain length."""
    alphabet = [f"x{i}" for i in range(alphabet_size)]
    states = [f"c{i}" for i in range(length)]
    cells = {}
    for i, q in enumerate(states):
        shuffled = alphabet[:]
        rng.shuffle(shuffled)
        loops = shuffled[:alphabet_size // 2]
        for sym in loops:
            cells[(q, sym)] = [q]
        if i + 1 < length:
            cells[(q, shuffled[-1])] = [states[i + 1]]
    accepting = [q for q in states if rng.random() < 0.5] or [states[-1]]
    return _automaton(alphabet, states, [states[0]], accepting, cells)


def suffix_b(m: int) -> dict:
    """NFA for Σ*bΣ^m over {a, b}: the (m+1)-th letter from the end is
    b.  Its minimal DFA has 2^(m+1) states."""
    alphabet = ["a", "b"]
    states = ["loop"] + [f"t{i}" for i in range(m + 1)]
    cells = {("loop", "a"): ["loop"], ("loop", "b"): ["loop", "t0"]}
    for i in range(m):
        for sym in alphabet:
            cells[(f"t{i}", sym)] = [f"t{i + 1}"]
    return _automaton(alphabet, states, ["loop"], [f"t{m}"], cells)


def random_3cnf(rng: random.Random, n_vars: int, n_clauses: int):
    """Random 3CNF with distinct variables inside each clause."""
    clauses = []
    for _ in range(n_clauses):
        chosen = rng.sample(range(1, n_vars + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in chosen))
    return n_vars, clauses


def dimacs(formula) -> str:
    n_vars, clauses = formula
    lines = [f"p cnf {n_vars} {len(clauses)}"]
    lines += [" ".join(map(str, clause)) + " 0" for clause in clauses]
    return "\n".join(lines) + "\n"


def satisfies(formula, bits) -> bool:
    """Does the assignment (bit j is variable j+1, "1" for true) satisfy
    every clause?"""
    _, clauses = formula
    value = [bit == "1" for bit in bits]
    return all(any(value[abs(lit) - 1] == (lit > 0) for lit in clause)
               for clause in clauses)


def satisfiable(formula) -> bool:
    """Brute force over all assignments at once: bit ``j`` of each mask
    is assignment ``j``, so a clause's mask is the OR of its literals'
    columns and the formula's is the AND of its clauses'."""
    n_vars, clauses = formula
    full = (1 << (1 << n_vars)) - 1
    column = []
    for v in range(n_vars):
        block = (1 << (1 << v)) - 1          # 2^v ones: variable v false
        period = block << (1 << v)           # then 2^v ones: variable v true
        mask, width = period, 2 << v
        while width < (1 << n_vars):
            mask |= mask << width
            width *= 2
        column.append(mask)
    satisfying = full
    for clause in clauses:
        clause_mask = 0
        for lit in clause:
            col = column[abs(lit) - 1]
            clause_mask |= col if lit > 0 else full & ~col
        satisfying &= clause_mask
    return satisfying != 0


def random_3cnf_with(rng: random.Random, n_vars: int, n_clauses: int,
                     sat: bool):
    """``random_3cnf`` redrawn until its satisfiability is ``sat``."""
    while True:
        formula = random_3cnf(rng, n_vars, n_clauses)
        if satisfiable(formula) == sat:
            return formula


def _run(machine: dict, word) -> str | None:
    """Run the machine until it accepts or repeats a configuration:
    "accepts", "loops", or None when the head leaves the window."""
    table = {(s, sym): (t, w, mv) for s, sym, t, w, mv in machine["transitions"]}
    bound = machine["space_bound"]
    tape = list(word) + [machine["blank"]] * (bound - len(word))
    state, head, seen = machine["initial"], 0, set()
    while state != machine["accepting"]:
        config = (state, head, tuple(tape))
        if config in seen:
            return "loops"
        seen.add(config)
        state, tape[head], move = table[(state, tape[head])]
        head += {"L": -1, "R": 1, "S": 0}[move]
        if not 0 <= head < bound:
            return None
    return "accepts"


def random_dtm(rng: random.Random, n_states: int, space_bound: int,
               accepts: bool):
    """Small deterministic machine over tape symbols {1, _} and one input
    word, redrawn until the run on that word keeps the head inside the
    window and accepts (or loops) as asked.  Returns ``(machine, word)``."""
    tape = ["1", "_"]
    states = [f"q{i}" for i in range(n_states)] + ["yes"]
    wanted = "accepts" if accepts else "loops"
    while True:
        transitions = []
        for s in states[:-1]:
            for sym in tape:
                transitions.append([s, sym, rng.choice(states),
                                    rng.choice(tape), rng.choice("LRS")])
        machine = {"states": states, "tape_alphabet": tape,
                   "input_alphabet": ["1"], "blank": "_",
                   "initial": states[0], "accepting": "yes",
                   "space_bound": space_bound, "transitions": transitions}
        word = ["1"] * rng.randint(0, space_bound)
        if _run(machine, word) == wanted:
            return machine, word
