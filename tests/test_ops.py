"""Determinization, minimization, complement, product, counting."""

import itertools
import random

import pytest

from ponfa import core, dre, ops
from ponfa.core import (Automaton, CapacityError, _all_reach_start,
                        _strongly_connected_components, accepts, classify,
                        serialize_automaton)
from ponfa.decision import _includes_generic, is_universal
from ponfa.dre import is_dre_definable
from ponfa.extremal import build_a
from ponfa.ops import (DEFAULT_SUBSET_LIMIT, INFINITE, _bits,
                       _co_deterministic, _explore, _hopcroft, _minimal_table,
                       _read, _subset_table, bisimulation_quotient, complement,
                       count_language_size, determinize, is_empty, minimize,
                       product_intersection)
from ponfa.triviality import is_r_trivial

from automata import suffix_b


def contains_a1():
    return Automaton(
        ("a1", "a2"),
        ("p", "q"),
        ["p"],
        ["q"],
        {("p", "a2"): ["p"], ("p", "a1"): ["q"],
         ("q", "a1"): ["q"], ("q", "a2"): ["q"]},
    )


def random_nfa(rng, n_states, alphabet):
    states = [f"s{i}" for i in range(n_states)]
    transitions = {}
    for q in states:
        for symbol in alphabet:
            if rng.random() < 0.8:
                targets = rng.sample(states, min(len(states),
                                                 rng.randint(1, 2)))
                transitions[(q, symbol)] = targets
    initial = rng.sample(states, min(len(states), rng.randint(1, 2)))
    accepting = rng.sample(states, rng.randint(0, n_states))
    return Automaton(alphabet, states, initial, accepting, transitions)


def same_language_to(a, b, length):
    for size in range(length + 1):
        for tokens in itertools.product(a.alphabet, repeat=size):
            if accepts(a, tokens) != accepts(b, tokens):
                return False
    return True


def test_determinize_is_complete_and_equivalent():
    a = Automaton(("a", "b"), ("p", "q", "r"), ["p"], ["r"],
                  {("p", "a"): ["p", "q"], ("q", "b"): ["r"]})
    d = determinize(a)
    flags = classify(d)
    assert flags.is_deterministic and flags.is_complete
    assert same_language_to(a, d, 5)


def test_determinize_on_random_nfas():
    rng = random.Random(3)
    for _ in range(40):
        a = random_nfa(rng, rng.randint(1, 5), ("a", "b"))
        d = determinize(a)
        flags = classify(d)
        assert flags.is_deterministic and flags.is_complete
        assert same_language_to(a, d, 4)


def test_determinize_respects_the_subset_cap():
    # last-symbol-distinct language needs exponentially many subsets
    n = 8
    states = [f"s{i}" for i in range(n + 1)]
    transitions = {("s0", "a"): ["s0", "s1"], ("s0", "b"): ["s0"]}
    for i in range(1, n):
        transitions[(f"s{i}", "a")] = [f"s{i + 1}"]
        transitions[(f"s{i}", "b")] = [f"s{i + 1}"]
    a = Automaton(("a", "b"), states, ["s0"], [states[-1]], transitions)
    with pytest.raises(CapacityError):
        determinize(a, max_subsets=16)


def frozenset_subset_table(a, max_subsets):
    """The subset construction over frozensets of state indices, walked
    breadth first: the reference for ``_subset_table``'s bit masks."""
    index = a.state_index
    none = frozenset()
    rows = [[none] * len(a.states) for _ in a.alphabet]
    for (q, sym), targets in a.transitions.items():
        rows[a.symbol_index(sym)][index(q)] = frozenset(map(index, targets))
    graph = {frozenset(map(index, a.initial)): None}
    order = list(graph)
    for subset in order:
        graph[subset] = edges = [none.union(*[row[q] for q in subset])
                                 for row in rows]
        for target in edges:
            if target not in graph:
                if len(graph) >= max_subsets:
                    raise CapacityError(f"subset construction exceeded "
                                        f"{max_subsets} states")
                graph[target] = None
                order.append(target)
    number = {subset: i for i, subset in enumerate(graph)}
    accepting = frozenset(map(index, a.accepting))
    return (order, [[number[t] for t in edges] for edges in graph.values()],
            [not accepting.isdisjoint(subset) for subset in order])


def test_subset_table_matches_a_frozenset_construction():
    rng = random.Random(43)
    letters = [f"x{i}" for i in range(24)]
    # one 5,000-state chain on the first of two letters
    chain = [f"c{i}" for i in range(5000)]
    automata = [Automaton(("a", "b"), chain, ["c0"], chain[::7], {
        (q, "a"): [t] for q, t in zip(chain, chain[1:])})]
    for _ in range(500):
        n = rng.randint(1, 9)
        alphabet = letters[:rng.choice((1, 2, 3, 21, 24))]
        states = [f"s{i}" for i in range(n)]
        density = 0.7 if len(alphabet) < 4 else 0.12
        transitions = {(q, sym): rng.sample(states, rng.randint(1, min(n, 3)))
                       for q in states for sym in alphabet
                       if rng.random() < density}
        initial = ([] if rng.random() < 0.15 else
                   rng.sample(states, rng.randint(1, min(n, 3))))
        automata.append(Automaton(alphabet, states, initial,
                                  rng.sample(states, rng.randint(0, n)),
                                  transitions))
    # 20-letter chains whose subsets are single states, and whose
    # packed rows span 2,000-4,000 bits
    for length in (100, 150, 200):
        alphabet = letters[:20]
        states = [f"c{i}" for i in range(length)]
        transitions = {(q, alphabet[(i + j) % 20]): [q]
                       for i, q in enumerate(states) for j in range(10)}
        transitions.update({(q, alphabet[(i + 10) % 20]): [t] for i, (q, t)
                            in enumerate(zip(states, states[1:]))})
        automata.append(Automaton(alphabet, states, states[:1], states[::2],
                                  transitions))
    # 30-40 states over 3 letters, with thousands of subsets
    for _ in range(5):
        n = rng.randint(30, 40)
        states = [f"s{i}" for i in range(n)]
        transitions = {(q, sym): rng.sample(states, rng.randint(1, 2))
                       for q in states for sym in "abc" if rng.random() < 0.7}
        automata.append(Automaton("abc", states, states[:1],
                                  rng.sample(states, n // 2), transitions))
    assert sum(not a.initial for a in automata) >= 50
    assert sum(len(a.alphabet) > 20 for a in automata) >= 150
    boundaries = large = 0
    for a in automata:
        subsets, table, accepting = _subset_table(a, DEFAULT_SUBSET_LIMIT)
        large += len(subsets) >= 1000
        members, ref_table, ref_accepting = frozenset_subset_table(
            a, DEFAULT_SUBSET_LIMIT)
        assert list(map(_bits, subsets)) == list(map(sorted, members))
        assert subsets == [sum(1 << q for q in m) for m in members]
        assert (table, accepting) == (ref_table, ref_accepting)
        # n subsets fit a budget of n and exceed a budget of n - 1
        count = len(subsets)
        assert _subset_table(a, count)[1] == table
        if count > 1:
            message = f"^subset construction exceeded {count - 1} states$"
            for construction in (_subset_table, frozenset_subset_table):
                with pytest.raises(CapacityError, match=message):
                    construction(a, count - 1)
            boundaries += 1
    assert len(automata[0].states) == 5000 and boundaries >= 350
    assert large == 5   # the 5,000-state chain and four random NFAs
    # verify_extremal's cap on build_a(1, 239): 239 letters of 717 states
    cap = DEFAULT_SUBSET_LIMIT // 239
    for construction in (_subset_table, frozenset_subset_table):
        with pytest.raises(CapacityError, match=(
                f"^subset construction exceeded {cap} states$")):
            construction(build_a(1, 239), cap)


@pytest.mark.parametrize("a, message", [
    (Automaton(("a",), ("p", "q"), ["p"], ["q"], {("p", "a"): ["p", "q"]}),
     "minimize requires a complete deterministic automaton; "
     "state 'p' has 2 moves on 'a'"),
    (Automaton(("a", "b"), ("p",), ["p"], ["p"], {("p", "a"): ["p"]}),
     "minimize requires a complete deterministic automaton; "
     "state 'p' has 0 moves on 'b'"),
    (Automaton(("a",), ("p", "q"), ["p", "q"], ["q"],
               {("p", "a"): ["p"], ("q", "a"): ["q"]}),
     "minimize requires a single initial state"),
    (Automaton(("a",), ("p",), [], ["p"], {("p", "a"): ["p"]}),
     "minimize requires a single initial state"),
], ids=["nfa", "partial", "two-initial", "no-initial"])
def test_minimize_requires_complete_dfa(a, message):
    with pytest.raises(ValueError) as caught:
        minimize(a)
    assert str(caught.value) == message


def test_minimize_collapses_equivalent_states():
    # two redundant copies of the accepting state
    d = Automaton(("a",), ("p", "q", "r"), ["p"], ["q", "r"],
                  {("p", "a"): ["q"], ("q", "a"): ["r"], ("r", "a"): ["q"]})
    m = minimize(d)
    assert len(m.states) == 2
    assert same_language_to(d, m, 6)


def test_minimize_is_canonical_on_random_nfas():
    rng = random.Random(9)
    for _ in range(30):
        a = random_nfa(rng, rng.randint(1, 5), ("a", "b"))
        m = minimize(determinize(a))
        assert same_language_to(a, m, 4)
        again = minimize(determinize(m))
        assert len(again.states) == len(m.states)


def test_minimize_matches_pairwise_distinguishability():
    # reference: table filling over the reachable states; the classes of
    # indistinguishable states, named and ordered as minimize names them
    rng = random.Random(31)
    pruned = merged = 0
    for trial in range(300):
        n = rng.randint(1, 30)
        alphabet = ("a", "b", "c")[:rng.randint(1, 3)]
        states = [f"s{i}" for i in range(n)]
        delta = {(q, sym): rng.choice(states)
                 for q in states for sym in alphabet}
        accepting = set(rng.sample(states, rng.randint(0, n)))
        # a random start leaves some states unreachable
        start = rng.choice(states)
        d = Automaton(alphabet, states, [start], accepting,
                      {key: [t] for key, t in delta.items()})
        seen, stack = {start}, [start]
        while stack:
            q = stack.pop()
            for sym in alphabet:
                if delta[q, sym] not in seen:
                    seen.add(delta[q, sym])
                    stack.append(delta[q, sym])
        reachable = [q for q in states if q in seen]
        pairs = [frozenset(pair)
                 for pair in itertools.combinations(reachable, 2)]
        apart = {pair for pair in pairs if len(pair & accepting) == 1}
        changed = True
        while changed:
            changed = False
            for pair in pairs:
                p, q = pair
                if pair not in apart and any(
                        frozenset((delta[p, sym], delta[q, sym])) in apart
                        for sym in alphabet):
                    apart.add(pair)
                    changed = True
        name = {q: "{" + ",".join(p for p in reachable if p == q
                                  or frozenset((p, q)) not in apart) + "}"
                for q in reachable}
        m = minimize(d)
        # reachable is in declaration order, so classes come out ordered
        # by their least member
        expected = tuple(dict.fromkeys(name[q] for q in reachable))
        assert m.states == expected, trial
        assert m.initial == {name[start]}
        assert m.accepting == {name[q] for q in reachable if q in accepting}
        for q in reachable:
            for sym in alphabet:
                assert m.step(name[q], sym) == {name[delta[q, sym]]}, trial
        pruned += len(reachable) < n
        merged += len(m.states) < len(reachable)
    assert pruned >= 150 and merged >= 50


def test_minimal_table_equals_minimize_of_determinize():
    # names with commas make generated names collide, and the initial
    # set is empty about a third of the time
    pool = ["p", "q", "p,q", "r", "q,r", "p,q,r", "p,r"]
    rng = random.Random(29)
    primed = capped = 0

    def unnamed(a, cap):
        try:
            return _minimal_table(a, cap)
        except CapacityError as error:
            return str(error)

    def read_back(a, cap):
        try:
            rows, accepting, start = _read(minimize(determinize(a, cap)))
        except CapacityError as error:
            return str(error)
        assert start == 0
        return rows, accepting

    for trial in range(500):
        n = rng.randint(1, 7)
        alphabet = ("a", "b", "c")[:rng.randint(1, 3)]
        states = rng.sample(pool, n)
        transitions = {(q, sym): rng.sample(states, rng.randint(0, min(n, 2)))
                       for q in states for sym in alphabet}
        a = Automaton(alphabet, states,
                      rng.sample(states, rng.randint(0, min(n, 2))),
                      rng.sample(states, rng.randint(0, n)), transitions)
        assert (unnamed(a, DEFAULT_SUBSET_LIMIT)
                == read_back(a, DEFAULT_SUBSET_LIMIT)), trial
        primed += "'" in serialize_automaton(minimize(determinize(a)))
        for cap in (1, 2, 3, 5):
            expected = read_back(a, cap)
            assert unnamed(a, cap) == expected, (trial, cap)
            capped += str(expected).startswith("subset construction exceeded")
    assert primed >= 20 and capped >= 500


def reversed_dfa(rng):
    """The reversal of a random partial DFA whose every state is
    reachable, declared in shuffled order: its one accepting state is
    the DFA's start, every state reaches it, and no state is entered
    twice on one letter.  Its initial states are the DFA's accepting
    ones, sometimes none."""
    n = rng.randint(1, 7)
    alphabet = ("a", "b", "c")[:rng.randint(1, 3)]
    delta = {}
    for t in range(1, n):   # state t is entered from an earlier state
        delta[rng.choice([(q, sym) for q in range(t) for sym in alphabet
                          if (q, sym) not in delta])] = t
    for q in range(n):
        for sym in alphabet:
            if (q, sym) not in delta and rng.random() < 0.5:
                delta[q, sym] = rng.randrange(n)
    moves = list(delta.items())
    rng.shuffle(moves)
    transitions = {}
    for (q, sym), t in moves:
        transitions.setdefault((f"d{t}", sym), []).append(f"d{q}")
    states = [f"d{q}" for q in range(n)]
    rng.shuffle(states)
    return Automaton(alphabet, states,
                     [q for q in states if rng.random() < 0.5], ["d0"],
                     transitions)


def test_co_deterministic_subset_tables_are_minimal_as_built():
    rng = random.Random(47)
    larger = 0
    for trial in range(2000):
        a = reversed_dfa(rng)
        assert _co_deterministic(a), trial
        table = _subset_table(a, DEFAULT_SUBSET_LIMIT)[1:]
        assert (_minimal_table(a, DEFAULT_SUBSET_LIMIT)
                == _hopcroft(*table)[1:] == table), trial
        larger += len(table[0]) > 2
    assert larger >= 1000


def perturbed_reversed_dfa(rng):
    """``reversed_dfa`` with up to two more moves and, at times, one more
    accepting state, so that about half are still co-deterministic."""
    a = reversed_dfa(rng)
    cells = dict(a.transitions)
    for _ in range(rng.randint(0, 2)):
        key = (rng.choice(a.states), rng.choice(a.alphabet))
        cells[key] = cells.get(key, frozenset()) | {rng.choice(a.states)}
    accepting = {*a.accepting, *rng.sample(a.states, rng.random() < 0.2)}
    return Automaton(a.alphabet, a.states, a.initial, accepting, cells)


def test_minimal_table_shortcut_keeps_every_verdict(monkeypatch):
    rng = random.Random(53)
    automata = [random_nfa(rng, rng.randint(1, 7), ("a", "b", "c")[:k])
                for k in (1, 2, 3) for _ in range(333)]
    automata += [perturbed_reversed_dfa(rng) for _ in range(1000)]
    taken = [_co_deterministic(a) for a in automata]
    assert 400 <= sum(taken) <= 1000

    def answers():
        return [(is_r_trivial(a), is_dre_definable(a)) for a in automata]

    shortcut = answers()
    monkeypatch.setattr(ops, "_co_deterministic", lambda a: False)
    assert answers() == shortcut
    # the shortcut decides both verdicts both ways
    assert sum(t and not r.holds for t, (r, _) in zip(taken, shortcut)) >= 150
    assert sum(t and not d for t, (_, d) in zip(taken, shortcut)) >= 80


def renamed(rng, a):
    """``a`` under shuffled state names, state order and transition order."""
    order = rng.sample(a.states, len(a.states))
    name = {q: f"r{i}" for i, q in enumerate(order)}
    cells = list(a.transitions.items())
    rng.shuffle(cells)
    return Automaton(a.alphabet, [name[q] for q in order],
                     [name[q] for q in a.initial],
                     [name[q] for q in a.accepting],
                     {(name[q], sym): [name[t] for t in targets]
                      for (q, sym), targets in cells})


def counted_hopcroft(monkeypatch):
    """Route ``_hopcroft`` through a counter in every module that calls
    it, and return the list of tables it was called on."""
    calls = []

    def counted(table, accepting):
        calls.append(table)
        return _hopcroft(table, accepting)

    for module in (ops, dre):
        monkeypatch.setattr(module, "_hopcroft", counted)
    return calls


def test_suffix_b_never_reaches_hopcroft(monkeypatch):
    calls = counted_hopcroft(monkeypatch)
    rng = random.Random(59)
    for m in range(1, 9):
        for a in (suffix_b(m), renamed(rng, suffix_b(m))):
            rows, accepting = _minimal_table(a, DEFAULT_SUBSET_LIMIT)
            assert len(rows) == len(accepting) == 2 ** (m + 1)
            assert not is_r_trivial(a).holds
            assert is_dre_definable(a) is False
    assert calls == []


def test_reach_walk_keeps_every_verdict(monkeypatch):
    rng = random.Random(61)
    automata = [random_nfa(rng, rng.randint(1, 7), ("a", "b", "c")[:k])
                for k in (1, 2, 3) for _ in range(1000)]
    automata += [suffix_b(m) for m in range(1, 9)]
    automata += [renamed(rng, suffix_b(m)) for m in range(1, 9)]
    walked = []

    def answers():
        return [(is_r_trivial(a), is_dre_definable(a)) for a in automata]

    def counted(rows):
        walked.append(_all_reach_start(rows))
        return walked[-1]

    # core._proper_orbits, the walk's one caller, looks it up per call
    monkeypatch.setattr(core, "_all_reach_start", counted)
    walk = answers()
    monkeypatch.setattr(core, "_all_reach_start", lambda rows: False)
    assert answers() == walk
    # the walk answers both ways, 842 of 2,985 times True
    assert 800 <= sum(walked) <= len(walked) - 1500


def test_suffix_b_never_reaches_tarjan(monkeypatch):
    calls = []

    def counted(vertices, edges):
        calls.append(edges)
        return _strongly_connected_components(vertices, edges)

    # core._proper_orbits, and dre after a cut
    for module in (core, dre):
        monkeypatch.setattr(module, "_strongly_connected_components", counted)
    rng = random.Random(67)
    for m in range(1, 9):
        for a in (suffix_b(m), renamed(rng, suffix_b(m))):
            loop = ("b",) + ("a",) * (m + 1)
            assert is_r_trivial(a).cycle_words == ((), loop)
            assert is_dre_definable(a) is False
    assert calls == []


def reachable_table(rows):
    """The rows reachable from state 0, renumbered in the order found."""
    reach = [0]
    for q in reach:     # the list grows while it is read
        for t in rows[q]:
            if t is not None and t not in reach:
                reach.append(t)
    number = {q: i for i, q in enumerate(reach)}
    return [[None if t is None else number[t] for t in rows[q]]
            for q in reach]


def test_proper_orbits_are_tarjans_cyclic_components():
    rng = random.Random(73)
    tables = []
    for _ in range(600):
        n = rng.randint(1, 12)
        width = rng.randint(1, 3)
        tables.append(reachable_table([[rng.randrange(n) for _ in range(width)]
                                       for _ in range(n)]))
    for _ in range(600):
        alphabet = ("a", "b", "c")[:rng.randint(1, 3)]
        a = random_nfa(rng, rng.randint(1, 7), alphabet)
        trimmed = dre._trim(*_minimal_table(a, DEFAULT_SUBSET_LIMIT))
        if trimmed is not None:
            tables.append(trimmed[0])
    for m in range(1, 9):
        tables.append(_minimal_table(suffix_b(m), DEFAULT_SUBSET_LIMIT)[0])
    strong = split = ordered = missing = 0
    for rows in tables:
        # Tarjan skips a None cell as it skips a missing edge
        edges = [[t for t in row if t is not None] for row in rows]
        components = _strongly_connected_components(range(len(rows)), edges)
        assert components == _strongly_connected_components(
            range(len(rows)), rows)
        orbits = core._proper_orbits(rows)
        assert orbits == [sorted(c) for c in components if len(c) > 1]
        strong += len(components) == 1 < len(rows)
        split += len(orbits) >= 1 and len(components) > 1
        ordered += not orbits
        missing += any(None in row for row in rows)
    assert len(tables) >= 1000
    assert min(strong, split, ordered, missing) >= 100


def refused_variants():
    """Σ*bΣ^2 changed to fail each condition of ``_co_deterministic``."""
    base = suffix_b(2)
    cells = dict(base.transitions)

    def variant(states=base.states, accepting=base.accepting, moves=()):
        return Automaton(base.alphabet, states, base.initial, accepting,
                         {**cells, **dict(moves)})

    return {
        "no accepting state": variant(accepting=[]),
        "two accepting states": variant(accepting=["q2", "q3"]),
        "entered twice on one letter": variant(
            moves=[(("q1", "a"), ["q2", "q3"])]),
        "cannot reach acceptance": variant(
            states=[*base.states, "v"], moves=[(("q0", "a"), ["q0", "v"])]),
    }


@pytest.mark.parametrize("label", list(refused_variants()))
def test_each_refusal_falls_back_to_hopcroft(monkeypatch, label):
    assert _co_deterministic(suffix_b(2))
    a = refused_variants()[label]
    assert not _co_deterministic(a)
    calls = counted_hopcroft(monkeypatch)
    table = _minimal_table(a, DEFAULT_SUBSET_LIMIT)
    assert len(calls) == 1
    monkeypatch.setattr(ops, "_co_deterministic", lambda a: False)
    assert _minimal_table(a, DEFAULT_SUBSET_LIMIT) == table


def test_complement_flips_membership():
    a = contains_a1()
    comp = complement(determinize(a))
    for size in range(5):
        for tokens in itertools.product(a.alphabet, repeat=size):
            assert accepts(a, tokens) != accepts(comp, tokens)


def test_product_intersection():
    a = contains_a1()
    # words of even length
    even = Automaton(("a1", "a2"), ("e", "o"), ["e"], ["e"],
                     {("e", "a1"): ["o"], ("e", "a2"): ["o"],
                      ("o", "a1"): ["e"], ("o", "a2"): ["e"]})
    both = product_intersection(a, even)
    for size in range(5):
        for tokens in itertools.product(a.alphabet, repeat=size):
            expect = accepts(a, tokens) and accepts(even, tokens)
            assert accepts(both, tokens) == expect
    with pytest.raises(ValueError):
        product_intersection(a, Automaton(("x",), ("p",), ["p"], [], {}))


def test_generated_names_stay_unique_when_state_names_hold_commas():
    # {q, r} and {"q,r"} both spell {q,r}; the one met second gets a prime
    a = Automaton(("x", "y"), ("s", "q", "r", "q,r"), ["s"], ["q"],
                  {("s", "x"): ["q", "r"], ("s", "y"): ["q,r"]})
    d = determinize(a)
    assert d.states == ("{s}", "{q,r}", "{q,r}'", "{}")
    assert same_language_to(a, d, 3)
    assert minimize(d).states == ("{{s}}", "{{q,r}}", "{{q,r}',{}}")
    # the pairs (p,q | r) and (p | q,r) both spell (p,q,r)
    left = Automaton(("a",), ("p,q", "p"), ["p,q", "p"], ["p"], {})
    right = Automaton(("a",), ("r", "q,r"), ["r", "q,r"], ["r"], {})
    both = product_intersection(left, right)
    assert both.states == ("(p,q,r)", "(p,q,q,r)", "(p,r)", "(p,q,r)'")
    assert both.accepting == {"(p,r)"}


def test_is_empty_finds_least_shortest_witness():
    a = Automaton(("a", "b"), ("p", "q", "r"), ["p"], ["r"],
                  {("p", "b"): ["q"], ("p", "a"): ["q"],
                   ("q", "b"): ["r"], ("q", "a"): ["r"]})
    verdict = is_empty(a)
    assert not verdict.holds
    assert verdict.witness == ("a", "a")

    # p and q both start on the empty word, so their moves are read
    # together, a before b
    shared = Automaton(("a", "b"), ("p", "q", "f"), ["p", "q"], ["f"],
                       {("p", "b"): ["f"], ("q", "a"): ["f"]})
    assert is_empty(shared).witness == ("a",)

    hopeless = Automaton(("a",), ("p", "q"), ["p"], ["q"], {})
    verdict = is_empty(hopeless)
    assert verdict.holds and verdict.witness is None


def test_is_empty_witness_accepted():
    rng = random.Random(17)
    for _ in range(40):
        a = random_nfa(rng, rng.randint(1, 5), ("a", "b"))
        verdict = is_empty(a)
        if verdict.holds:
            assert same_language_to(
                a, Automaton(("a", "b"), ("d",), ["d"], [], {}), 4)
        else:
            assert accepts(a, verdict.witness)


def test_is_empty_witness_is_the_length_lex_least_word():
    # a nonempty language of an n-state automaton has a word shorter
    # than n, so scanning words in length-lex order up to n - 1 finds
    # the least one or proves emptiness
    rng = random.Random(71)
    nonempty = 0
    for _ in range(120):
        alphabet = ("a", "b", "c")[:rng.randint(1, 3)]
        a = random_nfa(rng, rng.randint(1, 6), alphabet)
        least = next((word for size in range(len(a.states))
                      for word in itertools.product(alphabet, repeat=size)
                      if accepts(a, word)), None)
        verdict = is_empty(a)
        assert verdict.holds == (least is None)
        assert verdict.witness == least
        nonempty += least is not None
    assert nonempty >= 60


def test_count_language_size():
    a = contains_a1()
    assert count_language_size(determinize(a)) == INFINITE

    # exactly the two words of length one
    two = Automaton(("a", "b"), ("p", "q"), ["p"], ["q"],
                    {("p", "a"): ["q"], ("p", "b"): ["q"]})
    assert count_language_size(determinize(two)) == 2

    none = Automaton(("a",), ("p",), ["p"], [], {("p", "a"): ["p"]})
    assert count_language_size(determinize(none)) == 0

    # empty word plus either letter once: three words
    short = Automaton(("a", "b"), ("p", "q"), ["p"], ["p", "q"],
                      {("p", "a"): ["q"], ("p", "b"): ["q"]})
    assert count_language_size(determinize(short)) == 3

    with pytest.raises(ValueError):
        count_language_size(Automaton(("a",), ("p",), ["p"], [], {}))


def test_count_language_size_reads_a_cycle_by_what_it_reaches():
    # p accepts and moves to the cycle q <-> r on a, to s on b; s
    # accepts and moves to the dead state d
    def dfa(r_accepts, r_exit):
        return Automaton(
            ("a", "b"), ("p", "q", "r", "s", "d"), ["p"],
            ["p", "s"] + ["r"] * r_accepts,
            {("p", "a"): ["q"], ("p", "b"): ["s"],
             ("q", "a"): ["r"], ("q", "b"): ["r"],
             ("r", "a"): ["q"], ("r", "b"): [r_exit],
             ("s", "a"): ["d"], ("s", "b"): ["d"],
             ("d", "a"): ["d"], ("d", "b"): ["d"]})

    # a reachable cycle that cannot accept adds no word: "" and "b"
    assert count_language_size(dfa(False, "q")) == 2
    assert count_language_size(dfa(False, "d")) == 2
    # one that accepts, itself or through a target counted before it
    assert count_language_size(dfa(True, "q")) == INFINITE
    assert count_language_size(dfa(False, "s")) == INFINITE


def random_dfa(rng, n_states, alphabet, forward_only):
    """Complete DFA; with ``forward_only`` every move goes to a later
    state or, from the last state, back to itself, and the last state
    rejects, so the language is finite."""
    states = [f"s{i}" for i in range(n_states)]
    transitions = {}
    for i, q in enumerate(states):
        for symbol in alphabet:
            later = states[i + 1:] if forward_only else states
            transitions[(q, symbol)] = [rng.choice(later or [q])]
    candidates = states[:-1] if forward_only else states
    accepting = rng.sample(candidates, rng.randint(0, len(candidates)))
    return Automaton(alphabet, states, [states[0]], accepting, transitions)


def accepted_lengths(d, limit):
    """The length of every accepted word shorter than ``limit``, one
    entry per word."""
    (start,) = d.initial
    lengths = []
    stack = [(start, 0)]
    while stack:
        q, size = stack.pop()
        if q in d.accepting:
            lengths.append(size)
        if size + 1 < limit:
            stack.extend((t, size + 1) for symbol in d.alphabet
                         for t in d.step(q, symbol))
    return lengths


def test_count_language_size_matches_brute_force():
    # an n-state complete DFA accepts infinitely many words exactly when
    # it accepts one of length in [n, 2n); otherwise all are shorter than n
    rng = random.Random(23)
    finite = infinite = 0
    for trial in range(300):
        alphabet = ("a", "b")[:rng.randint(1, 2)]
        d = random_dfa(rng, rng.randint(1, 6), alphabet, trial % 2 == 0)
        for candidate in (d, minimize(d), complement(d)):
            n = len(candidate.states)
            lengths = accepted_lengths(candidate, 2 * n)
            if any(size >= n for size in lengths):
                expected = INFINITE
                infinite += 1
            else:
                expected = len(lengths)
                finite += expected > 0
            assert count_language_size(candidate) == expected, trial
    assert finite >= 100 and infinite >= 100


def test_count_language_size_handles_long_chains():
    count = 5000
    states = [f"s{i}" for i in range(count)] + ["dead"]
    transitions = {(states[i], "a"): [states[i + 1]] for i in range(count)}
    transitions[("dead", "a")] = ["dead"]
    chain = Automaton(("a",), states, ["s0"], [states[count - 1]], transitions)
    assert count_language_size(chain) == 1


def test_reachability_walks_match_a_naive_fixpoint():
    rng = random.Random(17)
    for _ in range(300):
        alphabet = ("a", "b", "c")[:rng.randint(1, 3)]
        n = rng.randint(1, 6)
        states = [f"s{i}" for i in range(n)]
        transitions = {(q, sym): rng.sample(states, rng.randint(0, min(n, 2)))
                       for q in states for sym in alphabet}
        # the initial set is empty a third of the time, the accepting
        # set at least a seventh
        a = Automaton(alphabet, states,
                      rng.sample(states, rng.randint(0, min(n, 2))),
                      rng.sample(states, rng.randint(0, n)), transitions)
        distance = {q: 0 for q in a.initial}
        changed = True
        while changed:
            changed = False
            for (q, _), targets in a.transitions.items():
                for t in targets:
                    step = distance.get(q, INFINITE) + 1
                    if step < distance.get(t, INFINITE):
                        distance[t] = step
                        changed = True
        # the breadth-first order by which every table numbers its states
        order = list(_explore(sorted(a.initial, key=a.state_index), lambda q: [
            (sym, t) for sym in a.alphabet for t in a.step(q, sym)]))
        assert len(order) == len(set(order)) and set(order) == set(distance)
        assert [distance[q] for q in order] == sorted(distance.values())
        assert order[:len(a.initial)] == sorted(a.initial, key=a.state_index)


def random_ponfa(rng, n_states, alphabet):
    """States listed in topological order: a cell holds its own source
    or not, plus up to two later states.  Self-loops may be
    nondeterministic, and the initial or accepting set is sometimes
    empty."""
    states = [f"s{i}" for i in range(n_states)]
    transitions = {}
    for i, q in enumerate(states):
        for symbol in alphabet:
            later = states[i + 1:]
            targets = set(rng.sample(later,
                                     rng.randint(0, min(2, len(later)))))
            if rng.random() < 0.4:
                targets.add(q)
            transitions[(q, symbol)] = targets
    initial = ([] if rng.random() < 0.1 else
               rng.sample(states, rng.randint(1, min(2, n_states))))
    accepting = rng.sample(states, rng.randint(0, n_states))
    return Automaton(alphabet, states, initial, accepting, transitions)


def refined_block_count(a):
    """Blocks of the coarsest forward bisimulation, by signature
    refinement repeated until the block count stops growing."""
    block = {q: q in a.accepting for q in a.states}
    count = len(set(block.values()))
    while True:
        signatures = {q: (block[q], *[frozenset(block[t]
                                                for t in a.step(q, sym))
                                      for sym in a.alphabet])
                      for q in a.states}
        number = {signature: i for i, signature
                  in enumerate(dict.fromkeys(signatures.values()))}
        block = {q: number[signatures[q]] for q in a.states}
        if len(number) == count:
            return count
        count = len(number)


def test_bisimulation_quotient_is_the_coarsest_and_keeps_the_language():
    rng = random.Random(29)
    for _ in range(3000):
        a = random_ponfa(rng, rng.randint(1, 10),
                         ("a", "b", "c")[:rng.randint(1, 3)])
        quotient = bisimulation_quotient(a)
        assert len(quotient.states) == refined_block_count(a)
        assert (quotient is a) == (len(quotient.states) == len(a.states))
        assert same_language_to(quotient, a, 4)
        before, after = classify(a), classify(quotient)
        assert after.is_partially_ordered
        assert (after.is_self_loop_deterministic
                or not before.is_self_loop_deterministic)
        # the input searched as it is, against the search that answers
        assert (is_universal(quotient)
                == _includes_generic(None, a, DEFAULT_SUBSET_LIMIT))
    # a cycle through two states: returned as it is
    cyclic = Automaton(("a",), ("p", "q"), ["p"], ["p", "q"],
                       {("p", "a"): ["q"], ("q", "a"): ["p"]})
    assert bisimulation_quotient(cyclic) is cyclic
