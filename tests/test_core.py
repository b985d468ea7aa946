"""Automaton data type, JSON round trips, classification, depth."""

import json
import os
import random
import subprocess
import sys
from collections import Counter

import pytest

import ponfa
from ponfa.core import (Automaton, AutomatonClass, AutomatonKind, FormatError,
                        _all_reach_start, _ordered_states,
                        _strongly_connected_components, accepts, classify,
                        complete_automaton, depth, parse_automaton,
                        parse_word, serialize_automaton)
from ponfa.ops import bisimulation_quotient
from ponfa.reductions import Dtm, dtm_to_ponfa


def two_chain():
    # a1 moves forward, a2 waits; accepts words containing a1
    return Automaton(
        ("a1", "a2"),
        ("p", "q"),
        ["p"],
        ["q"],
        {("p", "a2"): ["p"], ("p", "a1"): ["q"],
         ("q", "a1"): ["q"], ("q", "a2"): ["q"]},
    )


def test_constructor_normalizes():
    a = two_chain()
    assert a.alphabet == ("a1", "a2")
    assert a.initial == frozenset({"p"})
    assert a.step("p", "a1") == frozenset({"q"})
    assert a.step("q", "a2") == frozenset({"q"})
    assert a.step("p", "missing" if False else "a2") == frozenset({"p"})


def test_empty_target_sets_are_dropped():
    a = Automaton(("a",), ("p",), ["p"], ["p"], {("p", "a"): []})
    assert ("p", "a") not in a.transitions
    assert a.step("p", "a") == frozenset()


def test_constructor_rejects_bad_input():
    with pytest.raises(FormatError):
        Automaton((), ("p",), ["p"], [], {})
    with pytest.raises(FormatError):
        Automaton(("a",), (), [], [], {})
    with pytest.raises(FormatError):
        Automaton(("a", "a"), ("p",), ["p"], [], {})
    with pytest.raises(FormatError):
        Automaton(("a",), ("p", "p"), ["p"], [], {})
    with pytest.raises(FormatError):
        Automaton(("a",), ("p",), ["q"], [], {})
    with pytest.raises(FormatError):
        Automaton(("a",), ("p",), ["p"], ["q"], {})
    with pytest.raises(FormatError):
        Automaton(("a",), ("p",), ["p"], [], {("q", "a"): ["p"]})
    with pytest.raises(FormatError):
        Automaton(("a",), ("p",), ["p"], [], {("p", "b"): ["p"]})
    with pytest.raises(FormatError):
        Automaton(("a",), ("p",), ["p"], [], {("p", "a"): ["q"]})


def test_no_initial_state_is_allowed():
    a = Automaton(("a",), ("p",), [], ["p"], {})
    assert not accepts(a, ())
    assert not accepts(a, ("a",))


def test_accepts_runs_the_subset_simulation():
    a = two_chain()
    assert not accepts(a, ())
    assert not accepts(a, ("a2", "a2"))
    assert accepts(a, ("a1",))
    assert accepts(a, ("a2", "a1", "a2"))
    with pytest.raises(ValueError):
        accepts(a, ("zzz",))


def test_unknown_symbol_after_the_run_dies_raises():
    empty_start = Automaton(("a",), ("p",), [], ["p"], {})
    with pytest.raises(ValueError):
        accepts(empty_start, ("a", "x"))
    dying = Automaton(("a", "b"), ("p", "q"), ["p"], ["q"],
                      {("p", "a"): ["q"]})
    assert not accepts(dying, ("b", "a"))
    with pytest.raises(ValueError):
        accepts(dying, ("b", "x"))


def test_parse_serialize_round_trip():
    a = two_chain()
    text = serialize_automaton(a)
    b = parse_automaton(text)
    assert a == b
    # canonical form is a fixed point
    assert serialize_automaton(b) == text
    # equality reads every field: one field changed makes them unequal
    fields = dict(alphabet=a.alphabet, states=a.states, initial=a.initial,
                  accepting=a.accepting, transitions=a.transitions)
    for key, value in (("alphabet", ("a2", "a1")), ("states", ("q", "p")),
                       ("initial", ["q"]), ("accepting", ["p"]),
                       ("transitions", {("p", "a1"): ["q"]})):
        assert Automaton(**dict(fields, **{key: value})) != a, key


def dumped(a):
    """The canonical document of ``a`` written by ``json.dumps``, the
    layout that ``serialize_automaton`` writes directly."""
    triples = sorted((a.state_index(q), a.symbol_index(sym), a.state_index(t))
                     for (q, sym), targets in a.transitions.items()
                     for t in targets)
    doc = {
        "alphabet": list(a.alphabet),
        "states": list(a.states),
        "initial": sorted(a.initial, key=a.state_index),
        "accepting": sorted(a.accepting, key=a.state_index),
        "transitions": [[a.states[q], a.alphabet[s], a.states[t]]
                        for q, s, t in triples],
    }
    return json.dumps(doc, indent=2) + "\n"


def test_serialize_writes_the_json_dumps_layout():
    names = ["q", 'say "hi"', "back\\slash", "caf\u00e9", "\u65e5\u672c",
             "x,y", "{z}", "tab\t", ""]
    symbols = ["a", "\u00fc", '"', "b\\", "\U0001f600"]
    rng = random.Random(23)
    automata = [two_chain(),
                Automaton(("a",), ("p",), [], [], {}),
                Automaton(("a",), ("p", "q"), [], [], {("p", "a"): ["q"]})]
    for _ in range(300):
        n = rng.randint(1, 6)
        states = rng.sample(names, n)
        alphabet = rng.sample(symbols, rng.randint(1, 3))
        transitions = {(q, sym): rng.sample(states, rng.randint(0, min(2, n)))
                       for q in states for sym in alphabet
                       if rng.random() < 0.6}
        automata.append(Automaton(
            alphabet, states,
            rng.sample(states, rng.randint(0, min(2, n))),
            rng.sample(states, rng.randint(0, n)), transitions))
    # one cell, accepting the input 1 in a single step
    machine = Dtm(states=("go", "yes"), tape_alphabet=("1", "_"),
                  input_alphabet=("1",), blank="_", initial="go",
                  accepting="yes",
                  transitions={("go", "1"): ("yes", "1", "S"),
                               ("go", "_"): ("go", "_", "S")},
                  space_bound=1)
    automata.append(dtm_to_ponfa(machine, ("1",)))
    for a in automata:
        assert serialize_automaton(a) == dumped(a)
    assert serialize_automaton(automata[1]).count("[]") == 3


def test_parse_merges_duplicate_triples():
    text = """{
      "alphabet": ["a"],
      "states": ["p", "q"],
      "initial": ["p"],
      "accepting": ["q"],
      "transitions": [["p", "a", "q"], ["p", "a", "p"], ["p", "a", "q"]]
    }"""
    a = parse_automaton(text)
    assert a.step("p", "a") == frozenset({"p", "q"})


TRIPLE = "is not a [src, symbol, dst] triple of strings"
EMPTY_FIELDS = ('{"alphabet": ["a"], "states": ["p"], "initial": [], '
                '"accepting": [], "transitions": ')
MALFORMED = [
    ("not json", "invalid JSON at line 1: Expecting value"),
    ("[]", "top-level value must be a JSON object"),
    ('{"alphabet": ["a"], "states": ["p"], "initial": [], "accepting": []}',
     "missing field 'transitions'"),
    (EMPTY_FIELDS + '"p"}', "field 'transitions' must be a list"),
    (EMPTY_FIELDS + '[["p", "a"]]}',
     f"transition ['p', 'a'] {TRIPLE}"),
    ('{"alphabet": ["a"], "states": [1], "initial": [], "accepting": [],'
     ' "transitions": []}', "field 'states' contains non-string 1"),
    (EMPTY_FIELDS + '[[1, "a", "p"]]}', f"transition [1, 'a', 'p'] {TRIPLE}"),
    (EMPTY_FIELDS + '[["p", null, "p"]]}',
     f"transition ['p', None, 'p'] {TRIPLE}"),
    (EMPTY_FIELDS + '[["p", "a", 2.5]]}',
     f"transition ['p', 'a', 2.5] {TRIPLE}"),
    (EMPTY_FIELDS + '[["p", "a", "p", "p"]]}',
     f"transition ['p', 'a', 'p', 'p'] {TRIPLE}"),
    (EMPTY_FIELDS + '[{"p": "a"}]}', f"transition {{'p': 'a'}} {TRIPLE}"),
    (EMPTY_FIELDS + '["pap"]}', f"transition 'pap' {TRIPLE}"),
]


@pytest.mark.parametrize("text, message", [
    pytest.param(text, message, id=text) for text, message in MALFORMED])
def test_parse_rejects_malformed(text, message):
    with pytest.raises(FormatError) as caught:
        parse_automaton(text)
    assert str(caught.value) == message


def test_parse_word_tokens_and_string():
    assert parse_word(["a1", "a2"], ("a1", "a2")) == ("a1", "a2")
    assert parse_word("ab", ("a", "b")) == ("a", "b")
    with pytest.raises(FormatError):
        parse_word("a1a2", ("a1", "a2"))
    with pytest.raises(FormatError):
        parse_word(["c"], ("a", "b"))


def test_classify_dfa_and_po_dfa():
    d = Automaton(("a", "b"), ("p", "q"), ["p"], ["q"],
                  {("p", "a"): ["q"], ("p", "b"): ["p"],
                   ("q", "a"): ["q"], ("q", "b"): ["p"]})
    flags = classify(d)
    assert flags.label is AutomatonKind.DFA
    assert flags.is_complete and flags.is_deterministic
    assert not flags.is_partially_ordered

    ordered = Automaton(("a", "b"), ("p", "q"), ["p"], ["q"],
                        {("p", "a"): ["q"], ("p", "b"): ["p"],
                         ("q", "a"): ["q"], ("q", "b"): ["q"]})
    assert classify(ordered).label is AutomatonKind.PO_DFA


def test_classify_nondeterministic_classes():
    rponfa = Automaton(("a", "b"), ("p", "q", "r"), ["p"], ["r"],
                       {("p", "a"): ["q", "r"], ("p", "b"): ["p"],
                        ("q", "a"): ["r"], ("r", "b"): ["r"]})
    flags = classify(rponfa)
    assert flags.label is AutomatonKind.RPO_NFA
    assert flags.is_partially_ordered and flags.is_self_loop_deterministic
    assert not flags.is_deterministic

    # self-loop plus an exit under the same symbol breaks loop determinism
    ponfa = Automaton(("a",), ("p", "q"), ["p"], ["q"],
                      {("p", "a"): ["p", "q"], ("q", "a"): ["q"]})
    assert classify(ponfa).label is AutomatonKind.PO_NFA

    # a two-state proper cycle is not partially ordered
    nfa = Automaton(("a",), ("p", "q"), ["p", "q"], ["q"],
                    {("p", "a"): ["q"], ("q", "a"): ["p"]})
    assert classify(nfa).label is AutomatonKind.NFA


def reference_class(a):
    """The five classification fields from their definitions: cycles
    are found by the transitive closure of the moves between distinct
    states, one Warshall pass."""
    cells = {(q, sym): a.step(q, sym) for q in a.states for sym in a.alphabet}
    complete = all(cells.values())
    deterministic = len(a.initial) == 1 and all(
        len(targets) <= 1 for targets in cells.values())
    reach = {q: {t for sym in a.alphabet for t in cells[q, sym] if t != q}
             for q in a.states}
    for middle in a.states:
        for q in a.states:
            if middle in reach[q]:
                reach[q] |= reach[middle]
    ordered = not any(q in reach[q] for q in a.states)
    loop_det = all(targets == {q} for (q, _sym), targets in cells.items()
                   if q in targets)
    if deterministic:
        label = AutomatonKind.PO_DFA if ordered else AutomatonKind.DFA
    elif ordered:
        label = AutomatonKind.RPO_NFA if loop_det else AutomatonKind.PO_NFA
    else:
        label = AutomatonKind.NFA
    return AutomatonClass(label, complete, deterministic, ordered, loop_det)


def test_classify_matches_its_definitions():
    rng = random.Random(41)
    labels = Counter()
    for trial in range(500):
        n = rng.randint(1, 7)
        alphabet = ("a", "b", "c")[:rng.randint(1, 3)]
        rank = [f"s{i}" for i in range(n)]
        # two draws in five have one target per cell and mostly one
        # initial state; half the draws move only forward
        single = trial % 5 < 2
        missing = rng.choice((0.0, 0.2))
        transitions = {}
        for i, q in enumerate(rank):
            pool = rank[i:] if trial % 2 == 0 else rank
            for symbol in alphabet:
                if rng.random() >= missing:
                    width = 1 if single else rng.randint(1, 2)
                    transitions[(q, symbol)] = rng.sample(
                        pool, min(len(pool), width))
        states = rng.sample(rank, n)
        starts = rng.choice((0, 1, 1, 1, 2)) if single else rng.randint(0, 2)
        initial = rng.sample(rank, min(n, starts))
        a = Automaton(alphabet, states, initial, [], transitions)
        expected = reference_class(a)
        assert classify(a) == expected, trial
        labels[expected.label] += 1
    assert all(labels[kind] >= 20 for kind in AutomatonKind), labels


def test_two_initial_states_are_nondeterministic():
    a = Automaton(("a",), ("p", "q"), ["p", "q"], ["q"],
                  {("p", "a"): ["p"], ("q", "a"): ["q"]})
    flags = classify(a)
    assert not flags.is_deterministic
    assert flags.label is AutomatonKind.RPO_NFA


def test_complete_automaton_adds_one_sink():
    a = two_chain()
    assert complete_automaton(a) is a
    partial = Automaton(("a", "b"), ("p",), ["p"], ["p"], {("p", "a"): ["p"]})
    filled = complete_automaton(partial)
    assert len(filled.states) == 2
    assert classify(filled).is_complete
    assert accepts(filled, ("a", "a")) and not accepts(filled, ("b",))
    # an existing state named sink forces a fresh name
    clash = Automaton(("a",), ("sink",), ["sink"], [], {})
    renamed = complete_automaton(clash)
    assert "sink'" in renamed.states


def test_depth_counts_non_loop_transitions():
    chain = Automaton(("a",), ("p", "q", "r"), ["p"], ["r"],
                      {("p", "a"): ["q"], ("q", "a"): ["r"],
                       ("r", "a"): ["r"]})
    assert depth(chain) == 2
    single = Automaton(("a",), ("p",), ["p"], ["p"], {("p", "a"): ["p"]})
    assert depth(single) == 0
    cyclic = Automaton(("a",), ("p", "q"), ["p"], ["q"],
                       {("p", "a"): ["q"], ("q", "a"): ["p"]})
    with pytest.raises(ValueError):
        depth(cyclic)


def test_depth_handles_long_chains_without_recursion():
    count = 3000
    states = [f"s{i}" for i in range(count)]
    transitions = {(states[i], "a"): [states[i + 1]] for i in range(count - 1)}
    long_chain = Automaton(("a",), states, [states[0]], [states[-1]],
                           transitions)
    assert depth(long_chain) == count - 1
    # 20,000 states on one cycle, and on a chain that waits on b
    count = 20_000
    states = [f"s{i}" for i in range(count)]
    forward = {(states[i], "a"): [states[i + 1]] for i in range(count - 1)}
    cycle = Automaton(("a",), states, [states[0]], [states[-1]],
                      {**forward, (states[-1], "a"): [states[0]]})
    assert not classify(cycle).is_partially_ordered
    with pytest.raises(ValueError, match="partially ordered"):
        depth(cycle)
    assert bisimulation_quotient(cycle) is cycle
    waiting = Automaton(("a", "b"), states, [states[0]], [states[-1]],
                        {**forward, **{(q, "b"): [q] for q in states}})
    assert classify(waiting).label is AutomatonKind.PO_DFA
    assert depth(waiting) == count - 1
    assert bisimulation_quotient(waiting) is waiting


def brute_depth(a):
    """Longest simple path from an initial state, self-loops ignored, by
    walking every simple path; None when some other cycle exists."""
    longest = 0
    cyclic = False

    def walk(path):
        nonlocal longest, cyclic
        if path[0] in a.initial:
            longest = max(longest, len(path) - 1)
        for symbol in a.alphabet:
            for t in a.step(path[-1], symbol):
                if t in path[:-1]:
                    cyclic = True
                elif t != path[-1]:
                    walk(path + [t])

    for q in a.states:
        walk([q])
    return None if cyclic else longest


def test_depth_matches_brute_force():
    rng = random.Random(29)
    ordered = 0
    for trial in range(300):
        n = rng.randint(1, 6)
        alphabet = ("a", "b")[:rng.randint(1, 2)]
        rank = [f"s{i}" for i in range(n)]
        transitions = {}
        for i, q in enumerate(rank):
            # even trials move only to later states or loop, so they are
            # partially ordered; odd trials may move anywhere
            pool = rank[i:] if trial % 2 == 0 else rank
            for symbol in alphabet:
                if rng.random() < 0.7:
                    transitions[(q, symbol)] = rng.sample(
                        pool, min(len(pool), rng.randint(1, 2)))
        states = rng.sample(rank, n)
        initial = rng.sample(rank, rng.randint(0, min(n, 2)))
        a = Automaton(alphabet, states, initial, [], transitions)
        expected = brute_depth(a)
        if expected is None:
            with pytest.raises(ValueError):
                depth(a)
        else:
            assert depth(a) == expected, trial
            ordered += 1
    assert 150 <= ordered < 300


def dict_tarjan(vertices, edges):
    """Iterative Tarjan with its marks in dicts and a set, keyed by any
    hashable node: the reference for the list-based integer core."""
    index, low, on_stack, stack, components = {}, {}, set(), [], []
    counter = 0
    for root in vertices:
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            v, ei = work.pop()
            if ei == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack.add(v)
            advanced = False
            targets = edges[v]
            while ei < len(targets):
                w = targets[ei]
                ei += 1
                if w not in index:
                    work.append((v, ei))
                    work.append((w, 0))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            if low[v] == index[v]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    component.append(w)
                    if w == v:
                        break
                components.append(component)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return components


def test_tarjan_matches_the_dict_based_pass():
    rng = random.Random(47)
    cyclic = looped = repeated = 0
    for _ in range(500):
        n = rng.randint(1, 25)
        edges = []
        for v in range(n):
            out = [rng.randrange(n) for _ in range(rng.randint(0, 3))]
            if rng.random() < 0.3:
                out.append(v)
            if out and rng.random() < 0.3:
                out.append(rng.choice(out))
            rng.shuffle(out)
            edges.append(out)
        # every vertex as a root, in a shuffled order, or only some,
        # and a third of the time some roots listed twice
        roots = rng.sample(range(n), n if rng.random() < 0.5
                           else rng.randint(1, n))
        if rng.random() < 0.3:
            roots += roots[:rng.randint(1, len(roots))]
        found = _strongly_connected_components(roots, edges)
        assert found == dict_tarjan(roots, edges)
        cyclic += any(len(component) > 1 for component in found)
        looped += any(v in out for v, out in enumerate(edges))
        repeated += any(len(set(out)) < len(out) for out in edges)
    assert min(cyclic, looped, repeated) >= 100


def test_reach_walk_is_one_tarjan_component_on_reachable_tables():
    rng = random.Random(71)
    strong = split = looped = missing = repeated = 0
    for _ in range(600):
        n = rng.randint(1, 12)
        rows = [[None if rng.random() < 0.15 else rng.randrange(n)
                 for _ in range(rng.randint(1, 3))] for _ in range(n)]
        # the states reachable from 0, renumbered in the order found
        reach = [0]
        for q in reach:     # the list grows while it is read
            for t in rows[q]:
                if t is not None and t not in reach:
                    reach.append(t)
        number = {q: i for i, q in enumerate(reach)}
        table = [[None if t is None else number[t] for t in rows[q]]
                 for q in reach]
        edges = [[t for t in row if t is not None] for row in table]
        components = _strongly_connected_components(range(len(table)), edges)
        assert _all_reach_start(table) == (len(components) == 1)
        strong += len(components) == 1 < len(table)
        split += len(components) > 1
        looped += any(q in row for q, row in enumerate(table))
        missing += any(None in row for row in table)
        repeated += any(len(set(row)) < len(row) for row in edges)
    assert min(strong, split, looped, missing, repeated) >= 150


def test_ordered_states_is_none_exactly_on_a_longer_cycle():
    rng = random.Random(59)
    cyclic = 0
    for trial in range(600):
        n = rng.randint(1, 9)
        alphabet = ("a", "b", "c")[:rng.randint(1, 3)]
        rank = [f"s{i}" for i in range(n)]
        transitions = {}
        for i, q in enumerate(rank):
            # a third of the trials may move anywhere, the rest only to
            # later states or themselves; declared in a shuffled order
            pool = rank if trial % 3 == 0 else rank[i:]
            for symbol in alphabet:
                if rng.random() < 0.7:
                    transitions[(q, symbol)] = rng.sample(
                        pool, min(len(pool), rng.randint(1, 3)))
        a = Automaton(alphabet, rng.sample(rank, n), [], [], transitions)
        edges = [[a.state_index(t) for sym in alphabet
                  for t in a.step(q, sym)] for q in a.states]
        longer = any(len(component) > 1 for component in
                     _strongly_connected_components(range(n), edges))
        order = _ordered_states(a)
        assert (order is None) == longer, trial
        cyclic += longer
        if order is not None:
            assert sorted(order) == sorted(a.states)
            place = {q: i for i, q in enumerate(order)}
            assert all(place[t] < place[q]
                       for (q, _sym), targets in a.transitions.items()
                       for t in targets if t != q), trial
    assert 100 <= cyclic < 200


HASH_PROBE = """
import json, random
from ponfa.core import Automaton, _ordered_states, serialize_automaton
from ponfa.ops import bisimulation_quotient
rng = random.Random(53)
out = []
for trial in range(300):
    n = rng.randint(2, 7)
    states = [f"s{i}" for i in range(n)]
    # even trials are partially ordered, so the quotient can merge
    transitions = {(q, sym): rng.sample(pool, rng.randint(1, min(3, n - i)))
                   for i, q in enumerate(states) for sym in "ab"
                   for pool in [states[i:] if trial % 2 == 0 else states]
                   if rng.random() < 0.7}
    a = Automaton("ab", states, ["s0"], rng.sample(states, rng.randint(0, n)),
                  transitions)
    out.append([_ordered_states(a),
                serialize_automaton(bisimulation_quotient(a))])
print(json.dumps(out))
"""


def test_state_order_and_quotient_do_not_depend_on_the_hash_seed():
    # string sets iterate in an order set by the hash seed; the state
    # order, and so the quotient's block names, must not follow it
    source = os.path.dirname(os.path.dirname(ponfa.__file__))
    outputs = {subprocess.run(
        [sys.executable, "-c", HASH_PROBE], capture_output=True, text=True,
        check=True, env=dict(os.environ, PYTHONHASHSEED=seed,
                             PYTHONPATH=source)).stdout
        for seed in ("0", "1", "2", "3")}
    assert len(outputs) == 1
    (text,) = outputs
    assert len(json.loads(text)) == 300
