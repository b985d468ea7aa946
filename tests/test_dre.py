"""Orbit analysis and definability by deterministic expressions."""

import logging
import random

from ponfa import core, dre, ops, triviality
from ponfa.core import Automaton, classify
from ponfa.dre import is_dre_definable
from ponfa.extremal import build_a
from ponfa.ops import determinize, minimize
from ponfa.triviality import is_r_trivial

from automata import loop_plus, second_last_b, suffix_b
from oracles import glushkov


def test_definable_without_being_order_trivial():
    a = loop_plus()
    assert is_dre_definable(a) is True
    assert is_r_trivial(a).holds is False


def test_second_last_letter_is_not_definable():
    # one orbit with no consistent symbol: nothing is cut, and the rule
    # for a strongly connected automaton decides
    assert is_dre_definable(second_last_b()) is False


def counted_orbit_languages(monkeypatch):
    """Route ``dre._orbit_language`` through a counter, and return the
    list of orbits it was called on."""
    orbits = []
    build = dre._orbit_language

    def counted(rows, orbit, *rest):
        orbits.append(orbit)
        return build(rows, orbit, *rest)

    monkeypatch.setattr(dre, "_orbit_language", counted)
    return orbits


def test_orbit_that_survives_its_cut_is_decided_by_its_language(
        monkeypatch, caplog):
    # a is consistent, both states moving to s1 on it; with a cut at the
    # accepting states, s0 -b-> s1 -c-> s0 still makes one orbit, whose
    # gates are both states.  Its orbit language, the prefixes of (bc)*,
    # is one orbit with no consistent symbol: not definable.
    orbits = counted_orbit_languages(monkeypatch)
    machine = Automaton(
        ("a", "b", "c"), ("s0", "s1"), ["s0"], ["s0", "s1"],
        {("s0", "a"): ["s1"], ("s0", "b"): ["s1"], ("s1", "a"): ["s1"],
         ("s1", "c"): ["s0"]})
    with caplog.at_level(logging.DEBUG):
        assert is_dre_definable(machine) is False
    assert orbits == [[0, 1]]
    assert caplog.records == []


def test_one_orbit_language_per_orbit(monkeypatch):
    # c(ab)*: the orbit {t, u} has the one gate t; its orbit language
    # (ab)* is read from t alone, cut at t on a, and is definable
    orbits = counted_orbit_languages(monkeypatch)
    machine = Automaton(
        ("a", "b", "c"), ("s", "t", "u"), ["s"], ["t"],
        {("s", "c"): ["t"], ("t", "a"): ["u"], ("u", "b"): ["t"]})
    assert is_dre_definable(machine) is True
    assert len(orbits) == 1


def orbit_faces(d):
    """Each orbit of a named DFA's table, one-state orbits included,
    with its gates and whether they agree, as ``dre._gates`` finds them.
    The states need not be reachable from the start, so the orbits are
    the Tarjan core's components, each in state order."""
    rows, accepting = ops._read(d)[:2]
    return [(orbit, *dre._gates(rows, accepting, orbit))
            for orbit in map(sorted, core._strongly_connected_components(
                range(len(rows)), rows))]


def test_orbit_decomposition_shape():
    d = minimize(determinize(second_last_b()))
    assert len(d.states) == 4
    faces = orbit_faces(d)
    sizes = sorted(len(orbit) for orbit, _gates, _agree in faces)
    assert sum(sizes) == 4
    assert max(sizes) >= 2
    for orbit, gates, _agree in faces:
        assert set(gates) <= set(orbit)
    # every state lies in exactly one orbit
    assert sorted(q for orbit, _gates, _agree in faces
                  for q in orbit) == list(range(4))


def random_nfa(rng):
    n_states = rng.randint(2, 6)
    alphabet = ("a", "b", "c")[:rng.randint(1, 3)]
    states = [f"s{i}" for i in range(n_states)]
    transitions = {(q, symbol): rng.sample(states, rng.randint(0, 2))
                   for q in states for symbol in alphabet}
    return Automaton(alphabet, states,
                     rng.sample(states, rng.randint(1, 2)),
                     rng.sample(states, rng.randint(0, n_states)),
                     transitions)


def test_each_recursive_call_gets_a_smaller_automaton(monkeypatch):
    # why the recursion needs no depth guard: every nested table has
    # fewer states, or, after a cut that leaves one orbit, as many
    # states and fewer moves, so (states, moves) falls in dictionary
    # order at every level
    recurse = dre._definable
    sizes = []
    checked = 0

    def watched(d):
        nonlocal checked
        rows = () if d is None else d[0]
        size = (len(rows), sum(t is not None for row in rows for t in row))
        if sizes:
            assert size < sizes[-1]
            checked += 1
        sizes.append(size)
        try:
            return recurse(d)
        finally:
            sizes.pop()

    monkeypatch.setattr(dre, "_definable", watched)
    rng = random.Random(11)
    inputs = [loop_plus(), second_last_b(), build_a(3, 3)]
    inputs += [suffix_b(m) for m in range(7)]
    inputs += [random_nfa(rng) for _ in range(500)]
    for machine in inputs:
        is_dre_definable(machine)
    assert checked >= 40


def test_every_start_of_an_orbit_gives_one_verdict():
    # the recursion reads each orbit language from the orbit's first
    # state; every other start reaches the same states, so it minimizes
    # to the same table with another start, and must decide the same
    rng = random.Random(17)
    tables = 0
    verdicts = set()
    while tables < 1000:
        d = dre._trim(*ops._minimal_table(random_nfa(rng),
                                          ops.DEFAULT_SUBSET_LIMIT))
        if d is None:
            continue
        rows, accepting = d
        faces = [(orbit, *dre._gates(rows, accepting, orbit))
                 for orbit in core._proper_orbits(rows)]
        faces = [(orbit, gates) for orbit, gates, agree in faces if agree]
        tables += bool(faces)
        for orbit, gates in faces:
            found = {dre._definable(dre._orbit_language(
                rows, orbit[i:] + orbit[:i], gates))
                for i in range(len(orbit))}
            assert len(found) == 1, (rows, accepting, orbit)
            verdicts |= found
    assert verdicts == {False, True}


def test_every_table_read_is_reachable_from_its_start(monkeypatch):
    # the precondition of core._proper_orbits, on the minimal tables
    # both deciders read and on every table the recursion receives
    recurse = dre._definable
    tables = []
    calls = 0

    def watched(d):
        nonlocal calls
        calls += 1
        if d is not None:
            tables.append(d[0])
        return recurse(d)

    monkeypatch.setattr(dre, "_definable", watched)
    rng = random.Random(13)
    inputs = [loop_plus(), second_last_b(), build_a(3, 3)]
    inputs += [suffix_b(m) for m in range(7)]
    inputs += [random_nfa(rng) for _ in range(500)]
    for machine in inputs:
        tables.append(ops._minimal_table(machine, ops.DEFAULT_SUBSET_LIMIT)[0])
        is_dre_definable(machine)
    for rows in tables:
        reach = [0]
        for q in reach:     # the list grows while it is read
            reach += {t for t in rows[q] if t is not None} - set(reach)
        assert sorted(reach) == list(range(len(rows)))
    assert calls - len(inputs) >= 40


def test_ordered_minimal_automaton_builds_no_orbit_language(monkeypatch):
    # every minimal DFA, the input's and each orbit language's, comes out
    # of one minimization of a table
    built = []
    reduce = ops._hopcroft

    def counted(table, accepting):
        built.append(table)
        return reduce(table, accepting)

    for module in (ops, dre):
        monkeypatch.setattr(module, "_hopcroft", counted)
    assert is_dre_definable(build_a(4, 4)) is True
    assert len(built) == 1


def test_ordered_languages_check_no_orbit(monkeypatch):
    # an R-trivial minimal DFA has no orbit of two or more states, so
    # it is definable before any gate or orbit language is looked at
    calls = []

    def counted(name):
        original = getattr(dre, name)

        def call(*args):
            calls.append(name)
            return original(*args)
        return call

    for name in ("_gates", "_orbit_language"):
        monkeypatch.setattr(dre, name, counted(name))
    for k in range(1, 5):
        for n in range(1, 5):
            assert is_dre_definable(build_a(k, n)) is True
    assert calls == []


def test_deciders_build_no_intermediate_dfa(monkeypatch):
    # both deciders go from the input to its minimal DFA in one step
    def refuse(*args, **kwargs):
        raise AssertionError("an intermediate DFA was built")

    for module in (ops, triviality, dre):
        for name in ("determinize", "minimize"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    for machine, verdict in ((suffix_b(6), False), (build_a(3, 3), True)):
        assert is_r_trivial(machine).holds is verdict
        assert is_dre_definable(machine) is verdict


def test_single_state_universal_language():
    tiny = Automaton(("a",), ("z",), ["z"], ["z"], {("z", "a"): ["z"]})
    assert orbit_faces(tiny) == [([0], [0], True)]
    assert is_dre_definable(tiny) is True


def test_empty_language_is_definable():
    nothing = Automaton(("a",), ("z",), ["z"], [], {("z", "a"): ["z"]})
    assert is_dre_definable(nothing) is True


def test_gate_disagreement_breaks_the_property():
    # one two-state orbit with both states as gates, only one accepting
    violation = Automaton(
        ("a", "b"),
        ("g1", "g2", "out"),
        ["g1"],
        ["g1"],
        {("g1", "a"): ["g2"], ("g2", "a"): ["g1"],
         ("g1", "b"): ["out"], ("g2", "b"): ["out"],
         ("out", "a"): ["out"], ("out", "b"): ["out"]},
    )
    faces = orbit_faces(violation)
    orbit, gates, _agree = next(face for face in faces if len(face[0]) == 2)
    assert gates == orbit
    assert not all(agree for _orbit, _gates, agree in faces)


def test_ordered_minimal_automata_have_singleton_orbits():
    for k in (1, 2, 3):
        for n in (1, 2, 3):
            machine = build_a(k, n)
            dfa = minimize(determinize(machine))
            assert classify(dfa).is_partially_ordered
            faces = orbit_faces(dfa)
            assert all(len(orbit) == 1 for orbit, _gates, _agree in faces)
            assert all(agree for _orbit, _gates, agree in faces)
            assert is_dre_definable(machine) is True


def test_random_ordered_machines_are_definable():
    rng = random.Random(23)
    checked = 0
    while checked < 60:
        n_states = rng.randint(2, 6)
        states = [f"s{i}" for i in range(n_states)]
        transitions = {}
        for i, q in enumerate(states):
            for symbol in ("a", "b"):
                choice = rng.random()
                if choice < 0.3:
                    transitions[(q, symbol)] = {q}
                elif choice < 0.85 and i + 1 < n_states:
                    rest = states[i + 1:]
                    transitions[(q, symbol)] = set(
                        rng.sample(rest, min(len(rest), rng.randint(1, 2))))
        machine = Automaton(("a", "b"), states,
                            rng.sample(states, rng.randint(1, 2)),
                            rng.sample(states, rng.randint(1, n_states)),
                            transitions)
        flags = classify(machine)
        if not (flags.is_partially_ordered and flags.is_self_loop_deterministic):
            continue
        assert is_dre_definable(machine) is True
        checked += 1


def test_definable_and_orbit_language_counts_on_random_automata(
        monkeypatch):
    # how many of 600 seeded inputs are definable, and how many orbit
    # languages their decisions build: a change to the recursion's
    # order, to the cut or to the one start per orbit moves one of the two
    orbits = counted_orbit_languages(monkeypatch)
    rng = random.Random(2026)
    definable = 0
    for _ in range(600):
        n_states = rng.randint(2, 7)
        alphabet = ("a", "b", "c")[:rng.randint(1, 3)]
        states = [f"s{i}" for i in range(n_states)]
        machine = Automaton(
            alphabet, states, rng.sample(states, rng.randint(1, 2)),
            rng.sample(states, rng.randint(0, n_states)),
            {(q, symbol): rng.sample(states, rng.randint(0, 2))
             for q in states for symbol in alphabet})
        definable += is_dre_definable(machine)
    assert (definable, len(orbits)) == (443, 81)


def test_deterministic_glushkov_expressions_are_dre_definable():
    # every deterministic expression over {a, b} of up to 8 nodes: ε,
    # the letters, union, concatenation and star.  A subexpression of a
    # deterministic expression is deterministic (its positions follow
    # one another in it as they do in the whole), so larger ones are
    # built from the deterministic ones alone.
    by_size: list[list] = [[], ["", "a", "b"]]
    shapes, languages = set(), set()
    for size in range(1, 9):
        if size > 1:
            by_size.append([("*", e) for e in by_size[size - 1]] + [
                (op, left, right) for op in "|." for i in range(1, size - 1)
                for left in by_size[i] for right in by_size[size - 1 - i]])
        deterministic = []
        for expr in by_size[size]:
            g = glushkov(expr, ("a", "b"))
            if any(len(targets) > 1 for targets in g.transitions.values()):
                continue
            deterministic.append(expr)
            shape = (frozenset(g.transitions.items()), g.accepting)
            if shape in shapes:     # such as a* and (a*)*
                continue
            shapes.add(shape)
            rows, accepting = ops._minimal_table(g, ops.DEFAULT_SUBSET_LIMIT)
            language = (tuple(map(tuple, rows)), tuple(accepting))
            if language not in languages:
                languages.add(language)
                assert is_dre_definable(g) is True, expr
        by_size[size] = deterministic
    assert len(languages) == 674
