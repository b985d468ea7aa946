"""Universality, inclusion and equivalence under both strategy names."""

import itertools
import json
import logging
import random
import time

import pytest

from ponfa import decision
from ponfa.core import (Automaton, AutomatonKind, CapacityError, Decision,
                        accepts, classify, complete_automaton, depth)
from ponfa.decision import (Strategy, _includes_generic, equivalent, includes,
                            is_universal)
from ponfa.extremal import build_a, build_w
from ponfa.ops import bisimulation_quotient, shortest_word
from ponfa.reductions import (CnfFormula, Dtm, cnf_to_rponfa, dtm_to_ponfa,
                              sat_brute_force)
from ponfa.subseq import max_representative_length, representative


def all_words(alphabet, max_len):
    for size in range(max_len + 1):
        yield from itertools.product(alphabet, repeat=size)


def brute_shortest_rejected(a, max_len):
    for word in all_words(a.alphabet, max_len):
        if not accepts(a, word):
            return word
    return None


def random_nfa(rng, n_states, alphabet):
    states = [f"s{i}" for i in range(n_states)]
    transitions = {}
    for q in states:
        for symbol in alphabet:
            if rng.random() < 0.9:
                targets = rng.sample(states, min(len(states),
                                                 rng.randint(1, 2)))
                transitions[(q, symbol)] = targets
    initial = rng.sample(states, min(len(states), rng.randint(1, 2)))
    accepting = rng.sample(states, rng.randint(0, n_states))
    return Automaton(alphabet, states, initial, accepting, transitions)


def random_rponfa(rng, n_states, alphabet):
    states = [f"s{i}" for i in range(n_states)]
    transitions = {}
    for i, q in enumerate(states):
        for symbol in alphabet:
            choice = rng.random()
            if choice < 0.35:
                transitions[(q, symbol)] = {q}
            elif choice < 0.9 and i + 1 < n_states:
                rest = states[i + 1:]
                transitions[(q, symbol)] = set(
                    rng.sample(rest, min(len(rest), rng.randint(1, 2))))
    initial = rng.sample(states, min(len(states), rng.randint(1, 2)))
    accepting = rng.sample(states, rng.randint(1, n_states))
    return Automaton(alphabet, states, initial, accepting, transitions)


def sigma_star(alphabet):
    return Automaton(alphabet, ("u",), ["u"], ["u"],
                     {("u", sym): ["u"] for sym in alphabet})


def test_universal_positive():
    assert is_universal(sigma_star(("a", "b"))).holds
    for strategy in (Strategy.GENERIC, Strategy.RPONFA_BOUNDED):
        verdict = is_universal(sigma_star(("a", "b")), strategy=strategy)
        assert verdict.holds and verdict.witness is None


def test_generic_witness_is_shortest_and_lex_least():
    rng = random.Random(5)
    for _ in range(60):
        a = random_nfa(rng, rng.randint(1, 4), ("a", "b"))
        verdict = is_universal(a, strategy=Strategy.GENERIC)
        expected = brute_shortest_rejected(a, 6)
        if verdict.holds:
            assert expected is None
        else:
            assert not accepts(a, verdict.witness)
            if expected is not None and len(expected) <= 6:
                assert verdict.witness == expected


def test_no_initial_state_rejects_the_empty_word():
    hopeless = Automaton(("a",), ("p",), [], ["p"], {("p", "a"): ["p"]})
    verdict = is_universal(hopeless)
    assert not verdict.holds and verdict.witness == ()


def test_extremal_automaton_witness():
    verdict = is_universal(build_a(2, 2))
    assert not verdict.holds
    assert verdict.witness == build_w(2, 2)


def test_generic_search_fits_in_its_node_budget():
    # the least budget at which the search answers, so a step that
    # stores one subset more or fewer shows here; build_a(k, k) has
    # more than |Q| subsets to store, so these budgets hold for the
    # search of its bisimulation quotient
    for k, least in ((3, 41), (4, 156), (5, 582)):
        a = build_a(k, k)
        verdict = is_universal(a, max_nodes=least)
        assert verdict == Decision(False, build_w(k, k))
        with pytest.raises(CapacityError) as caught:
            is_universal(a, max_nodes=least - 1)
        assert str(caught.value) == (
            f"universality search exceeded {least - 1} subsets")
    # a budget of at most |Q| = 15 bounds the search of the input itself
    with pytest.raises(CapacityError) as caught:
        is_universal(build_a(3, 3), max_nodes=15)
    assert str(caught.value) == "universality search exceeded 15 subsets"
    # Σ*'s one state is absorbing, so the pair search stores its start
    # pair alone
    assert includes(unary_chain(5, loop=False), sigma_star(("a",)),
                    max_nodes=1) == Decision(True)


def test_bounded_search_fits_in_its_node_budget():
    # the subset search answers within 41, 40, 259 and 2,171 subsets; a
    # search over (word subset, representative subset, level vector)
    # nodes ran out of the last two budgets, on witnesses of 83 and 923
    # letters
    for k, n, budget in ((3, 3, 5000), (2, 4, 10_000), (3, 6, 20_000),
                         (6, 6, 5_000)):
        verdict = is_universal(build_a(k, n), strategy="bounded",
                               max_nodes=budget)
        assert not verdict.holds
        assert verdict.witness == build_w(k, n)


def test_strategies_agree_on_rponfas():
    rng = random.Random(13)
    count = 0
    while count < 60:
        a = random_rponfa(rng, rng.randint(2, 5), ("a", "b"))
        flags = classify(a)
        if not (flags.is_partially_ordered and flags.is_self_loop_deterministic):
            continue
        bounded = is_universal(a, strategy=Strategy.RPONFA_BOUNDED)
        assert bounded == is_universal(a)
        expected = brute_shortest_rejected(a, 8)
        if bounded.holds:
            assert expected is None
        else:
            assert not accepts(a, bounded.witness)
            assert bounded.witness == expected
        count += 1


def test_generic_witness_is_a_short_representative():
    # the paper's coNP certificate: an rpoNFA's language is a union of
    # prefix-d classes for d the completed depth, so its least rejected
    # word is its class's representative, at most C(d + |Σ|, d) - 1 long
    rng = random.Random(19)
    rejecting = tight = 0
    for _ in range(2000):
        alphabet = ("a", "b", "c")[:rng.randint(1, 3)]
        a = random_rponfa(rng, rng.randint(1, 7), alphabet)
        verdict = is_universal(a)
        if verdict.holds:
            continue
        d = depth(complete_automaton(a))
        bound = max_representative_length(d, len(alphabet))
        assert representative(verdict.witness, d) == verdict.witness
        assert len(verdict.witness) <= bound
        rejecting += 1
        if len(verdict.witness) == bound:
            tight = max(tight, bound)
    # the bound is met 259 times here, once by a word of 4 letters
    assert rejecting >= 1500 and tight >= 3


def test_generic_inclusion_witness_is_a_short_representative():
    # both languages are unions of prefix-d classes for d the larger
    # completed depth, so a least word of one and not the other is its
    # class's representative
    rng = random.Random(5)
    failed = tight = 0
    for _ in range(3000):
        alphabet = ("a", "b", "c")[:rng.randint(1, 3)]
        a = random_rponfa(rng, rng.randint(1, 6), alphabet)
        b = random_rponfa(rng, rng.randint(1, 6), alphabet)
        verdict = includes(a, b)
        if verdict.holds:
            continue
        d = max(depth(complete_automaton(a)), depth(complete_automaton(b)))
        bound = max_representative_length(d, len(alphabet))
        assert representative(verdict.witness, d) == verdict.witness
        assert len(verdict.witness) <= bound
        failed += 1
        tight += len(verdict.witness) == bound
    assert (failed, tight) == (1718, 151)


def unary_reference(left, right):
    """Inclusion of one-letter partially ordered automata by membership
    of the words up to length N, the larger state count; ``left`` None
    is Σ*.  From length N on the subsets of both sides stay the same,
    so no longer word tells the languages apart."""
    if left is None:
        left = sigma_star(right.alphabet)
    for length in range(max(len(left.states), len(right.states)) + 1):
        word = right.alphabet * length
        if accepts(left, word) and not accepts(right, word):
            return Decision(False, word)
    return Decision(True)


def test_generic_decides_unary_automata_by_length():
    rng = random.Random(19)
    count = 0
    previous = []
    while count < 40:
        a = random_rponfa(rng, rng.randint(1, 5), ("a",))
        if not classify(a).is_partially_ordered:
            continue
        # the same automaton with no initial or no accepting state
        variants = [a, Automaton(a.alphabet, a.states, [], a.accepting,
                                 a.transitions),
                    Automaton(a.alphabet, a.states, a.initial, [],
                              a.transitions)]
        for b in variants:
            assert is_universal(b) == unary_reference(None, b)
            for other in previous:
                for left, right in ((b, other), (other, b)):
                    assert includes(left, right) == unary_reference(left,
                                                                    right)
        previous = variants
        count += 1


def test_unary_search_stores_at_most_q_plus_one_subsets():
    # the paper's one-letter bound: on a partially ordered automaton
    # the subsets stop changing within |Q| letters, so an answer comes
    # within |Q| + 1 stored subsets, |Q| the larger state count
    rng = random.Random(11)
    automata = [random_ponfa(rng, rng.randint(1, 12), ("a",))
                for _ in range(300)]
    for a in automata:
        assert is_universal(a, max_nodes=len(a.states) + 1) \
            == unary_reference(None, a)
    for a, b in zip(automata, automata[1:]):
        assert includes(a, b, max_nodes=max(len(a.states),
                                            len(b.states)) + 1) \
            == unary_reference(a, b)
    # a chain of L states stores all L + 1 subsets, the empty one last
    length = 50
    finite = unary_chain(length, loop=False)
    universal = unary_chain(length, loop=True)
    for decide, args in ((is_universal, (finite,)),
                         (includes, (universal, finite))):
        assert decide(*args, max_nodes=length + 1) \
            == Decision(False, ("a",) * length)
        with pytest.raises(CapacityError):
            decide(*args, max_nodes=length)


def test_strategy_accepts_plain_strings():
    a = sigma_star(("a",))
    assert is_universal(a, strategy="generic").holds
    assert is_universal(a, strategy="bounded").holds
    assert list(Strategy) == [Strategy.GENERIC, Strategy.RPONFA_BOUNDED]
    for unknown in ("zigzag", "unary"):
        with pytest.raises(ValueError):
            is_universal(a, strategy=unknown)


def test_explicit_engine_requirements():
    binary = sigma_star(("a", "b"))
    assert is_universal(binary) == Decision(True)
    cyclic = Automaton(("a",), ("p", "q"), ["p"], ["q"],
                       {("p", "a"): ["q"], ("q", "a"): ["p"]})
    # partially ordered, but p's self-loop on a also leaves for q
    branching = Automaton(("a",), ("p", "q"), ["p"], ["p", "q"],
                          {("p", "a"): ["p", "q"], ("q", "a"): ["q"]})
    assert classify(branching).label is AutomatonKind.PO_NFA
    for a in (cyclic, branching):
        with pytest.raises(ValueError):
            is_universal(a, strategy=Strategy.RPONFA_BOUNDED)
        # GENERIC decides both
        expected = brute_shortest_rejected(a, 4)
        assert is_universal(a) == (Decision(True) if expected is None
                                   else Decision(False, expected))


def test_bounded_equivalence_checks_both_sides_first():
    # a, a two-state cycle, accepts the odd lengths; b, an rpoNFA,
    # accepts only the empty word, so a ⊄ b and the forward search
    # alone would answer
    cyclic = Automaton(("a",), ("p", "q"), ["p"], ["q"],
                       {("p", "a"): ["q"], ("q", "a"): ["p"]})
    empty_word = Automaton(("a",), ("e",), ["e"], ["e"], {})
    assert equivalent(cyclic, empty_word) == Decision(
        False, ("a",), direction="first-only")
    for a, b in ((cyclic, empty_word), (empty_word, cyclic)):
        with pytest.raises(ValueError, match="right-hand automaton"):
            equivalent(a, b, strategy="bounded")


def test_long_chain_is_decided_without_warnings(caplog):
    states = [f"s{i}" for i in range(6)]
    transitions = {}
    for i in range(5):
        transitions[(states[i], "a")] = [states[i + 1]]
        transitions[(states[i], "b")] = [states[i + 1]]
    chain = Automaton(("a", "b"), states, [states[0]], states, transitions)
    with caplog.at_level(logging.WARNING, logger="ponfa.decision"):
        verdict = is_universal(chain)
    assert not verdict.holds and verdict.witness == ("a",) * 6
    assert not caplog.records
    explicit = is_universal(chain, strategy=Strategy.RPONFA_BOUNDED)
    assert explicit.holds == verdict.holds
    assert explicit.witness == verdict.witness


def test_capacity_limits_raise():
    a = build_a(2, 2)
    with pytest.raises(CapacityError):
        is_universal(a, strategy=Strategy.GENERIC, max_nodes=2)
    with pytest.raises(CapacityError):
        is_universal(a, strategy=Strategy.RPONFA_BOUNDED, max_nodes=2)


def test_includes_and_direction():
    a = build_a(2, 2)
    everything = sigma_star(("a1", "a2"))
    forward = includes(a, everything)
    assert forward.holds and forward.witness is None
    backward = includes(everything, a)
    assert not backward.holds
    assert backward.witness == build_w(2, 2)

    verdict = equivalent(a, everything)
    assert not verdict.holds
    assert verdict.direction == "second-only"
    assert verdict.witness == build_w(2, 2)
    flipped = equivalent(everything, a)
    assert flipped.direction == "first-only"
    assert equivalent(a, build_a(2, 2)).holds


def test_engines_return_the_same_witness():
    rng = random.Random(7)
    count = 0
    while count < 300:
        a = random_nfa(rng, rng.randint(3, 6), ("a", "b"))
        b = random_rponfa(rng, rng.randint(2, 5), ("a", "b"))
        flags = classify(b)
        if not (flags.is_partially_ordered and flags.is_self_loop_deterministic):
            continue
        bounded = includes(a, b, strategy=Strategy.RPONFA_BOUNDED)
        assert bounded == reference_includes(a, b), count
        count += 1


def test_default_engine_does_not_classify(monkeypatch):
    import ponfa.decision

    calls = []
    original = ponfa.decision.classify

    def counted(a):
        calls.append(a)
        return original(a)

    monkeypatch.setattr(ponfa.decision, "classify", counted)
    for a in (build_a(2, 2), wide_chain(100, 20)):
        assert not is_universal(a).holds
        assert includes(a, a).holds
        assert equivalent(a, a).holds
    assert calls == []
    # the bounded name checks each right-hand side once, then searches
    assert equivalent(build_a(2, 2), build_a(2, 2), strategy="bounded").holds
    assert len(calls) == 2


def test_includes_requires_identical_alphabets():
    with pytest.raises(ValueError):
        includes(sigma_star(("a",)), sigma_star(("a", "b")))


def test_includes_engines_agree():
    rng = random.Random(29)
    count = 0
    while count < 40:
        a = random_rponfa(rng, rng.randint(2, 4), ("a", "b"))
        b = random_rponfa(rng, rng.randint(2, 4), ("a", "b"))
        flags = classify(b)
        if not (flags.is_partially_ordered and flags.is_self_loop_deterministic):
            continue
        bounded = includes(a, b, strategy=Strategy.RPONFA_BOUNDED)
        assert bounded == includes(a, b)
        if not bounded.holds:
            assert accepts(a, bounded.witness)
            assert not accepts(b, bounded.witness)
            d = max(depth(complete_automaton(a)),
                    depth(complete_automaton(b)))
            assert representative(bounded.witness, d) == bounded.witness
        assert bounded.holds == all(
            accepts(b, word) for word in all_words(a.alphabet, 8)
            if accepts(a, word))
        count += 1


def test_unary_inclusion():
    finite = Automaton(("a",), ("p", "q"), ["p"], ["q"], {("p", "a"): ["q"]})
    infinite = Automaton(("a",), ("p",), ["p"], ["p"], {("p", "a"): ["p"]})
    assert includes(finite, infinite) == unary_reference(finite, infinite) \
        == Decision(True)
    verdict = includes(infinite, finite)
    assert verdict == unary_reference(infinite, finite) \
        == Decision(False, ())
    assert includes(sigma_star(("a", "b")), sigma_star(("a", "b"))).holds


def unary_chain(length, loop):
    """One-letter chain of ``length`` accepting states; with ``loop`` the
    last state loops, so the language is a*, otherwise a^0 .. a^(length-1)."""
    states = [f"s{i}" for i in range(length)]
    transitions = {(states[i], "a"): [states[i + 1]] for i in range(length - 1)}
    if loop:
        transitions[(states[-1], "a")] = [states[-1]]
    return Automaton(("a",), states, [states[0]], states, transitions)


def test_generic_walks_a_long_unary_chain_once():
    # the search stores one subset per side a letter at a time; a fresh
    # simulation per length is quadratic, about 20 s per call on a
    # 2-vCPU host
    length = 5000
    universal = unary_chain(length, loop=True)
    finite = unary_chain(length, loop=False)
    start = time.monotonic()
    verdicts = [is_universal(universal), includes(finite, universal),
                includes(universal, finite)]
    assert time.monotonic() - start < 5.0
    assert verdicts == [Decision(True), Decision(True),
                        Decision(False, ("a",) * length)]
    # the witness is the one length that tells the chains apart
    assert accepts(universal, ("a",) * length)
    assert not accepts(finite, ("a",) * length)
    assert accepts(finite, ("a",) * (length - 1))


def wide_chain(length, width):
    """rpoNFA chain over ``width`` letters: state i loops on half of the
    letters and advances on the next one; every other cell is empty.
    Its representative bound C(length + width, length) - 1 is far
    beyond a machine word."""
    alphabet = tuple(f"x{j}" for j in range(width))
    states = [f"c{i}" for i in range(length)]
    transitions = {}
    for i, q in enumerate(states):
        for j in range(width // 2):
            transitions[(q, alphabet[(i + j) % width])] = [q]
        if i + 1 < length:
            transitions[(q, alphabet[(i + width // 2) % width])] = [states[i + 1]]
    return Automaton(alphabet, states, [states[0]], states[::2], transitions)


def test_wide_chain_beyond_a_machine_word(tmp_path, capsys):
    from ponfa.cli import main
    from ponfa.core import serialize_automaton

    chain = wide_chain(100, 20)
    assert classify(chain).is_self_loop_deterministic
    verdict = is_universal(chain)
    # c0 loops on x0..x9 and x10 leads to the rejecting c1
    assert not verdict.holds and verdict.witness == ("x10",)
    explicit = is_universal(chain, strategy=Strategy.RPONFA_BOUNDED)
    assert not explicit.holds and explicit.witness == ("x10",)

    path = tmp_path / "chain.json"
    path.write_text(serialize_automaton(chain))
    assert main(["universal", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"] is False and doc["witness"] == ["x10"]


def sparse_nfa(rng, alphabet):
    """1-7 states; about a third of the cells are missing, and the
    initial set is empty about a sixth of the time."""
    states = [f"s{i}" for i in range(rng.randint(1, 7))]
    transitions = {
        (q, symbol): rng.sample(states, rng.randint(1, min(3, len(states))))
        for q in states for symbol in alphabet if rng.random() < 0.65}
    initial = ([] if rng.random() < 1 / 6 else
               rng.sample(states, rng.randint(1, min(2, len(states)))))
    accepting = rng.sample(states, rng.randint(0, len(states)))
    return Automaton(alphabet, states, initial, accepting, transitions)


def reference_includes(left, right):
    """Inclusion by a plain search over pairs of subsets, stepped with
    ``Automaton.move`` and without pruning; ``left`` None is Σ*."""
    if left is None:
        left = sigma_star(right.alphabet)
    word = shortest_word(
        [(left.initial, right.initial)], right.alphabet,
        lambda node: [(symbol, (left.move(node[0], symbol),
                                right.move(node[1], symbol)))
                      for symbol in right.alphabet],
        lambda node: (bool(node[0] & left.accepting)
                      and not node[1] & right.accepting))
    return Decision(True) if word is None else Decision(False, word)


def reference_equivalent(a, b):
    for first, second, direction in ((a, b, "first-only"),
                                     (b, a, "second-only")):
        verdict = reference_includes(first, second)
        if not verdict.holds:
            return Decision(False, verdict.witness, direction=direction)
    return Decision(True)


def test_generic_matches_a_plain_subset_search():
    rng = random.Random(43)
    pairs = []
    for _ in range(500):
        alphabet = ("a", "b", "c")[:rng.randint(1, 3)]
        pairs.append((sparse_nfa(rng, alphabet), sparse_nfa(rng, alphabet)))
    # c30 is accepting and reached only in the longer chain
    pairs.append((wide_chain(30, 20), wide_chain(31, 20)))
    for a, b in pairs:
        for left, right in ((a, b), (b, a)):
            assert is_universal(left) == reference_includes(None, left)
            assert includes(left, right) == reference_includes(left, right)
        assert equivalent(a, b) == reference_equivalent(a, b)


def unsatisfiable_cnf():
    """An unsatisfiable 3CNF formula over 10 variables, whose automaton
    is its own quotient and stores more than |Q| subsets."""
    rng = random.Random(33)
    return CnfFormula(10, tuple(
        frozenset(v * rng.choice((1, -1)) for v in rng.sample(range(1, 11), 3))
        for _ in range(48)))


def test_universality_searches_once(monkeypatch):
    formula = unsatisfiable_cnf()
    assert not sat_brute_force(formula)
    cnf = cnf_to_rponfa(formula)
    with pytest.raises(CapacityError):
        _includes_generic(None, cnf, len(cnf.states))
    early = cnf_to_rponfa(CnfFormula(2, (frozenset({1, 2}),
                                         frozenset({-1, 2}))))
    # answered within |Q| subsets
    assert not _includes_generic(None, early, len(early.states)).holds
    calls = []

    def counting(name):
        original = getattr(decision, name)

        def counted(*args):
            calls.append(name)
            return original(*args)
        return counted

    for name in ("shortest_word", "bisimulation_quotient"):
        monkeypatch.setattr(decision, name, counting(name))
    # the search goes on when the quotient merges nothing, and starts
    # again on the quotient only when it does
    for a, holds, searches, quotients in ((cnf, True, 1, 1),
                                          (build_a(4, 4), False, 2, 1),
                                          (early, False, 1, 0)):
        calls.clear()
        assert is_universal(a).holds == holds
        assert calls.count("shortest_word") == searches
        assert calls.count("bisimulation_quotient") == quotients


def two_phase_universal(a, max_nodes):
    """GENERIC universality as two searches: one under |Q| subsets,
    then, when that runs out, one of the quotient under ``max_nodes``."""
    if max_nodes > len(a.states):
        try:
            return _includes_generic(None, a, len(a.states))
        except CapacityError:
            a = bisimulation_quotient(a)
    return _includes_generic(None, a, max_nodes)


def outcome(search, a, max_nodes):
    try:
        return search(a, max_nodes=max_nodes)
    except CapacityError as error:
        return str(error)


def random_ponfa(rng, n_states, alphabet):
    """States in topological order: a cell holds its own source or not,
    plus up to two later states."""
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
    initial = rng.sample(states, rng.randint(0, min(2, n_states)))
    accepting = rng.sample(states, rng.randint(0, n_states))
    return Automaton(alphabet, states, initial, accepting, transitions)


def machine(space, transitions):
    """A machine over the tape symbols 1 and _ that accepts in ``yes``."""
    states = sorted({state for state, _ in transitions} | {"yes"})
    return Dtm(states, ("1", "_"), ("1",), "_", "go", "yes", transitions,
               space)


def test_one_search_matches_two_at_every_budget():
    rng = random.Random(61)
    automata = [random_ponfa(rng, rng.randint(1, 10),
                             ("a", "b", "c")[:rng.randint(1, 3)])
                for _ in range(200)]
    automata += [build_a(k, n) for k in range(1, 5) for n in range(1, 5)]
    automata += [cnf_to_rponfa(formula) for formula in (
        CnfFormula(2, (frozenset({1, 2}), frozenset({-1, 2}))),
        CnfFormula(3, (frozenset({1}), frozenset({-1, 2}),
                       frozenset({-2, 3}), frozenset({-3}))),
        unsatisfiable_cnf())]
    stay, step = ("go", "_", "S"), ("right", "1", "R")
    automata += [dtm_to_ponfa(machine(space, table), ("1",))
                 for space, table in (
                     (1, {("go", "1"): ("yes", "1", "S"), ("go", "_"): stay}),
                     (1, {("go", "1"): ("go", "1", "S"), ("go", "_"): stay}),
                     (2, {("go", "1"): step, ("go", "_"): stay,
                          ("right", "1"): ("yes", "1", "S"),
                          ("right", "_"): ("right", "_", "S")}))]
    # the quotient merges the twins r and r2 and answers within |Q| + 1
    # subsets, where the input needs more; z pads |Q| to 6
    automata.append(Automaton(
        ("a", "b"), ("p", "q", "r", "r2", "x", "z"), ["p", "r"],
        ["r", "r2", "x"],
        {("p", "a"): ["q"], ("p", "b"): ["q"], ("q", "a"): ["x"],
         ("q", "b"): ["r2"], ("r", "a"): ["r"], ("r", "b"): ["x"],
         ("r2", "a"): ["r"], ("r2", "b"): ["x"]}))
    for a in automata:
        # every budget up to one above the least that answers
        max_nodes = answered = 0
        while answered < 2:
            max_nodes += 1
            verdict = outcome(is_universal, a, max_nodes)
            assert verdict == outcome(two_phase_universal, a, max_nodes)
            answered += isinstance(verdict, Decision)
