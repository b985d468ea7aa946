"""Order-triviality, the counted ladder, and the union form."""

import itertools
import random

import pytest

from ponfa import triviality
from ponfa.core import Automaton, CapacityError, accepts, classify, depth
from ponfa.decision import equivalent
from ponfa.extremal import build_a, build_w
from ponfa.ops import (DEFAULT_SUBSET_LIMIT, _subset_table, determinize,
                       minimize)
from ponfa.triviality import (RExpression, TrivialityVerdict, is_k_r_trivial,
                              is_k_r_trivial_oracle, is_r_trivial,
                              r_expression_to_automaton,
                              rponfa_to_r_expressions)

from oracles import is_minimal_representative, sim_rk


def loop_plus():
    # words ending in a after stripping trailing b-blocks: b*a(b*a)*
    return Automaton(
        ("a", "b"),
        ("p", "q"),
        ["p"],
        ["q"],
        {("p", "b"): ["p"], ("p", "a"): ["q"],
         ("q", "b"): ["p"], ("q", "a"): ["q"]},
    )


def random_rponfa(rng, n_states, alphabet):
    states = [f"s{i}" for i in range(n_states)]
    transitions = {}
    for i, q in enumerate(states):
        for symbol in alphabet:
            choice = rng.random()
            if choice < 0.3:
                transitions[(q, symbol)] = {q}
            elif choice < 0.85 and i + 1 < n_states:
                rest = states[i + 1:]
                transitions[(q, symbol)] = set(
                    rng.sample(rest, min(len(rest), rng.randint(1, 2))))
    initial = rng.sample(states, min(len(states), rng.randint(1, 2)))
    accepting = rng.sample(states, rng.randint(1, n_states))
    return Automaton(alphabet, states, initial, accepting, transitions)


def random_nfa(rng, n_states, alphabet):
    states = [f"s{i}" for i in range(n_states)]
    transitions = {}
    for q in states:
        for symbol in alphabet:
            if rng.random() < 0.8:
                transitions[(q, symbol)] = rng.sample(
                    states, min(len(states), rng.randint(1, 2)))
    initial = rng.sample(states, min(len(states), rng.randint(1, 2)))
    accepting = rng.sample(states, rng.randint(0, n_states))
    return Automaton(alphabet, states, initial, accepting, transitions)


def run_dfa(d, start, word):
    """States visited by a complete DFA reading ``word`` from ``start``."""
    path = [start]
    for symbol in word:
        (target,) = d.step(path[-1], symbol)
        path.append(target)
    return path


def least_word(alphabet, max_len, wanted):
    return next((word for size in range(max_len + 1)
                 for word in itertools.product(alphabet, repeat=size)
                 if wanted(word)), None)


def test_partially_ordered_languages_qualify():
    a = build_a(2, 2)
    assert is_r_trivial(a).holds
    single = Automaton(("a",), ("p",), ["p"], ["p"], {("p", "a"): ["p"]})
    assert is_r_trivial(single).holds


def test_cycle_witness_on_failure():
    verdict = is_r_trivial(loop_plus())
    assert not verdict.holds
    assert verdict.split_class is None
    shorter, longer = verdict.cycle_words
    assert len(longer) > len(shorter)
    # both reach the same minimal state: equal acceptance under any tail
    a = loop_plus()
    for tail in itertools.product(("a", "b"), repeat=3):
        assert accepts(a, shorter + tail) == accepts(a, longer + tail)


def test_cycle_words_are_length_lex_least():
    rng = random.Random(83)
    checked = 0
    while checked < 40:
        a = random_nfa(rng, rng.randint(2, 4), ("a", "b"))
        verdict = is_r_trivial(a)
        if verdict.holds:
            continue
        access, longer = verdict.cycle_words
        assert longer[:len(access)] == access
        loop = longer[len(access):]
        minimal = minimize(determinize(a))
        (start,) = minimal.initial
        anchor = run_dfa(minimal, start, access)[-1]
        assert least_word(a.alphabet, len(access),
                          lambda w: run_dfa(minimal, start, w)[-1] == anchor
                          ) == access

        def returns_after_leaving(word):
            path = run_dfa(minimal, anchor, word)
            return path[-1] == anchor and any(q != anchor for q in path[1:-1])

        assert least_word(a.alphabet, len(loop), returns_after_leaving) == loop
        checked += 1


def test_random_rponfas_are_r_trivial():
    rng = random.Random(31)
    count = 0
    while count < 60:
        a = random_rponfa(rng, rng.randint(2, 5), ("a", "b"))
        flags = classify(a)
        if not (flags.is_partially_ordered and flags.is_self_loop_deterministic):
            continue
        assert is_r_trivial(a).holds
        count += 1


def test_counted_ladder_on_the_extremal_automaton():
    a = build_a(2, 2)
    w = build_w(2, 2)
    for k in (0, 1, 2):
        verdict = is_k_r_trivial(a, k)
        assert not verdict.holds and verdict.k_used == k
        representative, accepted, rejected = verdict.split_class
        assert accepts(a, accepted)
        assert not accepts(a, rejected)
        assert rejected == w
    verdict = is_k_r_trivial(a, 3)
    assert verdict.holds and verdict.k_used == 3
    # monotone: anything past the threshold also succeeds
    assert is_k_r_trivial(a, 4).k_used == 3


def test_counted_ladder_matches_depth_bound():
    # a self-loop-deterministic ordered automaton of depth d is
    # always a union of classes at bound d + 1
    rng = random.Random(47)
    count = 0
    while count < 40:
        a = random_rponfa(rng, rng.randint(2, 5), ("a", "b"))
        flags = classify(a)
        if not (flags.is_partially_ordered and flags.is_self_loop_deterministic):
            continue
        bound = depth(a) + 1
        assert is_k_r_trivial(a, bound).holds
        count += 1


def test_both_routes_agree():
    rng = random.Random(53)
    machines = [build_a(1, 2), loop_plus()]
    while len(machines) < 14:
        machines.append(random_rponfa(rng, rng.randint(2, 4), ("a", "b")))
    for a in machines:
        for k in (0, 1, 2, 3):
            fast = is_k_r_trivial(a, k)
            slow = is_k_r_trivial_oracle(a, k)
            assert fast.holds == slow.holds, (a.transitions, k)
            if not fast.holds:
                for verdict in (fast, slow):
                    representative, good, bad = verdict.split_class
                    assert accepts(a, good) and not accepts(a, bad)
                    assert is_minimal_representative(representative, k)
                    assert sim_rk(representative, good, k)
                    assert sim_rk(good, bad, k)


def test_counted_ladder_at_large_bounds():
    # the split word (a b)^k a has length 2k + 1, and every bound up to k
    # runs one class search
    expected = is_k_r_trivial_oracle(loop_plus(), 4)
    assert is_k_r_trivial(loop_plus(), 4) == expected
    for k in (4, 10, 20):
        ab = ("a", "b") * k
        assert is_k_r_trivial(loop_plus(), k) == TrivialityVerdict(
            False, k_used=k, split_class=(ab, ab + ("a",), ab))


def test_budgets_bound_the_subset_table_and_the_class_search():
    a = build_a(2, 2)
    count = len(_subset_table(a, DEFAULT_SUBSET_LIMIT)[0])
    assert count == 16
    assert is_r_trivial(a, max_subsets=count) == is_r_trivial(a)
    message = f"^subset construction exceeded {count - 1} states$"
    with pytest.raises(CapacityError, match=message):
        is_r_trivial(a, max_subsets=count - 1)
    # the searches at bounds 0..3 store at most 48 nodes each
    assert is_k_r_trivial(a, 5, max_subsets=48) == is_k_r_trivial(a, 5)
    with pytest.raises(CapacityError, match="^search exceeded 47 nodes$"):
        is_k_r_trivial(a, 5, max_subsets=47)


def test_k_must_be_nonnegative():
    a = build_a(1, 1)
    with pytest.raises(ValueError):
        is_k_r_trivial(a, -1)
    with pytest.raises(ValueError):
        is_k_r_trivial_oracle(a, -1)


def test_union_form_round_trip():
    rng = random.Random(61)
    machines = [build_a(1, 2), build_a(2, 2)]
    while len(machines) < 12:
        a = random_rponfa(rng, rng.randint(2, 5), ("a", "b"))
        flags = classify(a)
        if flags.is_partially_ordered and flags.is_self_loop_deterministic:
            machines.append(a)
    for a in machines:
        branches = rponfa_to_r_expressions(a)
        rebuilt = [r_expression_to_automaton(e, a.alphabet) for e in branches]
        for machine in rebuilt:
            flags = classify(machine)
            assert flags.is_deterministic and flags.is_partially_ordered
        for size in range(6):
            for word in itertools.product(a.alphabet, repeat=size):
                expect = accepts(a, word)
                got = any(accepts(machine, word) for machine in rebuilt)
                assert got == expect, (a.transitions, word)


def test_union_form_of_a_long_chain():
    states = [f"c{i}" for i in range(3000)]
    transitions = {(q, "a"): [t] for q, t in zip(states, states[1:])}
    chain = Automaton(("a",), states, [states[0]], [states[-1]], transitions)
    (branch,) = rponfa_to_r_expressions(chain)
    assert branch.letters == ("a",) * 2999
    assert all(loop == frozenset() for loop in branch.loops)


def test_union_form_path_budget(monkeypatch):
    # one letter to k accepting states makes k accepting paths, all one
    # branch; the budget admits exactly DEFAULT_PATH_LIMIT of them
    monkeypatch.setattr(triviality, "DEFAULT_PATH_LIMIT", 3)

    def fan(k):
        ends = [f"e{i}" for i in range(k)]
        return Automaton(("a",), ["s", *ends], ["s"], ends,
                         {("s", "a"): ends})

    assert len(rponfa_to_r_expressions(fan(3))) == 1
    with pytest.raises(CapacityError):
        rponfa_to_r_expressions(fan(4))


def test_union_form_rejects_unordered_input():
    with pytest.raises(ValueError):
        rponfa_to_r_expressions(loop_plus())


def test_expression_validation():
    with pytest.raises(ValueError):
        RExpression((frozenset({"a"}),), ("a",))
    with pytest.raises(ValueError):
        RExpression((frozenset({"a"}), frozenset()), ("a",))
    good = RExpression((frozenset({"b"}), frozenset({"a", "b"})), ("a",))
    machine = r_expression_to_automaton(good)
    assert accepts(machine, ("b", "a", "b"))
    assert not accepts(machine, ("b",))


def test_branch_languages_stay_inside():
    a = build_a(2, 2)
    for e in rponfa_to_r_expressions(a):
        branch = r_expression_to_automaton(e, a.alphabet)
        verdict = equivalent(branch, a)
        if not verdict.holds:
            assert verdict.direction == "second-only"
