"""End-to-end acceptance gate, one test per numbered criterion.

Each test is self-contained: corpus generators and reference data live
in this file so a failure points at exactly one claim.  Budgeted tests
measure their own wall time and assert the limit last, after the
substance has been checked.
"""

import itertools
import math
import random
import time

from ponfa.core import (Automaton, AutomatonKind, accepts, classify,
                        complete_automaton, depth)
from ponfa.decision import Strategy, equivalent, includes, is_universal
from ponfa.dre import is_dre_definable
from ponfa.extremal import build_a, build_w
from ponfa.ops import (complement, count_language_size, determinize, is_empty,
                       minimize)
from ponfa.reductions import (CnfFormula, Dtm, SimulationStatus, cnf_to_rponfa,
                              dtm_to_ponfa, encode_run, sat_brute_force,
                              simulate)
from ponfa.subseq import max_representative_length, representative, sub_k
from ponfa.triviality import (is_k_r_trivial, is_k_r_trivial_oracle,
                              is_r_trivial)

from oracles import rk_signature, sim_k, sim_rk


# ---------------------------------------------------------------- helpers

def all_words(alphabet, max_len):
    for length in range(max_len + 1):
        yield from itertools.product(alphabet, repeat=length)


def random_nfa(rng, n_states, alphabet):
    states = [f"s{i}" for i in range(n_states)]
    transitions = {}
    for st in states:
        for sym in alphabet:
            if rng.random() < 0.85:
                transitions[(st, sym)] = rng.sample(
                    states, min(len(states), rng.randint(1, 2)))
    accepting = rng.sample(states, rng.randint(1, n_states))
    return Automaton(alphabet, states, [states[0]], accepting, transitions)


def random_rponfa(rng, n_states, alphabet):
    """Self-loop-deterministic and partially ordered, maybe incomplete."""
    states = [f"s{i}" for i in range(n_states)]
    transitions = {}
    for i, st in enumerate(states):
        ahead = states[i + 1:]
        for sym in alphabet:
            r = rng.random()
            if r < 0.3:
                transitions[(st, sym)] = [st]
            elif r < 0.85 and ahead:
                targets = {rng.choice(ahead)}
                if rng.random() < 0.4:
                    targets.add(rng.choice(ahead))
                transitions[(st, sym)] = sorted(targets)
    accepting = rng.sample(states, rng.randint(1, n_states))
    return Automaton(alphabet, states, [states[0]], accepting, transitions)


def random_complete_rponfa(rng, n_states, alphabet, p_loop, p_split):
    """Complete variant: every cell is a self-loop or a forward move."""
    states = [f"s{i}" for i in range(n_states)]
    transitions = {}
    for i, st in enumerate(states):
        ahead = states[i + 1:]
        for sym in alphabet:
            if not ahead or rng.random() < p_loop:
                transitions[(st, sym)] = [st]
            else:
                targets = {rng.choice(ahead)}
                if rng.random() < p_split:
                    targets.add(rng.choice(ahead))
                transitions[(st, sym)] = sorted(targets)
    accepting = rng.sample(states, rng.randint(1, n_states))
    return Automaton(alphabet, states, [states[0]], accepting, transitions)


def random_unary_po(rng, n_states):
    """Partially ordered over one letter; self-loops may coexist with
    forward moves on the same state, so this can fail the self-loop
    determinism test while staying partially ordered."""
    states = [f"s{i}" for i in range(n_states)]
    transitions = {}
    for i, st in enumerate(states):
        ahead = states[i + 1:]
        r = rng.random()
        if r < 0.4 or not ahead:
            transitions[(st, "a")] = [st]
        elif r < 0.9:
            targets = {rng.choice(ahead)}
            if rng.random() < 0.3:
                targets.add(rng.choice(ahead))
            if rng.random() < 0.3:
                targets.add(st)
            transitions[(st, "a")] = sorted(targets)
    accepting = rng.sample(states, rng.randint(1, n_states))
    return Automaton(("a",), states, [states[0]], accepting, transitions)


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


def second_last_b():
    # (a+b)*b(a+b): second-to-last letter is b
    return Automaton(
        ("a", "b"),
        ("s", "t", "u"),
        ["s"],
        ["u"],
        {("s", "a"): ["s"], ("s", "b"): ["s", "t"],
         ("t", "a"): ["u"], ("t", "b"): ["u"]},
    )


# one-cell machine that accepts the input 1 in a single step
ACCEPT1 = Dtm(
    states=("go", "yes"),
    tape_alphabet=("1", "_"),
    input_alphabet=("1",),
    blank="_",
    initial="go",
    accepting="yes",
    transitions={("go", "1"): ("yes", "1", "S"),
                 ("go", "_"): ("go", "_", "S")},
    space_bound=1,
)

# same shape but spinning forever
REJECT1 = Dtm(
    states=("go", "yes"),
    tape_alphabet=("1", "_"),
    input_alphabet=("1",),
    blank="_",
    initial="go",
    accepting="yes",
    transitions={("go", "1"): ("go", "1", "S"),
                 ("go", "_"): ("go", "_", "S")},
    space_bound=1,
)

# two cells: step right over the blank, come back, accept
ZIGZAG = Dtm(
    states=("go", "right", "back", "yes"),
    tape_alphabet=("1", "_"),
    input_alphabet=("1",),
    blank="_",
    initial="go",
    accepting="yes",
    transitions={("go", "1"): ("right", "1", "R"),
                 ("go", "_"): ("go", "_", "S"),
                 ("right", "1"): ("right", "1", "S"),
                 ("right", "_"): ("back", "_", "L"),
                 ("back", "1"): ("yes", "1", "S"),
                 ("back", "_"): ("back", "_", "S")},
    space_bound=2,
)


# ---------------------------------------------------------------- criteria

# the twelve published worst-case witness words, 1 <= k <= 4, 1 <= n <= 3
TABLE_WORDS = {
    (1, 1): "a1",
    (1, 2): "a1 a2",
    (1, 3): "a1 a2 a3",
    (2, 1): "a1 a1",
    (2, 2): "a1 a1 a2 a1 a2",
    (2, 3): "a1 a1 a2 a1 a2 a3 a1 a2 a3",
    (3, 1): "a1 a1 a1",
    (3, 2): "a1 a1 a1 a2 a1 a1 a2 a1 a2",
    (3, 3): "a1 a1 a1 a2 a1 a1 a2 a1 a2 a3 a1 a1 a2 a1 a2 a3 a1 a2 a3",
    (4, 1): "a1 a1 a1 a1",
    (4, 2): "a1 a1 a1 a1 a2 a1 a1 a1 a2 a1 a1 a2 a1 a2",
    (4, 3): "a1 a1 a1 a1 a2 a1 a1 a1 a2 a1 a1 a2 a1 a2 a3"
            " a1 a1 a1 a2 a1 a1 a2 a1 a2 a3 a1 a1 a2 a1 a2 a3 a1 a2 a3",
}


def test_criterion_01_table_words_and_length_formula():
    start = time.monotonic()
    for (k, n), text in TABLE_WORDS.items():
        assert build_w(k, n) == tuple(text.split()), (k, n)
    for k in range(7):
        for n in range(7):
            if k == 0 or n == 0:
                continue
            expected = math.comb(k + n, n) - 1
            assert len(build_w(k, n)) == expected, (k, n)
    assert time.monotonic() - start < 1.0


def test_criterion_02_extremal_family_shape_and_unique_rejected_word():
    start = time.monotonic()
    for k in range(1, 4):
        for n in range(1, 4):
            a = build_a(k, n)
            assert len(a.states) == n * (k + 2), (k, n)
            cls = classify(a)
            assert cls.is_partially_ordered
            assert cls.is_self_loop_deterministic
            # one letter collapses the construction to a deterministic
            # chain, which the classifier names by its sharpest label
            if n == 1:
                assert cls.label is AutomatonKind.PO_DFA
            else:
                assert cls.label is AutomatonKind.RPO_NFA
            rejected = complement(determinize(a))
            assert count_language_size(rejected) == 1
            only = is_empty(rejected)
            assert not only.holds
            assert only.witness == build_w(k, n), (k, n)
    assert time.monotonic() - start < 30.0


def test_criterion_03_diagonal_blowup_lower_bound():
    start = time.monotonic()
    for n in range(2, 7):
        small = minimize(determinize(build_a(n, n)))
        assert len(small.states) >= math.comb(2 * n, n), n
    assert time.monotonic() - start < 60.0


def _exhaustive_small_formulas():
    for n_vars in range(1, 4):
        variables = range(1, n_vars + 1)
        clauses = []
        for size in range(1, n_vars + 1):
            for chosen in itertools.combinations(variables, size):
                for signs in itertools.product((1, -1), repeat=size):
                    clauses.append(frozenset(
                        s * v for s, v in zip(signs, chosen)))
        for m in range(1, 4):
            for picked in itertools.combinations(clauses, m):
                yield CnfFormula(n_vars, picked)


def _random_formula(rng):
    n_vars = rng.randint(1, 6)
    clauses = []
    for _ in range(rng.randint(1, 8)):
        size = rng.randint(1, min(3, n_vars))
        chosen = rng.sample(range(1, n_vars + 1), size)
        clauses.append(frozenset(
            v if rng.random() < 0.5 else -v for v in chosen))
    return CnfFormula(n_vars, clauses)


def _check_formula(formula):
    verdict = is_universal(cnf_to_rponfa(formula))
    assert verdict.holds == (not sat_brute_force(formula))
    if not verdict.holds:
        witness = verdict.witness
        assert len(witness) == formula.variable_count
        assert formula.evaluate(tuple(bit == "1" for bit in witness))


def test_criterion_04_satisfiability_matches_universality():
    start = time.monotonic()
    count = 0
    for formula in _exhaustive_small_formulas():
        _check_formula(formula)
        count += 1
    assert count == 3046
    rng = random.Random(643)
    for _ in range(200):
        _check_formula(_random_formula(rng))
    assert time.monotonic() - start < 60.0


def test_criterion_05_machine_runs_and_their_automata():
    rng = random.Random(31)
    for machine, word in ((ACCEPT1, ("1",)), (ZIGZAG, ("1",))):
        assert simulate(machine, word).status is SimulationStatus.ACCEPTED
        encoding = encode_run(machine, word)
        assert encoding is not None
        built = dtm_to_ponfa(machine, word)
        verdict = is_universal(built)
        assert not verdict.holds
        assert not accepts(built, encoding)
        for _ in range(10):
            position = rng.randrange(len(encoding))
            flipped = "0" if encoding[position] == "1" else "1"
            perturbed = (encoding[:position] + (flipped,)
                         + encoding[position + 1:])
            assert accepts(built, perturbed)

    assert simulate(REJECT1, ("1",)).status is not SimulationStatus.ACCEPTED
    assert encode_run(REJECT1, ("1",)) is None
    assert is_universal(dtm_to_ponfa(REJECT1, ("1",))).holds


def test_criterion_06_congruence_suite_exhaustive():
    start = time.monotonic()
    alphabet = ("a", "b")
    words = list(all_words(alphabet, 5))
    contexts = [(), ("a",), ("b",), ("a", "b")]
    for k in range(4):
        signatures = {w: rk_signature(w, k) for w in words}
        for i, x in enumerate(words):
            for y in words[i:]:
                related = sim_rk(x, y, k)
                assert related == (signatures[x] == signatures[y]), (x, y, k)
                if not related:
                    continue
                # refinement: related words are k-subsequence equivalent
                assert sim_k(x, y, k), (x, y, k)
                if k >= 1:
                    # the relation only tightens as the bound grows
                    assert sim_rk(x, y, k - 1), (x, y, k)
                    # splitting both words at the first occurrence of a
                    # shared letter descends one level
                    for letter in set(x) & set(y):
                        xi = x.index(letter)
                        yi = y.index(letter)
                        assert sim_rk(x[xi + 1:], y[yi + 1:], k - 1), \
                            (x, y, letter, k)

        # two-sided contexts respect subsequence equivalence; group the
        # words into equivalence classes first, then wrap every related
        # pair in every sampled context
        classes = {}
        for w in words:
            classes.setdefault(sub_k(w, k), []).append(w)
        for members in classes.values():
            for x, y in itertools.combinations(members, 2):
                for u in contexts:
                    for v in contexts:
                        assert sim_k(u + x + v, u + y + v, k), (x, y, u, v, k)
    assert time.monotonic() - start < 60.0


def test_criterion_07_bounded_triviality_routes_and_depth_bound():
    # both deciders, all bounds, on arbitrary machines
    rng = random.Random(4207)
    alphabet = ("a", "b")
    for trial in range(200):
        a = random_nfa(rng, rng.randint(1, 4), alphabet)
        previous = None
        for k in range(4):
            fast = is_k_r_trivial(a, k)
            slow = is_k_r_trivial_oracle(a, k)
            assert fast.holds == slow.holds, (trial, k)
            if previous is not None and previous:
                assert fast.holds, ("monotonicity", trial, k)
            previous = fast.holds

    # every complete machine with ordered states and deterministic
    # self-loops satisfies the bound at its own depth
    rng = random.Random(1105)
    for trial in range(200):
        letters = 1 + trial % 3
        n_states = 3 if letters == 3 else 5
        alphabet = tuple(f"a{i}" for i in range(1, letters + 1))
        p_loop = rng.choice([0.3, 0.5, 0.7])
        p_split = rng.choice([0.3, 0.6])
        a = random_complete_rponfa(rng, n_states, alphabet, p_loop, p_split)
        cls = classify(a)
        assert cls.is_complete
        assert cls.is_partially_ordered
        assert cls.is_self_loop_deterministic
        assert is_k_r_trivial(a, depth(a)).holds, trial


def test_criterion_08_order_respecting_languages_are_r_trivial():
    rng = random.Random(557)
    for trial in range(200):
        letters = 1 + trial % 3
        alphabet = tuple(f"a{i}" for i in range(1, letters + 1))
        a = random_rponfa(rng, rng.randint(1, 4), alphabet)
        assert is_r_trivial(a).holds, trial
    for trial in range(200):
        b = random_unary_po(rng, rng.randint(1, 5))
        assert is_r_trivial(b).holds, trial
    assert not is_r_trivial(loop_plus()).holds


def _assert_universality_witness_shortest(a, witness):
    for word in all_words(a.alphabet, min(len(witness), 9) - 1):
        assert accepts(a, word), (witness, word)


def _assert_gap_witness_shortest(a, b, witness):
    for word in all_words(a.alphabet, min(len(witness), 9) - 1):
        assert not (accepts(a, word) and not accepts(b, word)), \
            (witness, word)


def _assert_short_representative(witness, automata):
    # rpoNFA languages are unions of prefix-d classes for d the larger
    # completed depth, so a least witness is its class's representative
    d = max(depth(complete_automaton(a)) for a in automata)
    assert representative(witness, d) == witness
    assert len(witness) <= max_representative_length(
        d, len(automata[0].alphabet))


def test_criterion_09_decision_engines_cross_validate():
    rng = random.Random(90210)
    for trial in range(300):
        kind = trial % 3
        if kind == 0:
            alphabet = ("a", "b")
            a = random_nfa(rng, rng.randint(1, 5), alphabet)
            b = random_nfa(rng, rng.randint(1, 5), alphabet)
        elif kind == 1:
            alphabet = ("a", "b")
            a = random_rponfa(rng, rng.randint(1, 5), alphabet)
            b = random_rponfa(rng, rng.randint(1, 5), alphabet)
        else:
            a = random_unary_po(rng, rng.randint(1, 5))
            b = random_unary_po(rng, rng.randint(1, 5))

        ca, cb = classify(a), classify(b)
        a_bounded = ca.is_partially_ordered and ca.is_self_loop_deterministic
        b_bounded = cb.is_partially_ordered and cb.is_self_loop_deterministic
        a_unary = len(a.alphabet) == 1 and ca.is_partially_ordered
        b_unary = len(b.alphabet) == 1 and cb.is_partially_ordered
        # on one-letter partially ordered automata the subsets stop
        # changing within |Q| letters, so the words up to the larger
        # state count decide every question exactly
        unary = max(len(a.states), len(b.states))

        generic = is_universal(a, strategy=Strategy.GENERIC)
        if not generic.holds:
            assert not accepts(a, generic.witness)
            _assert_universality_witness_shortest(a, generic.witness)
        if a_unary:
            assert generic.holds == all(
                accepts(a, word) for word in all_words(a.alphabet, unary))
        if a_bounded and not generic.holds:
            _assert_short_representative(generic.witness, [a])

        inclusion = includes(a, b, strategy=Strategy.GENERIC)
        if not inclusion.holds:
            assert accepts(a, inclusion.witness)
            assert not accepts(b, inclusion.witness)
            _assert_gap_witness_shortest(a, b, inclusion.witness)
        if a_unary and b_unary:
            assert inclusion.holds == all(
                accepts(b, word) for word in all_words(a.alphabet, unary)
                if accepts(a, word))
        if a_bounded and b_bounded and not inclusion.holds:
            _assert_short_representative(inclusion.witness, [a, b])

        both = equivalent(a, b, strategy=Strategy.GENERIC)
        reverse = includes(b, a, strategy=Strategy.GENERIC)
        assert both.holds == (inclusion.holds and reverse.holds)
        if not both.holds:
            gone, kept = (a, b) if both.direction == "first-only" else (b, a)
            assert accepts(gone, both.witness)
            assert not accepts(kept, both.witness)
        if a_unary and b_unary:
            assert both.holds == all(
                accepts(a, word) == accepts(b, word)
                for word in all_words(a.alphabet, unary))
        if a_bounded and b_bounded and not both.holds:
            _assert_short_representative(both.witness, [a, b])


def test_criterion_10_deterministic_expression_definability():
    assert is_dre_definable(second_last_b()) is False
    assert is_dre_definable(loop_plus()) is True
    for k in range(1, 4):
        for n in range(1, 4):
            assert is_dre_definable(build_a(k, n)) is True, (k, n)
    rng = random.Random(7331)
    for trial in range(200):
        letters = 1 + trial % 2
        alphabet = tuple(f"a{i}" for i in range(1, letters + 1))
        a = random_rponfa(rng, rng.randint(1, 5), alphabet)
        assert is_dre_definable(a) is True, trial
