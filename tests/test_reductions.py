"""Satisfiability and halting tied to universality questions."""

import itertools
import json
import random

import pytest

from ponfa import reductions
from ponfa.core import (Automaton, AutomatonKind, CapacityError, FormatError,
                        accepts, classify, complete_automaton, depth)
from ponfa.decision import Strategy, equivalent, is_universal
from ponfa.ops import bisimulation_quotient
from ponfa.reductions import (CnfFormula, Dtm, SimulationStatus, cnf_to_rponfa,
                              dtm_to_ponfa, encode_run, parse_dimacs,
                              parse_dtm, sat_brute_force, simulate)
from ponfa.subseq import representative

from oracles import format_checker_ponfa

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

# two cells, one right move, then accept
ACCEPT2 = Dtm(
    states=("go", "right", "yes"),
    tape_alphabet=("1", "_"),
    input_alphabet=("1",),
    blank="_",
    initial="go",
    accepting="yes",
    transitions={("go", "1"): ("right", "1", "R"),
                 ("go", "_"): ("go", "_", "S"),
                 ("right", "1"): ("yes", "1", "S"),
                 ("right", "_"): ("right", "_", "S")},
    space_bound=2,
)

# right, then back left over the blank, then accept
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

# walks off the right edge of its window
WALKER = Dtm(
    states=("go", "yes"),
    tape_alphabet=("1", "_"),
    input_alphabet=("1",),
    blank="_",
    initial="go",
    accepting="yes",
    transitions={("go", "1"): ("go", "1", "R"),
                 ("go", "_"): ("go", "_", "R")},
    space_bound=1,
)


def test_formula_validation():
    with pytest.raises(ValueError):
        CnfFormula(0, (frozenset({1}),))
    with pytest.raises(ValueError):
        CnfFormula(2, ())
    with pytest.raises(ValueError):
        CnfFormula(2, (frozenset({0}),))
    with pytest.raises(ValueError):
        CnfFormula(2, (frozenset({3}),))
    with pytest.raises(ValueError):
        CnfFormula(2, (frozenset({1, -1}),))
    with pytest.raises(ValueError):
        CnfFormula(2, (frozenset({True}),))
    # an empty clause is meaningful: it makes the formula unsatisfiable
    empty = CnfFormula(2, (frozenset(),))
    assert not sat_brute_force(empty)
    assert is_universal(cnf_to_rponfa(empty)).holds


def test_pinned_formulas():
    unsat = CnfFormula(1, (frozenset({1}), frozenset({-1})))
    assert not sat_brute_force(unsat)
    verdict = is_universal(cnf_to_rponfa(unsat))
    assert verdict.holds

    sat = CnfFormula(2, (frozenset({1, 2}), frozenset({-1, -2})))
    assert sat_brute_force(sat)
    a = cnf_to_rponfa(sat)
    verdict = is_universal(a)
    assert not verdict.holds
    assert verdict.witness in {("0", "1"), ("1", "0")}
    # the witness spells a satisfying assignment, bit j for variable j
    assert sat.evaluate(tuple(bit == "1" for bit in verdict.witness))
    for bits in itertools.product("01", repeat=2):
        expect = not sat.evaluate(tuple(b == "1" for b in bits))
        assert accepts(a, bits) == expect


def test_reduction_language_shape():
    formula = CnfFormula(2, (frozenset({1}),))
    a = cnf_to_rponfa(formula)
    assert classify(a).label is AutomatonKind.RPO_NFA
    # off-length words are always accepted
    for length in (0, 1, 3, 4):
        for bits in itertools.product("01", repeat=length):
            assert accepts(a, bits)


def random_formulas():
    rng = random.Random(11)
    for _ in range(120):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        clauses = []
        for _ in range(m):
            size = rng.randint(0 if rng.random() < 0.05 else 1, min(3, n))
            chosen = rng.sample(range(1, n + 1), size)
            clauses.append(frozenset(v if rng.random() < 0.5 else -v
                                     for v in chosen))
        yield CnfFormula(n, tuple(clauses))


def test_random_formulas_universal_iff_unsat():
    for formula in random_formulas():
        n = formula.variable_count
        a = cnf_to_rponfa(formula)
        verdict = is_universal(a)
        assert verdict.holds == (not sat_brute_force(formula))
        assert is_universal(a, strategy=Strategy.RPONFA_BOUNDED) == verdict
        if not verdict.holds:
            assert len(verdict.witness) == n
            # an rpoNFA's least rejected word is its class's representative
            d = depth(complete_automaton(a))
            assert representative(verdict.witness, d) == verdict.witness
            assert formula.evaluate(tuple(b == "1" for b in verdict.witness))


def unshared_cnf_to_rponfa(formula):
    """``cnf_to_rponfa`` with a path of fresh states for every clause,
    none shared: the reference build."""
    n = formula.variable_count
    states = ["start"]
    transitions = {}

    def add(source, symbol, target):
        transitions.setdefault((source, symbol), set()).add(target)

    for i in range(1, len(formula.clauses) + 1):
        states.extend(f"c{i}.{j}" for j in range(1, n + 1))
    chain = [f"len{j}" for j in range(1, n + 2)]
    states.extend(chain)
    for symbol in ("0", "1"):
        add("start", symbol, chain[0])
        add(chain[-1], symbol, chain[-1])
    for j in range(n):
        for symbol in ("0", "1"):
            add(chain[j], symbol, chain[j + 1])
    for i, clause in enumerate(formula.clauses, start=1):
        previous = "start"
        for j in range(1, n + 1):
            if j in clause:
                falsifying = ("0",)
            elif -j in clause:
                falsifying = ("1",)
            else:
                falsifying = ("0", "1")
            for symbol in falsifying:
                add(previous, symbol, f"c{i}.{j}")
            previous = f"c{i}.{j}"
    accepting = {"start", chain[-1]}
    accepting.update(f"c{i}.{n}" for i in range(1, len(formula.clauses) + 1))
    accepting.update(chain[j] for j in range(n) if j + 1 != n)
    return Automaton(("0", "1"), states, ["start"], accepting, transitions)


def test_shared_clause_paths_keep_the_language():
    formulas = [*random_formulas(),
                CnfFormula(3, (frozenset({1, -3}), frozenset())),
                CnfFormula(3, (frozenset({1, -2}), frozenset({2, 3}),
                               frozenset({1, -2})))]
    for formula in formulas:
        a = cnf_to_rponfa(formula)
        assert equivalent(a, unshared_cnf_to_rponfa(formula)).holds
        # no two states accept the same words
        assert bisimulation_quotient(a) is a


def test_sat_brute_force_refuses_large_inputs():
    big = CnfFormula(21, (frozenset({1}),))
    with pytest.raises(ValueError):
        sat_brute_force(big)


def test_dimacs_round_trip():
    text = "c example\np cnf 3 2\n1 -2 0\n2 3 0\n"
    formula = parse_dimacs(text)
    assert formula.variable_count == 3
    assert formula.clauses == (frozenset({1, -2}), frozenset({2, 3}))


@pytest.mark.parametrize("text, message", [
    ("", "missing 'p cnf' header"),
    ("p cnf 1 1\n", "header announces 1 clauses, found 0"),
    ("p cnf 1 1\n1 0\n2 0\n", "header announces 1 clauses, found 2"),
    ("p cnf 1 0\n", "a formula needs at least one clause"),
    ("p cnf 2 1\n3 0\n", "clause 1: variable 3 out of range"),
    ("p cnf 2 1\n1 x 0\n", "line 2: bad literal 'x'"),
    ("1 0\np cnf 1 1\n", "line 1: clause before the header"),
    ("p cnf 2 1\n1 -1 0\n", "clause 1 contains a variable and its negation"),
    ("p cnf 1 1\np cnf 1 1\n1 0\n", "line 2: duplicate header"),
    ("p cnf 1\n1 0\n", "line 1: expected 'p cnf <variables> <clauses>'"),
    ("p dnf 1 1\n1 0\n", "line 1: expected 'p cnf <variables> <clauses>'"),
    ("p cnf one 1\n1 0\n", "line 1: header counts must be integers"),
    ("p cnf 1 1\n1\n", "last clause is not terminated by 0"),
])
def test_dimacs_rejects_malformed(text, message):
    with pytest.raises(FormatError) as caught:
        parse_dimacs(text)
    assert str(caught.value) == message


def test_evaluate_checks_the_assignment_length():
    formula = CnfFormula(2, (frozenset({1}),))
    for assignment in ((True,), (True, False, True)):
        with pytest.raises(ValueError) as caught:
            formula.evaluate(assignment)
        assert str(caught.value) == (
            "assignment length must match the variable count")


GO_RULES = {("go", "1"): ("yes", "1", "S"), ("go", "_"): ("go", "_", "S")}


@pytest.mark.parametrize("changes, message", [
    (dict(states=()), "states must be distinct and nonempty"),
    (dict(states=("go", "go", "yes")), "states must be distinct and nonempty"),
    (dict(tape_alphabet=()), "tape alphabet must be distinct and nonempty"),
    (dict(tape_alphabet=("1", "_", "1")),
     "tape alphabet must be distinct and nonempty"),
    (dict(input_alphabet=("1", "2")),
     "input symbols missing from the tape alphabet: ['2']"),
    (dict(blank="b"), "the blank must be a tape symbol"),
    (dict(input_alphabet=("1", "_")), "the blank must not be an input symbol"),
    (dict(initial="start"), "unknown state 'start'"),
    (dict(accepting="halt"), "unknown state 'halt'"),
    (dict(accepting="go"), "initial and accepting states must differ"),
    (dict(space_bound=0), "space bound must be positive"),
    (dict(transitions={**GO_RULES, ("stop", "1"): ("go", "1", "S")}),
     "transition from unknown state 'stop'"),
    (dict(transitions={**GO_RULES, ("go", "2"): ("go", "1", "S")}),
     "transition on unknown symbol '2'"),
    (dict(transitions={**GO_RULES, ("go", "1"): ("yes", "1")}),
     "transition for ('go', '1') must be (state, symbol, move)"),
    (dict(transitions={**GO_RULES, ("go", "1"): ("no", "1", "S")}),
     "transition to unknown state 'no'"),
    (dict(transitions={**GO_RULES, ("go", "1"): ("yes", "2", "S")}),
     "transition writes unknown symbol '2'"),
    (dict(transitions={**GO_RULES, ("go", "1"): ("yes", "1", "X")}),
     "move must be one of ('L', 'R', 'S'), got 'X'"),
    (dict(transitions={("go", "1"): ("yes", "1", "S")}),
     "missing transition for ('go', '_')"),
])
def test_machine_validation(changes, message):
    fields = dict(states=("go", "yes"), tape_alphabet=("1", "_"),
                  input_alphabet=("1",), blank="_", initial="go",
                  accepting="yes", transitions=GO_RULES, space_bound=1)
    with pytest.raises(FormatError) as caught:
        Dtm(**{**fields, **changes})
    assert str(caught.value) == message


def test_simulation_statuses():
    run = simulate(ACCEPT1, ("1",))
    assert run.status is SimulationStatus.ACCEPTED
    assert run.steps == 1
    assert run.configurations[0].state == "go"
    assert run.configurations[-1].state == "yes"

    spin = simulate(REJECT1, ("1",))
    assert spin.status is SimulationStatus.LOOPS
    assert spin.steps == 1
    assert spin.configurations[0] == spin.configurations[1]

    with pytest.raises(ValueError):
        simulate(ACCEPT1, ("0",))
    with pytest.raises(ValueError):
        simulate(ACCEPT1, ("1", "1"))


def test_a_looping_run_stops_at_its_first_repeat():
    # a pigeonhole bound over the snapshots with cell-local state marks
    # would allow 590,490 steps to the machine that stays in place at
    # space 5; its run repeats its first snapshot after a single step
    idle = Dtm(("go", "yes"), ("0", "1", "_"), ("0", "1"), "_", "go", "yes",
               {("go", symbol): ("go", symbol, "S")
                for symbol in ("0", "1", "_")}, 5)
    # right, left, and back to the starting snapshot
    bounce = Dtm(("go", "back", "yes"), ("1", "_"), ("1",), "_", "go", "yes",
                 {("go", "1"): ("back", "1", "R"),
                  ("go", "_"): ("back", "_", "R"),
                  ("back", "1"): ("go", "1", "L"),
                  ("back", "_"): ("go", "_", "L")}, 2)
    for machine, word, steps in ((idle, ("1", "0"), 1),
                                 (bounce, ("1",), 2)):
        run = simulate(machine, word)
        assert run.status is SimulationStatus.LOOPS
        assert run.steps == steps
        assert run.configurations[-1] in run.configurations[:-1]
        assert encode_run(machine, word) is None


def test_walking_off_the_window_is_an_error():
    with pytest.raises(ValueError):
        simulate(WALKER, ("1",))


def test_encoding_lengths_are_pinned():
    word = encode_run(ACCEPT1, ("1",))
    assert word is not None and len(word) == 45
    assert encode_run(REJECT1, ("1",)) is None

    word2 = encode_run(ACCEPT2, ("1", "1"))
    assert word2 is not None and len(word2) == 110


def with_accepted_word(a, word):
    """The automaton plus one fresh path that spells the word."""
    path = [f"hole{i}" for i in range(len(word) + 1)]
    transitions = dict(a.transitions)
    for source, bit, target in zip(path, word, path[1:]):
        transitions[source, bit] = {target}
    return Automaton(a.alphabet, a.states + tuple(path),
                     a.initial | {path[0]}, a.accepting | {path[-1]},
                     transitions)


def test_accepting_machine_encoding_is_the_unique_hole():
    for machine, word in ((ACCEPT1, ("1",)), (ACCEPT2, ("1", "1")),
                          (ZIGZAG, ("1",))):
        encoding = encode_run(machine, word)
        a = dtm_to_ponfa(machine, word)
        assert classify(a).label is AutomatonKind.PO_NFA
        assert not accepts(a, encoding)
        verdict = is_universal(a)
        assert not verdict.holds
        # breadth-first witness equals the encoding: nothing shorter is
        # missing
        assert verdict.witness == encoding
        # and nothing longer either: accepting the encoding as well
        # leaves no word rejected
        assert is_universal(with_accepted_word(a, encoding)).holds


def test_rejecting_machine_gives_a_universal_automaton():
    a = dtm_to_ponfa(REJECT1, ("1",))
    assert is_universal(a).holds


def test_perturbed_encodings_are_accepted():
    word = encode_run(ACCEPT1, ("1",))
    a = dtm_to_ponfa(ACCEPT1, ("1",))
    rng = random.Random(5)
    for position in rng.sample(range(len(word)), 10):
        mutated = list(word)
        mutated[position] = "1" if mutated[position] == "0" else "0"
        assert accepts(a, tuple(mutated))
    for cut in (0, 1, 7, 9, 20, 44):
        assert accepts(a, word[:cut])
    for extension in (word + ("0",), word + ("1",), word + word[-9:],
                      word + word):
        assert accepts(a, extension)


def test_two_cell_machines():
    word2 = encode_run(ACCEPT2, ("1", "1"))
    a2 = dtm_to_ponfa(ACCEPT2, ("1", "1"))
    verdict = is_universal(a2)
    assert not verdict.holds and verdict.witness == word2

    run = simulate(ZIGZAG, ("1",))
    assert run.status is SimulationStatus.ACCEPTED and run.steps == 3
    word3 = encode_run(ZIGZAG, ("1",))
    a3 = dtm_to_ponfa(ZIGZAG, ("1",))
    verdict3 = is_universal(a3)
    assert not verdict3.holds and verdict3.witness == word3

    # the walker never accepts: its automaton rejects nothing
    assert is_universal(dtm_to_ponfa(WALKER, ("1",))).holds


def test_snapshot_swap_is_accepted():
    word2 = encode_run(ACCEPT2, ("1", "1"))
    a2 = dtm_to_ponfa(ACCEPT2, ("1", "1"))
    L = 11
    blocks = [word2[i:i + L] for i in range(0, len(word2), L)]
    assert len(blocks) == 10
    # exchange the first and second snapshots, separators included
    swapped = [blocks[0]] + blocks[4:7] + blocks[1:4] + blocks[7:]
    swapped_word = tuple(bit for block in swapped for bit in block)
    assert len(swapped_word) == len(word2) and swapped_word != word2
    assert accepts(a2, swapped_word)


def reference_block_chain(bits, table_size, code_length):
    length = 2 * code_length + 3
    if len(bits) % length != 0:
        return False
    for i in range(0, len(bits), length):
        block = bits[i:i + length]
        if block[0] != "0" or block[1] != "0" or block[2] != "1":
            return False
        data = []
        for j in range(code_length):
            data.append(block[3 + 2 * j])
            if block[4 + 2 * j] != "1":
                return False
        if int("".join(data), 2) >= table_size:
            return False
    return True


def reference_block(index, code_length):
    bits = ["0", "0", "1"]
    for bit in format(index, f"0{code_length}b"):
        bits += [bit, "1"]
    return tuple(bits)


def test_format_checker_matches_reference():
    rng = random.Random(3)
    # powers of two leave no code unassigned
    for table_size in (2, 3, 4, 7, 8, 9, 16, 17):
        code_length = max(1, (table_size - 1).bit_length())
        checker = format_checker_ponfa(table_size)
        assert classify(checker).is_partially_ordered

        def check(bits):
            expect = not reference_block_chain(bits, table_size, code_length)
            assert accepts(checker, bits) == expect, (table_size, bits)

        for length in range(0, 10):
            for bits in itertools.product("01", repeat=length):
                check(bits)
        for _ in range(500):
            length = rng.randint(10, 40)
            check(tuple(rng.choice("01") for _ in range(length)))
        # random bits almost never form a valid block, so build some
        for _ in range(100):
            bits = tuple(bit for _ in range(rng.randint(1, 4))
                         for bit in reference_block(
                             rng.randrange(table_size), code_length))
            check(bits)
            position = rng.randrange(len(bits))
            check(bits[:position] + ("1" if bits[position] == "0" else "0",)
                  + bits[position + 1:])
    with pytest.raises(ValueError):
        format_checker_ponfa(1)


def unshared_trie(sk, label, words, targets):
    """One fresh state per proper prefix of the words, none shared."""
    root = sk.fresh(label)
    steps = {}
    for word, target in zip(words, targets):
        state = root
        for bit in word[:-1]:
            if (state, bit) not in steps:
                steps[state, bit] = sk.fresh(label)
                sk.edge(state, bit, steps[state, bit])
            state = steps[state, bit]
        if target is not None:
            sk.edge(state, word[-1], target)
    return root


def unshared_transition_checks(sk, blocks, mark, all_state, successor,
                               space):
    """``reductions._add_transition_checks`` with a fresh trie for every
    target trie and every second and third block, none shared: the
    reference build."""
    entries = {}

    def entry_for(forced):
        if forced not in entries:
            length = (space - 1) * len(blocks[0])
            gap = [sk.fresh("gap") for _ in range(length)]
            for source, target in zip(gap, gap[1:]):
                sk.any_edge(source, target)
            target = unshared_trie(sk, "tgt", blocks, [
                None if value == forced else all_state
                for value in range(len(blocks))])
            if gap:
                sk.any_edge(gap[-1], target)
            entries[forced] = gap[0] if gap else target
        return entries[forced]

    symbols = range(len(blocks))
    root = unshared_trie(sk, "chk", [block[2:] for block in blocks], [
        unshared_trie(sk, "chk", blocks, [
            unshared_trie(sk, "chk", blocks, [
                entry_for(successor[first, second, third])
                for third in symbols])
            for second in symbols])
        for first in symbols])
    sk.edge(mark, "0", root)


def test_shared_tries_keep_the_language(monkeypatch):
    shared = {}
    for machine, states in ((ACCEPT1, 261), (REJECT1, 261),
                            (ACCEPT2, 510), (ZIGZAG, 641)):
        shared[machine] = dtm_to_ponfa(machine, ("1",))
        assert len(shared[machine].states) == states
        # the register leaves nothing for the quotient to merge
        assert bisimulation_quotient(shared[machine]) is shared[machine]
    monkeypatch.setattr(reductions, "_add_transition_checks",
                        unshared_transition_checks)
    for machine, states in ((ACCEPT1, 1517), (REJECT1, 1517),
                            (ACCEPT2, 3468), (ZIGZAG, 5520)):
        reference = dtm_to_ponfa(machine, ("1",))
        assert len(reference.states) == states
        assert equivalent(shared[machine], reference).holds


def test_register_makes_each_state_once():
    sk = reductions._Sketch(("0", "1", "2"))
    end = sk.state("end", accepting=True)
    other = sk.state("other")
    node = sk.node("n", False, [("0", end)])
    assert sk.node("m", False, [("0", end)]) == node
    # acceptance, each letter and each letter's targets tell states apart
    assert len({node, sk.node("n", True, [("0", end)]),
                sk.node("n", False, [("1", end)]),
                sk.node("n", False, [("0", end), ("1", end)]),
                sk.node("n", False, [("2", end)]),
                sk.node("n", False, [("0", end), ("0", other)])}) == 6
    assert sk.states == ["end", "other", "n0", "n1", "n2", "n3", "n4", "n5"]
    a = sk.build()
    assert a.alphabet == ("0", "1", "2")
    assert a.transitions["n4", "2"] == {end}
    assert a.transitions["n5", "0"] == {end, other}


@pytest.mark.parametrize("build", [
    lambda: dtm_to_ponfa(ACCEPT1, ("1",)),
    # the length chain alone has 61 states, the clause paths 61 more
    lambda: cnf_to_rponfa(CnfFormula(60, (frozenset({1}), frozenset({-1})))),
    # 2n + 2 = 62 states fit, but clause k adds k states of its own
    lambda: cnf_to_rponfa(CnfFormula(30, tuple(
        frozenset({k}) for k in range(1, 31)))),
], ids=["dtm", "cnf", "cnf-clauses"])
def test_state_budget_raises_capacity_error(monkeypatch, build):
    monkeypatch.setattr(reductions, "DEFAULT_STATE_LIMIT", 100)
    with pytest.raises(CapacityError,
                       match="^construction exceeded 100 states$"):
        build()


def test_oversized_formula_is_refused_before_building(monkeypatch):
    monkeypatch.setattr(reductions, "DEFAULT_STATE_LIMIT", 100)
    # a formula of one one-literal clause has exactly 2n + 2 states
    fits = CnfFormula(49, (frozenset({1}),))
    assert len(cnf_to_rponfa(fits).states) == 100

    def unbuilt(alphabet):
        raise AssertionError("the construction started")

    monkeypatch.setattr(reductions, "_Sketch", unbuilt)
    with pytest.raises(AssertionError):
        cnf_to_rponfa(fits)
    with pytest.raises(CapacityError,
                       match="^construction exceeded 100 states$"):
        cnf_to_rponfa(CnfFormula(50, (frozenset({1}),)))


def test_parse_dtm_round_trip():
    payload = {
        "states": ["go", "right", "yes"],
        "tape_alphabet": ["1", "_"],
        "input_alphabet": ["1"],
        "blank": "_",
        "initial": "go",
        "accepting": "yes",
        "space_bound": 2,
        "transitions": [["go", "1", "right", "1", "R"],
                        ["go", "_", "go", "_", "S"],
                        ["right", "1", "yes", "1", "S"],
                        ["right", "_", "right", "_", "S"]],
    }
    machine = parse_dtm(json.dumps(payload))
    assert encode_run(machine, ("1", "1")) == encode_run(ACCEPT2, ("1", "1"))


DTM_FIELDS = {
    "states": ["go", "yes"],
    "tape_alphabet": ["1", "_"],
    "input_alphabet": ["1"],
    "blank": "_",
    "initial": "go",
    "accepting": "yes",
    "space_bound": 1,
    "transitions": [["go", "1", "yes", "1", "S"],
                    ["go", "_", "go", "_", "S"]],
}


def dtm_json(drop=None, **changes):
    """ACCEPT1 as JSON, without the field ``drop``, with ``changes``."""
    return json.dumps({field: value for field, value in
                       {**DTM_FIELDS, **changes}.items() if field != drop})


@pytest.mark.parametrize("text, message", [
    ("not json", "invalid JSON: Expecting value: line 1 column 1 (char 0)"),
    ("[]", "machine description must be a JSON object"),
    (dtm_json(drop="states"), "missing fields: states"),
    (dtm_json(states="go"), "field 'states' must be a list"),
    (dtm_json(blank=1), "field 'blank' must be a string"),
    (dtm_json(space_bound=True), "field 'space_bound' must be an integer"),
    (dtm_json(transitions=[*DTM_FIELDS["transitions"],
                           ["go", "1", "right", "1", "R"]]),
     "transition 2: duplicate rule for ('go', '1')"),
    (dtm_json(transitions=[*DTM_FIELDS["transitions"], ["go"]]),
     "transition 2: expected [state, symbol, state, symbol, move]"),
])
def test_parse_dtm_rejects_malformed(text, message):
    with pytest.raises(FormatError) as caught:
        parse_dtm(text)
    assert str(caught.value) == message
