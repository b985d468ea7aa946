"""The three workload mixes.

A workload is a list of items; an item is a list of queries run back
to back (``reduce-cnf`` before the ``universal`` call that reads its
output).  A query is one public library call or one in-process
``ponfa.cli.main(argv)`` call.  Calls look the function up on its
module at call time, so the traced run's wrappers see them.

Each query carries its reference check, which runs after the timed
loop.  Why each mix stresses the layers it does is recorded in
``BENCHMARK.json``.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import check
import gen
from check import Wrong, require


@dataclass(eq=False)
class Query:
    label: str
    call: Callable[[], object]
    check: Callable[[object], None]
    cli: bool = False
    # untimed follow-up on a successful output, such as saving it
    then: Optional[Callable[[object], None]] = None

    def failed(self, output) -> bool:
        return self.cli and output[0] != 0


def cli_call(P, argv: list[str]):
    """Run the CLI in-process; returns ``(exit code, stdout)``."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = P.cli.main(argv)
        except SystemExit as stop:
            code = stop.code if isinstance(stop.code, int) else 1
    return code, out.getvalue()


def to_automaton(P, aut: dict):
    cells: dict = {}
    for q, sym, t in aut["transitions"]:
        cells.setdefault((q, sym), []).append(t)
    return P.Automaton(aut["alphabet"], aut["states"], aut["initial"],
                       aut["accepting"], cells)


class _Files:
    def __init__(self, workdir: Path):
        self.workdir = workdir

    def write(self, name: str, text: str) -> str:
        path = self.workdir / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def saver(self, name: str) -> Callable[[object], None]:
        path = self.workdir / name

        def save(output) -> None:
            path.write_text(output[1], encoding="utf-8")
        return save

    def load(self, name: str) -> dict:
        return json.loads((self.workdir / name).read_text(encoding="utf-8"))


def _cli(P, label, argv, check_fn, then=None) -> Query:
    return Query(label, lambda: cli_call(P, argv), check_fn, cli=True,
                 then=then)


def _check_automaton_output(output) -> None:
    try:
        doc = json.loads(output[1])
    except json.JSONDecodeError:
        raise Wrong("reduction printed no automaton") from None
    require(isinstance(doc, dict) and "transitions" in doc,
            "reduction printed no automaton")


# ---------------------------------------------------------------- subset-search

# 3CNF clause-to-variable ratio where about half of the formulas with
# 10 to 14 variables are unsatisfiable
CNF_RATIO = 4.8
NFA_SUBSET_CAP = 1500


def subset_search(P, rng, workdir: Path, tiny: bool) -> list[list[Query]]:
    files = _Files(workdir)
    items: list[list[Query]] = []

    # each size has as many satisfiable formulas (early exit) as
    # unsatisfiable ones (exhaustive search), so seeds differ little
    variables = [6, 7] if tiny else [n for n in range(10, 15) for _ in range(2)]
    for i, (n_vars, sat) in enumerate((n, sat) for n in variables
                                      for sat in (True, False)):
        formula = gen.random_3cnf_with(rng, n_vars, round(CNF_RATIO * n_vars),
                                       sat)
        cnf = files.write(f"f{i}.cnf", gen.dimacs(formula))
        reduced = f"f{i}.json"

        def check_cnf(output, formula=formula, reduced=reduced):
            doc = check.payload(output)
            n_vars, clauses = formula
            if doc["result"]:
                require(not P.sat_brute_force(P.CnfFormula(n_vars, clauses)),
                        "universal, but the formula is satisfiable")
            else:
                word = doc.get("witness")
                check.witness_separates(word, [], [files.load(reduced)])
                require(len(word) == n_vars and gen.satisfies(formula, word),
                        "witness is no satisfying assignment")

        items.append([
            _cli(P, "reduce-cnf", ["reduce-cnf", cnf], _check_automaton_output,
                 then=files.saver(reduced)),
            _cli(P, "universal cnf", ["universal", str(workdir / reduced)],
                 check_cnf)])

    machines = [(2, 1)] if tiny else [(2, 1), (2, 2), (3, 2), (3, 3)]
    for i, (n_states, space, accepts) in enumerate(
            (n, space, accepts) for n, space in machines
            for accepts in (True, False)):
        machine, word = gen.random_dtm(rng, n_states, space, accepts)
        spec = files.write(f"m{i}.dtm.json", json.dumps(machine))
        reduced = f"m{i}.json"

        def check_dtm(output, machine=machine, word=tuple(word),
                      reduced=reduced):
            doc = check.payload(output)
            dtm = P.parse_dtm(json.dumps(machine))
            run = P.simulate(dtm, word)
            if run.status is P.SimulationStatus.ACCEPTED:
                require(not doc["result"], "universal, but the machine accepts")
                require(tuple(doc.get("witness") or ()) == P.encode_run(dtm, word),
                        "witness is not the encoded run")
                check.witness_separates(doc["witness"], [], [files.load(reduced)])
            else:
                require(doc["result"], "not universal, but the machine rejects")

        items.append([
            _cli(P, "reduce-tm", ["reduce-tm", spec, "".join(word)],
                 _check_automaton_output, then=files.saver(reduced)),
            _cli(P, "universal dtm", ["universal", str(workdir / reduced)],
                 check_dtm)])

    top = 3 if tiny else 6
    for k in range(1, top + 1):
        for n in range(1, top + 1):
            aut = P.build_a(k, n)
            path = files.write(f"a{k}_{n}.json", P.serialize_automaton(aut))

            def check_extremal(output, k=k, n=n, aut=check.wire(aut)):
                doc = check.payload(output)
                require(not doc["result"], "extremal automaton called universal")
                require(tuple(doc.get("witness") or ()) == P.build_w(k, n),
                        "witness differs from build_w")
                check.witness_separates(doc["witness"], [], [aut])

            items.append([_cli(P, "universal extremal", ["universal", path],
                               check_extremal)])

    def pair_reference(a, b):
        return lambda: P.is_empty(P.product_intersection(
            to_automaton(P, a),
            P.complement(P.determinize(to_automaton(P, b))))).holds

    def add_include(i, a, b):
        fa, fb = files.write(f"p{i}a.json", json.dumps(a)), \
            files.write(f"p{i}b.json", json.dumps(b))

        def check_include(output):
            doc = check.payload(output)
            check.inclusion(doc["result"], doc.get("witness"), a, b,
                            pair_reference(a, b))
        items.append([_cli(P, "include", ["include", fa, fb], check_include)])
        return fa, fb

    def add_equal(fa, fb, a, b):
        def check_equal(output):
            doc = check.payload(output)
            check.equality(doc["result"], doc.get("witness"),
                           doc.get("direction"), a, b,
                           lambda: pair_reference(a, b)()
                           and pair_reference(b, a)())
        items.append([_cli(P, "equal", ["equal", fa, fb], check_equal)])

    # sizes follow a fixed schedule; only the structure is random.  The
    # pairs built to be included or equal are sized so that their
    # exhaustive pair search and the determinizing reference stay small.
    # Random pairs are the cheapest queries and the most numerous, so
    # query_p50_ms falls inside their cluster.  A pair is redrawn until
    # each side accepts a word of length at most 4 that the other
    # rejects, as nearly every random pair does, so both searches end
    # within a few levels; the rare pair that agrees on all short words
    # can search much of the product, for over a second.  Their cost
    # is then mostly parsing, which follows the number of transitions:
    # a pair has 60 states in all over 2 letters or 40 over 3, which
    # keeps the cluster narrow.
    splits = [(20, 40), (30, 30), (40, 20), (10, 30), (20, 20), (30, 10)]
    for i in range(2 if tiny else 60):
        a_size, b_size = splits[i % len(splits)]
        alphabet = gen.letters(2 if a_size + b_size == 60 else 3)
        while True:
            a = gen.random_nfa(rng, a_size, alphabet, p_split=0.05)
            b = gen.random_nfa(rng, b_size, alphabet, p_split=0.05)
            if gen.separated(a, b, 4) and gen.separated(b, a, 4):
                break
        add_equal(*add_include(f"r{i}", a, b), a, b)
    small = [10, 15] if tiny else [10, 15, 20, 25]
    for i in range(2 if tiny else 8):
        alphabet = gen.letters(2 + i % 2)
        b = gen.sized_nfa(rng, small[i % len(small)], alphabet, NFA_SUBSET_CAP)
        add_include(f"w{i}", gen.weakened(rng, b), b)
    for i in range(1 if tiny else 6):
        alphabet = gen.letters(2 + i % 2)
        b = gen.sized_nfa(rng, small[i % len(small)], alphabet, NFA_SUBSET_CAP)
        copy = gen.renamed(rng, b)
        add_equal(files.write(f"e{i}a.json", json.dumps(b)),
                  files.write(f"e{i}b.json", json.dumps(copy)), b, copy)

    # wide chains: AUTO raises CapacityError on these today, and they
    # stay in the mix so the failure shows in failed_frac
    for i, length in enumerate([100] if tiny else [100, 130, 160, 200]):
        chain = gen.wide_chain(rng, length, 20)
        path = files.write(f"c{i}.json", json.dumps(chain))

        def check_chain(output, chain=chain):
            doc = check.payload(output)
            require(not doc["result"], "a chain with missing moves is not universal")
            check.witness_separates(doc.get("witness"), [], [chain])

        items.append([_cli(P, "universal chain", ["universal", path],
                           check_chain)])
    return items


# ------------------------------------------------------------------- class-reps

def class_reps(P, rng, workdir: Path, tiny: bool) -> list[list[Query]]:
    items: list[list[Query]] = []
    dec, triv = P.decision, P.triviality

    for k in range(1, 3 if tiny else 5):
        aut = P.build_a(k, 2)

        def check_universal(d, k=k, aut=check.wire(aut)):
            require(not d.holds, "extremal automaton called universal")
            require(d.witness == P.build_w(k, 2), "witness differs from build_w")
            check.witness_separates(d.witness, [], [aut])

        items.append([Query("is_universal extremal",
                            lambda aut=aut: dec.is_universal(aut, strategy="bounded"),
                            check_universal)])

    # k stops at 2: equivalent(build_a(3, 2)) takes 2.6 s, and one such
    # query would set half the time of a pass
    for k in range(1, 3):
        first, second = P.build_a(k, 2), P.build_a(k, 2)

        def check_self_equal(d):
            require(d.holds, "an automaton differs from an identical copy")

        items.append([Query("equivalent extremal",
                            lambda a=first, b=second: dec.equivalent(
                                a, b, strategy="bounded"),
                            check_self_equal)])

    def add_includes(a, b):
        A, B = to_automaton(P, a), to_automaton(P, b)

        def check_includes(d):
            check.inclusion(d.holds, d.witness, a, b, lambda: dec.includes(
                A, B, strategy="generic").holds)

        items.append([Query("includes rponfa",
                            lambda: dec.includes(A, B, strategy="bounded"),
                            check_includes)])

    def rponfa_at(letters: int, n_states: int, depth: int,
                  complete: bool = False, accepting_at_most: float = 1.0) -> dict:
        """Random rpoNFA redrawn until its completed depth is ``depth``
        (at most ``depth`` when ``complete``) and it accepts at most the
        given share of the words of length 3 or less."""
        while True:
            aut = gen.random_rponfa(rng, n_states, gen.letters(letters),
                                    complete)
            found = gen.completed_depth(aut)
            if (found == depth or (complete and found < depth)) and \
                    gen.accepted_fraction(aut, 3) <= accepting_at_most:
                return aut

    # A pair built as (weakened b, b) is included, so the engine scans
    # every class.  b has completed depth 3 over 2 letters and 2 over 3
    # letters; one level deeper multiplies the classes to scan (462,610
    # at depth 3 over 3 letters).  Each family has a fixed shape, so its
    # queries cost about the same: the 2-letter scans, 40-50 ms each, are
    # half of the mix and hold query_p50_ms.  Over 3 letters b accepts
    # few short words, so nearly every class is rejected by b and goes
    # through the class-DFA product; these 0.3-0.45 s scans are the top
    # seventh of the mix and hold query_p90_ms.  Random pairs over 2
    # letters end at their first separating class.
    for _ in range(2 if tiny else 50):
        b = rponfa_at(2, 3, 3)
        add_includes(gen.weakened(rng, b), b)
    for i in range(1 if tiny else 4):
        b = rponfa_at(2, 3 + i % 3, 3)
        add_includes(gen.random_rponfa(rng, len(b["states"]), b["alphabet"]), b)
    for _ in range(1 if tiny else 15):
        b = rponfa_at(3, 3, 2, accepting_at_most=0.05)
        add_includes(gen.weakened(rng, b), b)

    def add_k_r_trivial(aut: dict, k: int, known_true: bool):
        A = to_automaton(P, aut)

        def check_k_r_trivial(v):
            if known_true:
                require(v.holds, "complete rpoNFA not trivial at its depth")
                return
            oracle = triv.is_k_r_trivial_oracle
            if v.holds:
                j = v.k_used
                require(j is not None and j <= k, f"bad k_used {j}")
                require(oracle(A, j).holds, f"oracle disagrees at k={j}")
                require(j == 0 or not oracle(A, j - 1).holds,
                        f"property already holds below k_used={j}")
            else:
                require(not oracle(A, k).holds, f"oracle disagrees at k={k}")
                _, accepted, rejected = v.split_class
                check.witness_separates(accepted, [aut], [])
                check.witness_separates(rejected, [], [aut])

        items.append([Query("is_k_r_trivial", lambda: triv.is_k_r_trivial(A, k),
                            check_k_r_trivial)])

    # k stays at 3 over 2 letters and at 2 over 3 letters, for the same
    # reason; k = 4 is reached by the complete rpoNFAs below.  Complete
    # 3-letter rpoNFAs stop at depth 1: at depth 2 a true answer scans
    # every class and takes a second.
    for i in range(3 if tiny else 12):
        add_k_r_trivial(gen.random_nfa(rng, 4, gen.letters(2)), 1 + i % 3,
                        False)
    for i in range(2 if tiny else 8):
        add_k_r_trivial(gen.random_nfa(rng, 3, gen.letters(3)), 1 + i % 2,
                        False)
    for i in range(2 if tiny else 6):
        aut = (rponfa_at(2, 3 + i % 3, 4, complete=True) if i % 3
               else rponfa_at(3, 3 + i % 2, 1, complete=True))
        add_k_r_trivial(aut, gen.completed_depth(aut), True)
    return items


# ---------------------------------------------------------------------- min-dfa

def min_dfa(P, rng, workdir: Path, tiny: bool) -> list[list[Query]]:
    items: list[list[Query]] = []
    # k + n stops at 8, and m below at 8: (5, 5) alone would be half of
    # a pass, and with (4, 5), (5, 4) and m = 9, 10 a pass takes 4.5 s
    # instead of about 2.5 s.  Fewer passes leave more queries whose
    # every run met the host's slow state, and query_p90_ms then swung
    # by a third from run to run.
    top = 2 if tiny else 5
    for k, n in ((k, n) for k in range(1, top + 1)
                 for n in range(1, top + 1) if k + n <= 8):
        def check_report(r, k=k, n=n):
            require(r.state_count == r.expected_states == n * (k + 2),
                    "state count is not n(k+2)")
            require(r.rejected_count == 1, "more than one rejected word")
            require(r.rejected_word_matches, "rejected word is not build_w")
            if k == n:
                bound = math.comb(2 * n, n)
                require(r.min_dfa_bound == bound
                        and r.min_dfa_states >= bound,
                        "minimal DFA below C(2n, n)")

        items.append([Query("verify_extremal",
                            lambda k=k, n=n: P.extremal.verify_extremal(
                                k, n, do_minimize=True),
                            check_report)])

    def add_pair(label, A, expected: bool):
        def check_r_trivial(v):
            require(v.holds is expected, f"R-triviality is not {expected}")
            if not expected:
                access, longer = v.cycle_words
                require(len(longer) > len(access)
                        and longer[:len(access)] == access, "bad cycle words")

        def check_dre(v):
            require(v is expected, f"DRE definability is not {expected}")

        items.append([Query(f"is_r_trivial {label}",
                            lambda: P.triviality.is_r_trivial(A),
                            check_r_trivial)])
        items.append([Query(f"is_dre_definable {label}",
                            lambda: P.dre.is_dre_definable(A), check_dre)])

    for m in range(1, 4 if tiny else 9):
        add_pair("suffix", to_automaton(P, gen.suffix_b(m)), False)
    # Copies of Sigma*bSigma^6 under seeded renaming and reordering of
    # states and transitions all cost the same: 4 ms for is_r_trivial
    # and 7 ms for is_dre_definable.  There are enough of them that
    # query_p50_ms falls among the is_r_trivial calls and query_p90_ms
    # among the is_dre_definable ones, not on the few fixed queries
    # around them, whose order the noise of the machine can swap.
    for _ in range(2 if tiny else 95):
        copy = gen.renamed(rng, gen.suffix_b(6))
        add_pair("suffix copy", to_automaton(P, copy), False)
    for k in range(1, 3 if tiny else 6):
        for n in range(1, 4):
            add_pair("extremal", P.build_a(k, n), True)
    # random rpoNFAs of up to 4 states take under 0.4 ms a call, so
    # they all sit below the median
    for i in range(3 if tiny else 43):
        aut = gen.random_rponfa(rng, 1 + i % 4, gen.letters(1 + i % 2))
        add_pair("rponfa", to_automaton(P, aut), True)
    return items


WORKLOADS = {"subset-search": subset_search, "class-reps": class_reps,
             "min-dfa": min_dfa}
