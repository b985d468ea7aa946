"""Command line front end.

Each subcommand prints one JSON object on standard output (except
``gen-w``, which prints the word as space separated tokens).  A handler
returns what gets printed: a payload dict (keys ``result``, ``witness``,
the command's own, ``stats``, in that order), an ``Automaton``, which
``main`` serializes, or text.  One parser, built on the first ``main``
call, serves the process.  The exit code reports how the computation
went, not what it decided: 0 for a completed run whatever the verdict,
1 for usage and input format errors, 2 for capacity and internal errors.

``universal``, ``include`` and ``equal`` share one handler, which checks
a witness again before printing it: of the automata in argument order,
reversed when ``equal`` finds the witness "second-only", all but the
last must accept the witness and the last must reject it.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional, Sequence

from .core import (Automaton, CapacityError, FormatError, accepts, classify,
                   parse_automaton, parse_word, serialize_automaton)
from .decision import equivalent, includes, is_universal
from .dre import is_dre_definable
from .extremal import build_a, build_w, verify_extremal
from .ops import DEFAULT_SUBSET_LIMIT
from .reductions import cnf_to_rponfa, dtm_to_ponfa, parse_dimacs, parse_dtm
from .triviality import is_k_r_trivial, is_r_trivial


def _read_file(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as error:
        raise FormatError(f"cannot read {path}: {error}") from None


def _load_automaton(path: str) -> Automaton:
    return parse_automaton(_read_file(path))


def _cmd_classify(args) -> dict:
    flags = classify(_load_automaton(args.automaton))
    return {"result": flags.label.value,
            "complete": flags.is_complete,
            "deterministic": flags.is_deterministic,
            "partially_ordered": flags.is_partially_ordered,
            "self_loop_deterministic": flags.is_self_loop_deterministic}


def _cmd_decide(args) -> dict:
    # the deciders are looked up per call, so that a wrapper installed on
    # the module attribute (perfbench's tracer) sees the call
    if args.command == "universal":
        automata, decide = [_load_automaton(args.automaton)], is_universal
    else:
        automata = [_load_automaton(args.first), _load_automaton(args.second)]
        decide = includes if args.command == "include" else equivalent
    decision = decide(*automata, max_nodes=args.max_subsets)
    payload = {"result": decision.holds}
    witness = decision.witness
    if witness is not None:
        if decision.direction == "second-only":
            automata.reverse()
        if (not all(accepts(automaton, witness) for automaton in automata[:-1])
                or accepts(automata[-1], witness)):
            raise RuntimeError("witness failed re-validation before printing")
        payload["witness"] = list(witness)
        if decision.direction is not None:
            payload["direction"] = decision.direction
    return payload


def _cmd_rtrivial(args) -> dict:
    automaton = _load_automaton(args.automaton)
    if args.k is None:
        verdict = is_r_trivial(automaton, max_subsets=args.max_subsets)
    else:
        verdict = is_k_r_trivial(automaton, args.k,
                                 max_subsets=args.max_subsets)
    payload = {"result": verdict.holds}
    if verdict.k_used is not None:
        payload["k"] = verdict.k_used
    if verdict.split_class is not None:
        representative, accepted, rejected = verdict.split_class
        payload["split_class"] = {"representative": list(representative),
                                  "accepted": list(accepted),
                                  "rejected": list(rejected)}
    if verdict.cycle_words is not None:
        payload["cycle_words"] = [list(word) for word in verdict.cycle_words]
    return payload


def _cmd_gen_w(args) -> str:
    return " ".join(build_w(args.k, args.n))


def _cmd_gen_a(args) -> Automaton:
    return build_a(args.k, args.n)


def _cmd_reduce_cnf(args) -> Automaton:
    return cnf_to_rponfa(parse_dimacs(_read_file(args.formula)))


def _cmd_reduce_tm(args) -> Automaton:
    machine = parse_dtm(_read_file(args.machine))
    word = parse_word(args.input, machine.input_alphabet)
    return dtm_to_ponfa(machine, word)


def _cmd_dre(args) -> dict:
    return {"result": is_dre_definable(_load_automaton(args.automaton),
                                       max_subsets=args.max_subsets)}


def _cmd_verify_extremal(args) -> dict:
    report = verify_extremal(args.k, args.n, do_minimize=args.minimize)
    passed = (report.rejected_count == 1 and report.rejected_word_matches
              and report.state_count == report.expected_states
              and (report.min_dfa_bound is None
                   or report.min_dfa_states >= report.min_dfa_bound))
    stats = {"k": report.k, "n": report.n,
             "state_count": report.state_count,
             "expected_states": report.expected_states,
             "rejected_count": report.rejected_count,
             "rejected_word_matches": report.rejected_word_matches}
    if report.min_dfa_states is not None:
        stats["min_dfa_states"] = report.min_dfa_states
        stats["min_dfa_bound"] = report.min_dfa_bound
    return {"result": passed, "stats": stats}


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") \
            from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _add_max_subsets(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-subsets", type=_positive_int,
                        default=DEFAULT_SUBSET_LIMIT,
                        help="cap on the nodes a search or subset "
                        "construction stores, also on the search of a "
                        "quotient")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="ponfa",
                             description="partially ordered NFA toolkit")
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("classify", help="structural class of an automaton")
    sub.add_argument("automaton")
    sub.set_defaults(handler=_cmd_classify)

    sub = commands.add_parser("universal", help="does the automaton accept "
                                                "every word")
    sub.add_argument("automaton")
    _add_max_subsets(sub)
    sub.set_defaults(handler=_cmd_decide)

    sub = commands.add_parser("include", help="is the first language "
                                              "contained in the second")
    sub.add_argument("first")
    sub.add_argument("second")
    _add_max_subsets(sub)
    sub.set_defaults(handler=_cmd_decide)

    sub = commands.add_parser("equal", help="do the automata accept the "
                                            "same language")
    sub.add_argument("first")
    sub.add_argument("second")
    _add_max_subsets(sub)
    sub.set_defaults(handler=_cmd_decide)

    sub = commands.add_parser("rtrivial", help="is the language R-trivial")
    sub.add_argument("automaton")
    sub.add_argument("--k", type=int, default=None,
                     help="decide instead whether the language is a union of "
                          "prefix-k classes for some k in 0..K, reporting "
                          "the least such k")
    _add_max_subsets(sub)
    sub.set_defaults(handler=_cmd_rtrivial)

    sub = commands.add_parser("gen-w", help="print the extremal word")
    sub.add_argument("k", type=int)
    sub.add_argument("n", type=int)
    sub.set_defaults(handler=_cmd_gen_w)

    sub = commands.add_parser("gen-a", help="print the extremal automaton")
    sub.add_argument("k", type=int)
    sub.add_argument("n", type=int)
    sub.set_defaults(handler=_cmd_gen_a)

    sub = commands.add_parser("reduce-cnf", help="automaton that is "
                                                 "universal iff the formula "
                                                 "is unsatisfiable")
    sub.add_argument("formula")
    sub.set_defaults(handler=_cmd_reduce_cnf)

    sub = commands.add_parser("reduce-tm", help="automaton that is universal "
                                                "iff the machine rejects "
                                                "the input")
    sub.add_argument("machine")
    sub.add_argument("input")
    sub.set_defaults(handler=_cmd_reduce_tm)

    sub = commands.add_parser("dre", help="is the language definable by a "
                                          "deterministic regular expression")
    sub.add_argument("automaton")
    _add_max_subsets(sub)
    sub.set_defaults(handler=_cmd_dre)

    sub = commands.add_parser("verify-extremal", help="check the extremal "
                                                      "pair at size k, n")
    sub.add_argument("k", type=int)
    sub.add_argument("n", type=int)
    sub.add_argument("--minimize", action="store_true",
                     help="also check the minimal DFA lower bound")
    sub.set_defaults(handler=_cmd_verify_extremal)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        output = args.handler(args)
    except (FormatError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except (CapacityError, RecursionError, RuntimeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if isinstance(output, Automaton):
        sys.stdout.write(serialize_automaton(output))
    else:
        print(json.dumps(output) if isinstance(output, dict) else output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
