"""Command line front end.

Each subcommand prints one JSON object on standard output (except
``gen-w``, which prints the word as space separated tokens).  The exit
code reports how the computation went, not what it decided: 0 for a
completed run whatever the verdict, 1 for usage and input format
errors, 2 for capacity and internal errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .core import (Automaton, CapacityError, FormatError, Word, accepts,
                   classify, parse_automaton, parse_word, serialize_automaton)
from .decision import Strategy, equivalent, includes, is_universal
from .dre import is_dre_definable
from .extremal import build_a, build_w, verify_extremal
from .ops import DEFAULT_SUBSET_LIMIT
from .reductions import cnf_to_rponfa, dtm_to_ponfa, parse_dimacs, parse_dtm
from .triviality import is_k_r_trivial, is_r_trivial


class CommandResult:
    """What a subcommand hands back for printing: the verdict or
    value, an optional witness word, and optional counters."""

    def __init__(self, result, witness: Optional[Word] = None,
                 stats: Optional[dict] = None, extra: Optional[dict] = None):
        self.result = result
        self.witness = witness
        self.stats = stats
        self.extra = extra

    def to_payload(self) -> dict:
        payload = {"result": self.result}
        if self.witness is not None:
            payload["witness"] = list(self.witness)
        if self.extra:
            payload.update(self.extra)
        if self.stats:
            payload["stats"] = self.stats
        return payload


def _read_file(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as error:
        raise FormatError(f"cannot read {path}: {error}") from None


def _load_automaton(path: str) -> Automaton:
    return parse_automaton(_read_file(path))


def _check_witness(witness: Word, accepted_by: Sequence[Automaton],
                   rejected_by: Sequence[Automaton]) -> None:
    for automaton in accepted_by:
        if not accepts(automaton, witness):
            raise RuntimeError("witness failed re-validation before printing")
    for automaton in rejected_by:
        if accepts(automaton, witness):
            raise RuntimeError("witness failed re-validation before printing")


def _cmd_classify(args) -> CommandResult:
    flags = classify(_load_automaton(args.automaton))
    return CommandResult(flags.label.value, extra={
        "complete": flags.is_complete,
        "deterministic": flags.is_deterministic,
        "partially_ordered": flags.is_partially_ordered,
        "self_loop_deterministic": flags.is_self_loop_deterministic,
    })


def _cmd_universal(args) -> CommandResult:
    automaton = _load_automaton(args.automaton)
    decision = is_universal(automaton, strategy=args.strategy,
                            max_nodes=args.max_subsets)
    if decision.witness is not None:
        _check_witness(decision.witness, [], [automaton])
    return CommandResult(decision.holds, decision.witness)


def _cmd_include(args) -> CommandResult:
    first = _load_automaton(args.first)
    second = _load_automaton(args.second)
    decision = includes(first, second, strategy=args.strategy,
                        max_nodes=args.max_subsets)
    if decision.witness is not None:
        _check_witness(decision.witness, [first], [second])
    return CommandResult(decision.holds, decision.witness)


def _cmd_equal(args) -> CommandResult:
    first = _load_automaton(args.first)
    second = _load_automaton(args.second)
    decision = equivalent(first, second, strategy=args.strategy,
                          max_nodes=args.max_subsets)
    extra = {}
    if decision.witness is not None:
        if decision.direction == "first-only":
            _check_witness(decision.witness, [first], [second])
        else:
            _check_witness(decision.witness, [second], [first])
        extra["direction"] = decision.direction
    return CommandResult(decision.holds, decision.witness, extra=extra)


def _cmd_rtrivial(args) -> CommandResult:
    automaton = _load_automaton(args.automaton)
    if args.k is None:
        verdict = is_r_trivial(automaton)
    else:
        verdict = is_k_r_trivial(automaton, args.k)
    extra = {}
    if verdict.k_used is not None:
        extra["k"] = verdict.k_used
    if verdict.split_class is not None:
        representative, accepted, rejected = verdict.split_class
        extra["split_class"] = {"representative": list(representative),
                                "accepted": list(accepted),
                                "rejected": list(rejected)}
    if verdict.cycle_words is not None:
        extra["cycle_words"] = [list(word) for word in verdict.cycle_words]
    return CommandResult(verdict.holds, extra=extra)


def _cmd_gen_w(args) -> str:
    return " ".join(build_w(args.k, args.n))


def _cmd_gen_a(args) -> str:
    return serialize_automaton(build_a(args.k, args.n))


def _cmd_reduce_cnf(args) -> str:
    formula = parse_dimacs(_read_file(args.formula))
    return serialize_automaton(cnf_to_rponfa(formula))


def _cmd_reduce_tm(args) -> str:
    machine = parse_dtm(_read_file(args.machine))
    word = parse_word(args.input, machine.input_alphabet)
    return serialize_automaton(dtm_to_ponfa(machine, word))


def _cmd_dre(args) -> CommandResult:
    automaton = _load_automaton(args.automaton)
    return CommandResult(is_dre_definable(automaton,
                                          max_subsets=args.max_subsets))


def _cmd_verify_extremal(args) -> CommandResult:
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
    return CommandResult(passed, stats=stats)


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
                        help="cap on explored subset-construction nodes")


def _add_decision_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--strategy", default=Strategy.GENERIC.value,
                        choices=[s.value for s in Strategy],
                        help="decision engine (default: generic)")
    _add_max_subsets(parser)


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
    _add_decision_flags(sub)
    sub.set_defaults(handler=_cmd_universal)

    sub = commands.add_parser("include", help="is the first language "
                                              "contained in the second")
    sub.add_argument("first")
    sub.add_argument("second")
    _add_decision_flags(sub)
    sub.set_defaults(handler=_cmd_include)

    sub = commands.add_parser("equal", help="do the automata accept the "
                                            "same language")
    sub.add_argument("first")
    sub.add_argument("second")
    _add_decision_flags(sub)
    sub.set_defaults(handler=_cmd_equal)

    sub = commands.add_parser("rtrivial", help="is the language R-trivial")
    sub.add_argument("automaton")
    sub.add_argument("--k", type=int, default=None,
                     help="check the counted property at this bound only")
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        output = args.handler(args)
    except (FormatError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except (CapacityError, RecursionError, RuntimeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if isinstance(output, CommandResult):
        print(json.dumps(output.to_payload()))
    else:
        print(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
