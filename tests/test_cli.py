"""End-to-end behavior of the command line interface."""

import json
import re
import shlex
from dataclasses import replace
from pathlib import Path

import pytest

import ponfa.cli
import ponfa.reductions
from ponfa.cli import _build_parser, main
from ponfa.core import (Automaton, Decision, parse_automaton, parse_word,
                        serialize_automaton)
from ponfa.extremal import ExtremalReport, build_a
from ponfa.reductions import cnf_to_rponfa, dtm_to_ponfa, parse_dimacs, parse_dtm
from ponfa.triviality import is_r_trivial


@pytest.fixture
def extremal_path(tmp_path):
    path = tmp_path / "a22.json"
    path.write_text(serialize_automaton(build_a(2, 2)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify(extremal_path, capsys):
    code, out, _ = run(capsys, "classify", extremal_path)
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "result": "RPO_NFA",
        "complete": False,
        "deterministic": False,
        "partially_ordered": True,
        "self_loop_deterministic": True,
    }


def test_universal_reports_the_witness(extremal_path, capsys):
    code, out, _ = run(capsys, "universal", extremal_path)
    assert code == 0
    assert json.loads(out) == {
        "result": False,
        "witness": ["a1", "a1", "a2", "a1", "a2"],
    }


def test_output_is_byte_stable(extremal_path, capsys):
    _, first, _ = run(capsys, "universal", extremal_path)
    _, second, _ = run(capsys, "universal", extremal_path)
    assert first == second


def test_strategy_flag(extremal_path, capsys):
    # one engine decides: the option is gone, also for the former names
    for command in ("universal", "include", "equal"):
        paths = [extremal_path] * (1 if command == "universal" else 2)
        for strategy in ("generic", "bounded", "unary"):
            with pytest.raises(SystemExit) as info:
                main([command, *paths, "--strategy", strategy])
            assert info.value.code == 1
            assert "unrecognized arguments: --strategy" in \
                capsys.readouterr().err


def test_gen_w_prints_tokens(capsys):
    code, out, _ = run(capsys, "gen-w", "2", "2")
    assert code == 0
    assert out == "a1 a1 a2 a1 a2\n"


def test_gen_a_prints_the_automaton(capsys):
    code, out, _ = run(capsys, "gen-a", "2", "2")
    assert code == 0
    assert parse_automaton(out) == build_a(2, 2)


@pytest.fixture
def everything(tmp_path):
    path = tmp_path / "all.json"
    path.write_text(json.dumps({
        "alphabet": ["a1", "a2"],
        "states": ["u"],
        "initial": ["u"],
        "accepting": ["u"],
        "transitions": [["u", "a1", "u"], ["u", "a2", "u"]],
    }))
    return str(path)


def test_include_and_equal(extremal_path, everything, capsys):
    code, out, _ = run(capsys, "include", extremal_path, everything)
    assert code == 0 and json.loads(out) == {"result": True}

    code, out, _ = run(capsys, "include", everything, extremal_path)
    payload = json.loads(out)
    assert code == 0 and payload["result"] is False
    assert payload["witness"] == ["a1", "a1", "a2", "a1", "a2"]

    code, out, _ = run(capsys, "equal", extremal_path, everything)
    payload = json.loads(out)
    assert code == 0 and payload["result"] is False
    assert payload["direction"] == "second-only"

    code, out, _ = run(capsys, "equal", extremal_path, extremal_path)
    assert code == 0 and json.loads(out) == {"result": True}


REJECTED = ("a1", "a1", "a2", "a1", "a2")   # the one word build_a(2, 2) rejects


@pytest.mark.parametrize("command, decider, order, decision, passes", [
    # the witness is accepted by build_a(2, 2), so it shows nothing
    ("universal", "is_universal", "a", Decision(False, ("a1",)), False),
    ("universal", "is_universal", "a", Decision(False, REJECTED), True),
    # the first automaton must accept it, the second must reject it
    ("include", "includes", "ae", Decision(False, REJECTED), False),
    ("include", "includes", "ea", Decision(False, ("a1",)), False),
    ("include", "includes", "ea", Decision(False, REJECTED), True),
    ("equal", "equivalent", "ae",
     Decision(False, REJECTED, "first-only"), False),
    ("equal", "equivalent", "ea",
     Decision(False, REJECTED, "first-only"), True),
    # second-only reverses the pair: the second must accept, the first reject
    ("equal", "equivalent", "ea",
     Decision(False, REJECTED, "second-only"), False),
    ("equal", "equivalent", "ae",
     Decision(False, REJECTED, "second-only"), True),
])
def test_witness_is_rechecked_before_printing(extremal_path, everything, capsys,
                                              monkeypatch, command, decider,
                                              order, decision, passes):
    monkeypatch.setattr(ponfa.cli, decider, lambda *args, **kwargs: decision)
    files = [{"a": extremal_path, "e": everything}[key] for key in order]
    code, out, err = run(capsys, command, *files)
    if passes:
        assert (code, err) == (0, "")
        payload = {"result": False, "witness": list(decision.witness)}
        if decision.direction is not None:
            payload["direction"] = decision.direction
        assert json.loads(out) == payload
    else:
        assert (code, out) == (2, "")
        assert err == "error: witness failed re-validation before printing\n"


def test_rtrivial(extremal_path, capsys):
    code, out, _ = run(capsys, "rtrivial", extremal_path)
    assert code == 0 and json.loads(out)["result"] is True

    code, out, _ = run(capsys, "rtrivial", extremal_path, "--k", "2")
    payload = json.loads(out)
    assert code == 0
    assert payload["result"] is False
    assert payload["k"] == 2
    split = payload["split_class"]
    assert split["rejected"] == ["a1", "a1", "a2", "a1", "a2"]

    code, out, _ = run(capsys, "rtrivial", extremal_path, "--k", "3")
    payload = json.loads(out)
    assert payload["result"] is True and payload["k"] == 3


def test_rtrivial_reports_the_cycle_words(tmp_path, capsys):
    # b*a(b*a)*, whose minimal automaton has the proper cycle p -a-> q -b-> p
    loop_plus = Automaton(("a", "b"), ("p", "q"), ["p"], ["q"],
                          {("p", "b"): ["p"], ("p", "a"): ["q"],
                           ("q", "b"): ["p"], ("q", "a"): ["q"]})
    path = tmp_path / "loop_plus.json"
    path.write_text(serialize_automaton(loop_plus))
    code, out, _ = run(capsys, "rtrivial", str(path))
    payload = json.loads(out)
    assert code == 0 and payload["result"] is False
    assert payload["cycle_words"] == [
        list(word) for word in is_r_trivial(loop_plus).cycle_words]


def test_rtrivial_max_subsets_exits_two_below_the_budget(extremal_path, capsys):
    # build_a(2, 2)'s subset table has 16 subsets; its class searches
    # at the bounds 0..3 store at most 48 nodes
    for argv, least in ((), 16), (("--k", "5"), 48):
        code, out, _ = run(capsys, "rtrivial", extremal_path, *argv,
                           "--max-subsets", str(least))
        assert code == 0 and json.loads(out)["result"] is True
        code, out, err = run(capsys, "rtrivial", extremal_path, *argv,
                             "--max-subsets", str(least - 1))
        assert code == 2 and out == ""
        assert err == (f"error: subset construction exceeded {least - 1} "
                       "states\n" if not argv else
                       f"error: search exceeded {least - 1} nodes\n")


def test_rtrivial_k_reports_the_least_bound_that_holds(extremal_path, capsys):
    code, out, _ = run(capsys, "rtrivial", extremal_path, "--k", "5")
    assert code == 0
    assert '"k": 3' in out
    assert json.loads(out) == {"result": True, "k": 3}


def test_reduce_cnf(tmp_path, capsys):
    formula = tmp_path / "f.cnf"
    formula.write_text("p cnf 2 2\n1 2 0\n-1 -2 0\n")
    code, out, _ = run(capsys, "reduce-cnf", str(formula))
    assert code == 0
    machine = parse_automaton(out)
    assert machine.alphabet == ("0", "1")

    bad = tmp_path / "bad.cnf"
    bad.write_text("p cnf 1 1\n")
    code, _, err = run(capsys, "reduce-cnf", str(bad))
    assert code == 1 and err.startswith("error:")


@pytest.fixture
def machine_path(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({
        "states": ["go", "yes"],
        "tape_alphabet": ["1", "_"],
        "input_alphabet": ["1"],
        "blank": "_",
        "initial": "go",
        "accepting": "yes",
        "space_bound": 1,
        "transitions": [["go", "1", "yes", "1", "S"],
                        ["go", "_", "go", "_", "S"]],
    }))
    return str(path)


def test_reduce_tm(machine_path, capsys):
    code, out, _ = run(capsys, "reduce-tm", machine_path, "1")
    assert code == 0
    automaton = parse_automaton(out)
    assert automaton.alphabet == ("0", "1")

    code, _, err = run(capsys, "reduce-tm", machine_path, "2")
    assert code == 1 and "alphabet" in err


@pytest.mark.parametrize("command", ["reduce-tm", "reduce-cnf"])
def test_reduce_tm_past_the_state_budget_exits_two(command, machine_path,
                                                   tmp_path, capsys,
                                                   monkeypatch):
    formula = tmp_path / "f.cnf"
    formula.write_text("p cnf 60 2\n1 0\n-1 0\n")
    argv = {"reduce-tm": [machine_path, "1"], "reduce-cnf": [str(formula)]}
    monkeypatch.setattr(ponfa.reductions, "DEFAULT_STATE_LIMIT", 100)
    code, out, err = run(capsys, command, *argv[command])
    assert (code, out) == (2, "")
    assert err == "error: construction exceeded 100 states\n"


def test_automaton_commands_print_the_serializer_text(machine_path, tmp_path,
                                                     capsys):
    formula = tmp_path / "f.cnf"
    formula.write_text("p cnf 2 2\n1 2 0\n-1 -2 0\n")
    machine = parse_dtm(Path(machine_path).read_text())
    expected = {
        ("gen-a", "2", "2"): build_a(2, 2),
        ("reduce-cnf", str(formula)):
            cnf_to_rponfa(parse_dimacs(formula.read_text())),
        ("reduce-tm", machine_path, "1"):
            dtm_to_ponfa(machine, parse_word("1", machine.input_alphabet)),
    }
    for argv, automaton in expected.items():
        # no blank line after the serializer's own closing newline
        assert run(capsys, *argv) == (0, serialize_automaton(automaton), "")


def test_dre(extremal_path, capsys):
    code, out, _ = run(capsys, "dre", extremal_path)
    assert code == 0 and json.loads(out) == {"result": True}


def test_state_names_with_commas_do_not_collide(tmp_path, capsys):
    # determinizing gives {q, r} and {"q,r"}, which both spell {q,r}
    path = tmp_path / "commas.json"
    path.write_text(json.dumps({
        "alphabet": ["x", "y"], "states": ["s", "q", "r", "q,r"],
        "initial": ["s"], "accepting": ["q"],
        "transitions": [["s", "x", "q"], ["s", "x", "r"], ["s", "y", "q,r"]],
    }))
    for command in ("rtrivial", "dre"):
        code, out, err = run(capsys, command, str(path))
        assert (code, err) == (0, "")
        assert json.loads(out) == {"result": True}


def test_verify_extremal(capsys):
    code, out, _ = run(capsys, "verify-extremal", "2", "2", "--minimize")
    payload = json.loads(out)
    assert code == 0
    assert payload["result"] is True
    assert payload["stats"]["state_count"] == 8
    assert payload["stats"]["min_dfa_states"] >= payload["stats"]["min_dfa_bound"]


@pytest.mark.parametrize("argv", [["2", "3"], ["2", "3", "--minimize"]])
def test_verify_extremal_without_a_bound(capsys, argv):
    # without --minimize, or with k != n, there is no C(2n, n) bound
    code, out, _ = run(capsys, "verify-extremal", *argv)
    payload = json.loads(out)
    assert code == 0 and payload["result"] is True
    assert ("min_dfa_states" in payload["stats"]) == ("--minimize" in argv)
    assert payload["stats"].get("min_dfa_bound") is None


@pytest.mark.parametrize("change, result", [
    ({}, True),
    ({"min_dfa_states": 20}, True),     # the bound met exactly passes
    ({"min_dfa_states": 19}, False),
    ({"rejected_count": 2}, False),
    ({"rejected_word_matches": False}, False),
    ({"state_count": 13}, False),
], ids=["sound", "at-bound", "below-bound", "two-rejected", "other-word",
        "state-count"])
def test_verify_extremal_fails_on_any_failed_check(capsys, monkeypatch,
                                                   change, result):
    # each check alone decides the result; the real reports all pass
    report = ExtremalReport(3, 3, 15, 15, 1, True, 21, 20)
    monkeypatch.setattr(ponfa.cli, "verify_extremal",
                        lambda k, n, do_minimize: replace(report, **change))
    code, out, _ = run(capsys, "verify-extremal", "3", "3", "--minimize")
    assert code == 0 and json.loads(out)["result"] is result


def test_missing_file_exits_one(capsys):
    code, _, err = run(capsys, "classify", "/nonexistent/file.json")
    assert code == 1 and err.startswith("error:")


def test_malformed_automaton_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("not json at all")
    code, _, err = run(capsys, "classify", str(path))
    assert code == 1 and "invalid JSON" in err


def test_capacity_exhaustion_exits_two(extremal_path, capsys):
    code, _, err = run(capsys, "universal", extremal_path,
                       "--max-subsets", "2")
    assert code == 2 and err.startswith("error:")


@pytest.mark.parametrize("command", ["universal", "include", "equal", "dre",
                                     "rtrivial"])
@pytest.mark.parametrize("value, message", [
    ("0", "must be positive, got 0"),
    ("-5", "must be positive, got -5"),
    ("abc", "invalid int value: 'abc'"),
])
def test_non_positive_max_subsets_exits_one(extremal_path, command, value,
                                            message, capsys):
    files = [extremal_path] * (2 if command in ("include", "equal") else 1)
    with pytest.raises(SystemExit) as info:
        main([command, *files, "--max-subsets", value])
    assert info.value.code == 1
    assert capsys.readouterr().err.endswith(
        f"error: argument --max-subsets: {message}\n")


@pytest.mark.parametrize("command", ["universal", "include", "equal", "dre",
                                     "rtrivial"])
def test_max_subsets_of_one_is_a_budget(extremal_path, command, capsys):
    # 1 is the least positive budget: the search runs, and exceeds it
    files = [extremal_path] * (2 if command in ("include", "equal") else 1)
    code, out, err = run(capsys, command, *files, "--max-subsets", "1")
    assert code == 2 and out == ""
    assert re.fullmatch(r"error: .* exceeded 1 [a-z ]+\n", err)


def test_usage_errors_exit_one():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        main(["gen-w", "2"])
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 1


def test_readme_command_lines_parse():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Command line")[1]
    section = section.split("\n## ")[0]
    block = section.split("```sh\n")[1].split("```")[0]
    parser = _build_parser()
    exercised = set()
    for line in block.splitlines():
        tokens = shlex.split(line, comments=True)
        if ">" in tokens:
            tokens = tokens[:tokens.index(">")]
        assert tokens[0] == "ponfa", line
        try:
            parser.parse_args(tokens[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")
        exercised.update(token for token in tokens if token.startswith("--"))
    # a flag the prose names must appear on a command line that parses
    assert set(re.findall(r"--[a-z][a-z-]*", section)) <= exercised


def test_one_parser_serves_every_call(extremal_path, capsys):
    assert _build_parser() is _build_parser()
    code, out, _ = run(capsys, "rtrivial", extremal_path, "--k", "2")
    assert code == 0 and json.loads(out)["k"] == 2
    # a namespace left over from the last call would carry its k
    code, out, _ = run(capsys, "rtrivial", extremal_path)
    assert code == 0 and json.loads(out) == {"result": True}
    with pytest.raises(SystemExit) as info:
        main(["gen-w", "2"])
    assert info.value.code == 1
    capsys.readouterr()
    assert run(capsys, "gen-w", "2", "2") == (0, "a1 a1 a2 a1 a2\n", "")


def test_deciders_are_looked_up_per_call(extremal_path, capsys, monkeypatch):
    # perfbench's tracer wraps the module attributes after the import
    calls = []
    original = ponfa.cli.includes

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(ponfa.cli, "includes", counted)
    code, out, _ = run(capsys, "include", extremal_path, extremal_path)
    assert code == 0 and json.loads(out) == {"result": True}
    assert len(calls) == 1
