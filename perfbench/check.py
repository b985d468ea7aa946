"""Reference checks, run after the timed loop.

Membership is simulated here on the wire-format dicts, so a witness is
re-checked without the package's own ``accepts``.  Verdict references
are the ones each workload names; none of them runs the call that was
timed.
"""

from __future__ import annotations

import json


class Wrong(Exception):
    """A verdict or witness that the reference rejects."""


def member(aut: dict, word) -> bool:
    """Subset simulation of the wire-format automaton on ``word``."""
    cells: dict = {}
    for q, sym, t in aut["transitions"]:
        cells.setdefault((q, sym), set()).add(t)
    current = set(aut["initial"])
    for sym in word:
        if sym not in aut["alphabet"]:
            raise Wrong(f"witness symbol {sym!r} outside the alphabet")
        current = {t for q in current for t in cells.get((q, sym), ())}
    return bool(current & set(aut["accepting"]))


def wire(automaton) -> dict:
    """Wire-format dict of a package automaton, read from its fields."""
    return {"alphabet": list(automaton.alphabet),
            "states": list(automaton.states),
            "initial": list(automaton.initial),
            "accepting": list(automaton.accepting),
            "transitions": [[q, sym, t] for (q, sym), targets
                            in automaton.transitions.items() for t in targets]}


def require(condition: bool, message: str) -> None:
    if not condition:
        raise Wrong(message)


def payload(output) -> dict:
    """The JSON object a successful CLI decision call printed."""
    _, stdout = output
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        raise Wrong(f"CLI printed no JSON: {stdout[:80]!r}") from None
    require(isinstance(doc, dict) and isinstance(doc.get("result"), bool),
            f"CLI printed no verdict: {stdout[:80]!r}")
    return doc


def witness_separates(word, accepted_by=(), rejected_by=()) -> None:
    """Membership re-check of a witness."""
    require(word is not None, "negative verdict without a witness")
    for aut in accepted_by:
        require(member(aut, word), f"witness {word!r} is not accepted")
    for aut in rejected_by:
        require(not member(aut, word), f"witness {word!r} is not rejected")


def inclusion(holds: bool, witness, a: dict, b: dict, reference) -> None:
    """Check an inclusion verdict for L(a) ⊆ L(b).  A negative verdict
    is settled by its witness; a positive one by ``reference()``."""
    if holds:
        require(reference(), "inclusion claimed but the reference finds a gap")
    else:
        witness_separates(witness, [a], [b])


def equality(holds: bool, witness, direction, a: dict, b: dict,
             reference) -> None:
    """Check an equivalence verdict; ``reference()`` decides a positive
    one, and a negative one needs a witness in exactly one language."""
    if holds:
        require(reference(), "equivalence claimed but the reference differs")
    elif direction == "first-only":
        witness_separates(witness, [a], [b])
    else:
        require(direction == "second-only", f"bad direction {direction!r}")
        witness_separates(witness, [b], [a])
