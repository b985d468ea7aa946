"""Seeded mutation check for the ponfa sources.

    python3 tools/mutants.py --seed 0 --workdir /tmp/ponfa-mutants \\
        src/ponfa/dre.py src/ponfa/triviality.py src/ponfa/ops.py:231-268

Copies the checkout, without its git directory and caches, into
``--workdir`` (which must not exist yet) and mutates only that copy.
From each named module it samples ``SITES`` mutation sites with
``random.Random(seed)`` and makes one mutant per site.  A module named
as ``MODULE:FIRST-LAST`` is sampled only at the sites on lines FIRST to
LAST, both included, such as the lines a change rewrote.  A mutant is
one of:

* a comparison swapped (``==``/``!=``, ``<``/``<=``, ``>``/``>=``,
  ``in``/``not in``, ``is``/``is not``);
* a ``not`` dropped;
* ``and`` and ``or`` swapped;
* an arithmetic or bit operator swapped, in an expression or an
  augmented assignment such as ``|=``: ``+``/``-``, ``|``/``^``,
  ``<<``/``>>``, and ``&`` turned into ``|``.

Annotations hold no sites: under postponed evaluation they never run,
so a ``|`` in ``int | None`` would only make an equivalent mutant.

Each mutant runs the tier-1 tests of the copy, stopping at the first
failure, and prints one line: ``killed``, ``survived`` or ``timeout``,
the file and line of the original source, and the mutation.  The
unmutated copy runs first, within ``TIMEOUT_S`` seconds, and each
mutant gets ``SLOWDOWN`` times that run's time plus ``GRACE_S``
seconds, a limit printed once before the first mutant.  A mutant whose
tests run past it is stopped and reported as ``timeout``: it may hang a
search, or only be slow, so it is neither killed nor survived.  The
tests run with their address space capped at ``MEMORY_CAP`` bytes, so a
mutant that grows a list without end fails them with ``MemoryError``
instead of taking the host's memory.  The script is a tool, not a gate:
its exit status is 0 whatever survives.  It needs only the standard
library and pytest.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SITES = 20
# the unmutated run's limit; a mutant's follows from that run's time,
# so that one which stops a search from ending costs little
TIMEOUT_S = 300
SLOWDOWN = 3
GRACE_S = 30
MEMORY_CAP = 2 << 30

SWAPS = {ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.LtE,
         ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.In: ast.NotIn, ast.NotIn: ast.In, ast.Is: ast.IsNot,
         ast.IsNot: ast.Is, ast.And: ast.Or, ast.Or: ast.And,
         ast.Add: ast.Sub, ast.Sub: ast.Add, ast.BitOr: ast.BitXor,
         ast.BitXor: ast.BitOr, ast.BitAnd: ast.BitOr,
         ast.LShift: ast.RShift, ast.RShift: ast.LShift}

SYMBOLS = {ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.LtE: "<=",
           ast.Gt: ">", ast.GtE: ">=", ast.In: "in", ast.NotIn: "not in",
           ast.Is: "is", ast.IsNot: "is not", ast.And: "and", ast.Or: "or",
           ast.Add: "+", ast.Sub: "-", ast.BitOr: "|", ast.BitXor: "^",
           ast.BitAnd: "&", ast.LShift: "<<", ast.RShift: ">>"}


def sites(tree: ast.Module) -> list[tuple[int, int, int, str]]:
    """Every mutation site as ``(line, node number in walk order,
    operand number, description)``; walk order is fixed for a given
    source."""
    def swap(op: ast.AST, suffix: str = "") -> str:
        return (f"{SYMBOLS[type(op)] + suffix!r} -> "
                f"{SYMBOLS[SWAPS[type(op)]] + suffix!r}")

    annotations = {id(inner) for node in ast.walk(tree)
                   for field in ("annotation", "returns")
                   if getattr(node, field, None) is not None
                   for inner in ast.walk(getattr(node, field))}
    found = []
    for number, node in enumerate(ast.walk(tree)):
        if id(node) in annotations:
            continue
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                found.append((node.lineno, number, i, swap(op)))
        elif isinstance(node, (ast.BoolOp, ast.BinOp)):
            if type(node.op) in SWAPS:
                found.append((node.lineno, number, 0, swap(node.op)))
        elif isinstance(node, ast.AugAssign) and type(node.op) in SWAPS:
            found.append((node.lineno, number, 0, swap(node.op, "=")))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            found.append((node.lineno, number, 0, "'not' dropped"))
    return found


def mutate(tree: ast.Module, target: int, operand: int) -> None:
    """Apply in place the mutation at node ``target`` of ``sites(tree)``,
    on its ``operand``-th comparison."""
    nodes = list(ast.walk(tree))
    node = nodes[target]
    if isinstance(node, ast.Compare):
        node.ops[operand] = SWAPS[type(node.ops[operand])]()
    elif isinstance(node, (ast.BoolOp, ast.BinOp, ast.AugAssign)):
        node.op = SWAPS[type(node.op)]()
    else:   # a `not`: its operand takes its place
        for parent in nodes:
            for field, value in ast.iter_fields(parent):
                if value is node:
                    setattr(parent, field, node.operand)
                elif isinstance(value, list) and node in value:
                    value[value.index(node)] = node.operand


def module_lines(arg: str) -> tuple[str, float, float]:
    """``MODULE`` or ``MODULE:FIRST-LAST`` as the module and the first
    and last line whose sites may be sampled."""
    module, colon, span = arg.rpartition(":")
    if not colon:
        return arg, 1, float("inf")
    first, dash, last = span.partition("-")
    if not (dash and first.isdigit() and last.isdigit()
            and 1 <= int(first) <= int(last)):
        raise argparse.ArgumentTypeError(
            f"{arg!r}: lines must read FIRST-LAST, 1 <= FIRST <= LAST")
    return module, int(first), int(last)


def cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def run_tests(copy: Path, limit: float) -> str:
    """``survived`` when the tier-1 tests of the copy pass, ``killed``
    when one fails and ``timeout`` when they run past ``limit`` seconds."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-W", "error",
             "-p", "no:cacheprovider", "tests"],
            cwd=copy, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=limit,
            preexec_fn=cap_memory)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "survived" if done.returncode == 0 else "killed"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="+", type=module_lines,
                        help="source files, relative to the checkout, each "
                        "optionally as MODULE:FIRST-LAST")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workdir", type=Path, required=True,
                        help="scratch directory for the copy; must not exist")
    args = parser.parse_args(argv)
    copy = args.workdir
    # the tests read files beside them, such as the README
    shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache"))
    began = time.monotonic()
    if run_tests(copy, TIMEOUT_S) != "survived":
        sys.exit("error: the unmutated copy fails its tests")
    limit = SLOWDOWN * (time.monotonic() - began) + GRACE_S
    print(f"time limit per mutant: {limit:.0f} s", flush=True)
    rng = random.Random(args.seed)
    for module, first, last in args.modules:
        path = copy / module
        source = path.read_text(encoding="utf-8")
        found = [site for site in sites(ast.parse(source))
                 if first <= site[0] <= last]
        for line, target, operand, what in sorted(
                rng.sample(found, min(SITES, len(found)))):
            tree = ast.parse(source)
            mutate(tree, target, operand)
            path.write_text(ast.unparse(tree), encoding="utf-8")
            try:
                verdict = run_tests(copy, limit)
            finally:
                path.write_text(source, encoding="utf-8")
            print(f"{verdict:8} {module}:{line}  {what}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
