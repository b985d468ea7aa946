"""Benchmark for the ponfa toolkit.

    python3 perfbench/run.py --workload subset-search --seed 1 --seconds 30 --trace 0

Runs one workload (``subset-search``, ``class-reps`` or ``min-dfa``, see
``workloads.py``) in this process, against the sources in ``src/`` of
the checkout that holds this file.  One client, closed loop: the items
of the mix run back to back, in an order shuffled once per seed, in
whole passes for about ``--seconds``.  Every output is then checked
against its reference, outside the timed region.  Each query's time is
its best over the passes, and the metrics are taken over the queries
of the mix (see ``end_to_end``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` instead
runs untraced and traced passes over the mix in turn, two of each,
reports the per-module metrics of the first traced pass and the
tracing overhead, checks that every count is the same in both traced
passes, and writes the spans to
``perfbench/out/trace-<workload>-<seed>.csv``.
``--size tiny`` shrinks every family for the self-test.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit status 0
means every checked output was right; 1 means a verdict or witness was
wrong (or a traced count did not repeat), after printing the result;
any other failure, such as missing sources, exits non-zero without a
result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import logging
import os
import random
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import tracing  # noqa: E402  (sibling modules of this script)
import workloads  # noqa: E402
from check import Wrong  # noqa: E402

# set-up is repeated and its median reported, which steadies setup_s
SETUP_REPEATS = 9

# The iteration order of sets of strings follows the process's hash seed,
# and so does the order in which the program's searches visit states,
# hence where an early exit comes.  The script re-executes itself under
# this fixed hash seed, so that runs differ only in their inputs.
HASH_SEED = "0"

# On a shared host the speed of the CPU drifts by tens of percent over
# minutes, which moves every timing of a run alike.  A calibration
# slice, fixed pure-Python work of the kind the program does, is timed
# between items about every CAL_EVERY_S seconds, outside the timed
# queries.  Reported times are scaled by CAL_REFERENCE_MS over the 5th
# percentile of the run's slices, so they read as on a machine where
# the slice takes CAL_REFERENCE_MS, as it did where the benchmark was
# tuned (2 vCPUs of a shared x86-64 host, CPython 3.11).  A change to
# the program moves the metrics; a change in the machine's speed moves
# the slices too and cancels out.  The summary prints the unscaled
# metrics as well.
CAL_LOOPS = 1500
CAL_EVERY_S = 0.05
CAL_REFERENCE_MS = 0.6


def calibration_slice() -> float:
    """Time one calibration slice: frozensets built and counted in a
    dict, in an interpreted loop."""
    start = perf_counter()
    counts: dict = {}
    for i in range(CAL_LOOPS):
        key = frozenset((i % 97, i % 89, i % 83))
        counts[key] = counts.get(key, 0) + 1
    sorted(counts.values())
    return perf_counter() - start


def load_program():
    """Import ``ponfa`` afresh from this checkout's ``src``."""
    src = ROOT / "src"
    if not (src / "ponfa" / "__init__.py").is_file():
        sys.exit(f"error: no ponfa sources in {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "ponfa" or n.startswith("ponfa.")]:
        del sys.modules[name]
    package = importlib.import_module("ponfa")
    importlib.import_module("ponfa.cli")
    if Path(package.__file__).resolve().parent != (src / "ponfa").resolve():
        sys.exit(f"error: imported ponfa from {package.__file__}, not {src}")
    return package


def set_up(workload: str, seed: int, workdir: Path, tiny: bool):
    """Import the program, generate the inputs and write the input
    files.  Returns the program, the shuffled items and the time taken."""
    start = perf_counter()
    program = load_program()
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    items = workloads.WORKLOADS[workload](program, random.Random(seed),
                                          workdir, tiny)
    random.Random(f"order-{seed}").shuffle(items)
    return program, items, perf_counter() - start


@dataclass
class Sample:
    query: workloads.Query
    seconds: float
    key: tuple          # into the table of distinct outputs
    failed: bool
    wrong: bool = False


@dataclass
class Machine:
    """What a run records besides its queries: the calibration slices,
    in seconds, and the peak RSS after the first pass.  Later passes
    repeat the same queries, and the little they add to the high-water
    mark grows with their number."""
    slices: list = field(default_factory=list)
    first_pass_rss_mb: float = 0.0


def run_items(items, seconds, tracer=None, machine=None):
    """Run whole passes over the items, back to back, stopping at the
    pass boundary nearest to ``seconds``; exactly one pass when
    ``seconds`` is None.  Whole passes keep the mix the same in every
    run, whatever the seed's order.  With a ``machine``, calibration
    slices are timed between items.  Returns the samples, the distinct
    outputs per query and the wall time of each pass."""
    samples: list[Sample] = []
    outputs: dict = {}
    walls: list[float] = []
    start = last_slice = perf_counter()
    while True:
        began_pass = perf_counter()
        for item in items:
            if machine is not None and perf_counter() - last_slice >= CAL_EVERY_S:
                machine.slices.append(calibration_slice())
                last_slice = perf_counter()
            for query in item:
                if tracer is not None:
                    tracer.query += 1
                began = perf_counter()
                try:
                    output = query.call()
                    failed = query.failed(output)
                except Exception as error:  # a raise is a failed query
                    output, failed = f"{type(error).__name__}: {error}", True
                elapsed = perf_counter() - began
                key = (id(query), output)
                outputs.setdefault(key, (query, output, failed))
                samples.append(Sample(query, elapsed, key, failed))
                if query.then is not None and not failed:
                    query.then(output)
        walls.append(perf_counter() - began_pass)
        if machine is not None and len(walls) == 1:
            machine.first_pass_rss_mb = peak_rss_mb()
        wall = perf_counter() - start
        if seconds is None or wall + wall / len(walls) / 2 >= seconds:
            return samples, outputs, walls


def check_samples(samples, outputs) -> list[str]:
    """Check each distinct successful output once; mark the samples whose
    output is wrong as failed.  Returns the error messages."""
    verdicts: dict = {}
    for key, (query, output, failed) in outputs.items():
        if failed:
            continue
        try:
            query.check(output)
            verdicts[key] = None
        except Wrong as error:
            verdicts[key] = f"{query.label}: {error}"
        except Exception as error:  # an output the check cannot read
            verdicts[key] = f"{query.label}: check raised {error!r}"
    errors = []
    for sample in samples:
        message = verdicts.get(sample.key)
        if message and not sample.failed:
            sample.failed = sample.wrong = True
            errors.append(message)
    return sorted(set(errors))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def best_ms(samples) -> dict:
    """Each query's best time over the passes, in ms, and whether it
    failed in any pass.  The host's speed flips between states almost 2x
    apart for seconds at a time; a query's median over the passes follows
    whichever state held for most of the run, while its best time is the
    query's cost on the undisturbed machine, as ``timeit`` reports it."""
    best: dict = {}
    for s in samples:
        ms, failed = best.get(s.query, (float("inf"), False))
        best[s.query] = (min(ms, s.seconds * 1000), failed or s.failed)
    return best


def end_to_end(samples, setup_times, machine, scaled=True) -> dict:
    """query_p50_ms and query_p90_ms are percentiles, over the queries of
    the mix, of each query's best time; queries_per_s is the number of
    queries of the mix that completed over the sum of their best times,
    the rate of the closed loop at those times.  With ``scaled``, times
    are scaled to the reference calibration slice and rates inversely."""
    scale = 1.0
    if scaled:
        slice_ms = statistics.quantiles(machine.slices, n=20)[0] * 1000
        scale = CAL_REFERENCE_MS / slice_ms
    best = best_ms(samples)
    times = [ms * scale for ms, _ in best.values()]
    completed = sum(not failed for _, failed in best.values())
    return {
        "setup_s": (statistics.median(setup_times) * scale, "s"),
        "queries_per_s": (completed / sum(times) * 1000, "1/s"),
        "query_p50_ms": (statistics.median(times), "ms"),
        "query_p90_ms": (statistics.quantiles(times, n=10)[-1], "ms"),
        "peak_rss_mb": (machine.first_pass_rss_mb, "MiB"),
    }


def summary(workload, seed, samples, wall, metrics, unscaled=None,
            machine=None) -> None:
    """Human-readable report: every metric with its unit, the sample
    count behind the latency percentiles, failed_frac, the calibration
    and the unscaled metrics, and a line per query family."""
    failed = sum(s.failed for s in samples)
    distinct = len(best_ms(samples))
    print(f"{workload} seed {seed}: {len(samples)} queries in {wall:.2f} s, "
          f"{len(samples) // distinct} passes over {distinct} distinct queries "
          f"(the latency samples)")
    print(f"  {'failed_frac':<44} {failed / len(samples):>14.6f} ratio "
          f"({failed} of {len(samples)})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6f} {unit}")
    if unscaled is not None:
        slices = sorted(s * 1000 for s in machine.slices)
        print(f"  calibration: {len(slices)} slices, 5th percentile "
              f"{statistics.quantiles(slices, n=20)[0]:.4f} ms, median "
              f"{statistics.median(slices):.4f} ms, reference "
              f"{CAL_REFERENCE_MS} ms; unscaled:")
        for name, (value, unit) in unscaled.items():
            print(f"    {name:<42} {value:>14.6f} {unit}")
    by_label: dict = {}
    for s in samples:
        by_label.setdefault(s.query.label, []).append(s)
    for label, group in sorted(by_label.items()):
        print(f"  [{label}] n={len(group)} "
              f"median={statistics.median(x.seconds for x in group) * 1000:.3f} ms "
              f"failed={sum(x.failed for x in group)}")


def traced(items, workload, seed):
    """Untraced and traced passes in turn, two of each.  Returns the
    samples and distinct outputs of all four, the per-module metrics of
    the first traced pass, and the counts that did not repeat in the
    second.  The overhead compares the traced walls with the untraced
    ones, so both sides share warm-up and drift."""
    samples, outputs, spent, results = [], {}, {True: 0.0, False: 0.0}, []
    for tracer in (None, tracing.Tracer(), None, tracing.Tracer()):
        if tracer is not None:
            tracer.install()
        try:
            more, more_outputs, walls = run_items(items, None, tracer)
        finally:
            if tracer is not None:
                tracer.remove()
        samples += more
        outputs.update(more_outputs)
        spent[tracer is not None] += walls[0]
        if tracer is not None:
            results.append((tracer, tracer.metrics()))
    (first, metrics), (_, again) = results
    metrics["trace.overhead_frac"] = spent[True] / spent[False] - 1
    units = dict(tracing.metric_names())
    unstable = [name for name, unit in units.items()
                if unit == "count" and metrics[name] != again[name]]
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    first.write(out / f"trace-{workload}-{seed}.csv")
    return samples, outputs, {name: (metrics[name], unit)
                              for name, unit in units.items()}, unstable


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    # the library logs its engine fallbacks and cut decisions as warnings,
    # which would otherwise go to stderr on every such query
    logging.getLogger("ponfa").addHandler(logging.NullHandler())

    workdir = HERE / "out" / f"inputs-{args.workload}-{args.seed}"
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            _, items, seconds = set_up(args.workload, args.seed, workdir,
                                       args.size == "tiny")
            setup_times.append(seconds)
        if args.trace:
            samples, outputs, metrics, unstable = traced(
                items, args.workload, args.seed)
            wall = sum(s.seconds for s in samples)
            unscaled = machine = None
        else:
            machine = Machine()
            samples, outputs, walls = run_items(items, args.seconds,
                                                machine=machine)
            while len(machine.slices) < 20:   # a very short run
                machine.slices.append(calibration_slice())
            wall = sum(walls)
            unstable = []
        errors = check_samples(samples, outputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not args.trace:   # after the check, so a wrong output counts as failed
        metrics = end_to_end(samples, setup_times, machine)
        unscaled = end_to_end(samples, setup_times, machine, scaled=False)

    summary(args.workload, args.seed, samples, wall, metrics, unscaled,
            machine)
    for message in errors:
        print(f"WRONG {message}", file=sys.stderr)
    for name in unstable:
        print(f"COUNT DID NOT REPEAT {name}", file=sys.stderr)
    correct = not errors and not unstable
    print(json.dumps({
        "correct": correct,
        "attempted": len(samples),
        "failed": sum(s.failed for s in samples),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
