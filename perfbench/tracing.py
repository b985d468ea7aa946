"""Per-module spans for the traced run.

``Tracer.install`` wraps each target function at every place it is
bound: its defining module and every ``ponfa`` module that imported it
(``ponfa.decision.enumerate_minimal_representatives`` as well as
``ponfa.subseq.enumerate_minimal_representatives``), so calls between
modules and inside one module are both seen.  ``remove`` puts the
originals back.

A span is one call; for a generator it is the time spent inside its
``next()`` calls.  Self time is the span's duration minus the time its
child spans cover.  Spans are kept in memory as tuples and written out
once the run ends.
"""

from __future__ import annotations

import sys
from time import perf_counter

# module.function -> extra count stats beyond ``calls`` and ``self_s``
TARGETS = {
    "cli.main": (),
    "core.parse_automaton": (),
    "core.serialize_automaton": (),
    "core.classify": (),
    "core.complete_automaton": (),
    "core.depth": (),
    "core.accepts": (),
    "decision.is_universal": (),
    "decision.includes": (),
    "decision.equivalent": (),
    "reductions.cnf_to_rponfa": ("states_out",),
    "reductions.dtm_to_ponfa": ("states_out",),
    "subseq.enumerate_minimal_representatives": ("yielded",),
    "subseq.class_dfa": (),
    "subseq.sub_k": (),
    "ops.product_intersection": (),
    "ops.is_empty": (),
    "ops.determinize": ("states_out",),
    "ops.minimize": ("states_in", "states_out"),
    "ops.complement": (),
    "ops.count_language_size": (),
    "triviality.is_k_r_trivial": (),
    "triviality.is_r_trivial": (),
    "dre.is_dre_definable": (),
    "extremal.verify_extremal": (),
    "extremal.build_a": (),
    "extremal.build_w": (),
}
GENERATORS = {"subseq.enumerate_minimal_representatives"}
DECISIONS = {"decision.is_universal", "decision.includes", "decision.equivalent"}
# accepts is split by the module of the span that called it
ACCEPTS_PARENTS = ("decision", "cli")


def metric_names() -> list[tuple[str, str]]:
    """Every per-module metric as ``(name, unit)``, in report order."""
    names = []
    for target, extra in TARGETS.items():
        names += [(f"{target}.calls", "count"), (f"{target}.self_s", "s")]
        names += [(f"{target}.{stat}", "count") for stat in extra]
    for parent in ACCEPTS_PARENTS:
        names += [(f"core.accepts.calls_from_{parent}", "count"),
                  (f"core.accepts.self_s_from_{parent}", "s")]
    names += [("decision.holds_true", "count"), ("decision.holds_false", "count"),
              ("decision.witness_len", "count"), ("trace.overhead_frac", "ratio")]
    return names


def _size(automaton) -> int:
    return len(automaton.states)


class Tracer:
    def __init__(self):
        self.names = list(TARGETS)
        self.spans: list[tuple] = []   # (query, span, parent, name, start, dur, self)
        self.counts = {f"{t}.{s}": 0 for t, extra in TARGETS.items() for s in extra}
        self.counts.update({"decision.holds_true": 0, "decision.holds_false": 0,
                            "decision.witness_len": 0})
        self.query = 0
        self._stack: list[list] = []   # frames: [name index, span id, child time]
        self._next_span = 0
        self._restore: list[tuple] = []

    # ------------------------------------------------------------ spans
    def _open(self, index: int) -> list:
        self._next_span += 1
        frame = [index, self._next_span, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, parent, start: float, end: float) -> None:
        self._stack.pop()
        duration = end - start
        if parent is not None:
            parent[2] += duration
        self.spans.append((self.query, frame[1],
                           parent[1] if parent is not None else 0, frame[0],
                           start, duration, duration - frame[2]))

    def _wrap(self, target: str, fn):
        index = self.names.index(target)
        counts = self.counts
        post = None
        if target in ("reductions.cnf_to_rponfa", "reductions.dtm_to_ponfa",
                      "ops.determinize"):
            key = f"{target}.states_out"

            def post(args, result):
                counts[key] += _size(result)
        elif target == "ops.minimize":
            def post(args, result):
                counts["ops.minimize.states_in"] += _size(args[0])
                counts["ops.minimize.states_out"] += _size(result)
        elif target in DECISIONS:
            def post(args, result):
                counts["decision.holds_true" if result.holds
                       else "decision.holds_false"] += 1
                counts["decision.witness_len"] += len(result.witness or ())

        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            frame = self._open(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, parent, start, perf_counter())
            if post is not None:
                post(args, result)
            return result

        def generator_wrapper(*args, **kwargs):
            return _TracedIterator(self, index, fn(*args, **kwargs))

        return generator_wrapper if target in GENERATORS else wrapper

    # ------------------------------------------------------ installation
    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "ponfa" or name.startswith("ponfa."))]
        for target in TARGETS:
            module_name, function = target.split(".")
            original = getattr(sys.modules[f"ponfa.{module_name}"], function)
            wrapper = self._wrap(target, original)
            for module in modules:
                for attribute, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attribute, wrapper)
                        self._restore.append((module, attribute, original))

    def remove(self) -> None:
        for module, attribute, original in reversed(self._restore):
            setattr(module, attribute, original)
        self._restore.clear()

    # ----------------------------------------------------------- results
    def metrics(self) -> dict[str, float]:
        """Per-module calls, self time and counts over all spans."""
        out = {f"{t}.{stat}": 0 for t in TARGETS for stat in ("calls", "self_s")}
        for parent in ACCEPTS_PARENTS:
            out[f"core.accepts.calls_from_{parent}"] = 0
            out[f"core.accepts.self_s_from_{parent}"] = 0.0
        name_of_span = {span[1]: span[3] for span in self.spans}
        accepts = self.names.index("core.accepts")
        for _, span_id, parent_id, index, _, _, self_time in self.spans:
            name = self.names[index]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += self_time
            if index == accepts and parent_id in name_of_span:
                module = self.names[name_of_span[parent_id]].split(".")[0]
                if module in ACCEPTS_PARENTS:
                    out[f"core.accepts.calls_from_{module}"] += 1
                    out[f"core.accepts.self_s_from_{module}"] += self_time
        out.update(self.counts)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("query,span,parent,name,start_s,duration_s,self_s\n")
            for query, span, parent, index, start, duration, self_time in self.spans:
                handle.write(f"{query},{span},{parent},{self.names[index]},"
                             f"{start:.9f},{duration:.9f},{self_time:.9f}\n")


_END = object()


class _TracedIterator:
    """Generator stand-in: one span whose duration is the sum of the
    time spent in ``next()``, recorded when the generator finishes or
    is dropped.  Its parent is the span that created it."""

    def __init__(self, tracer: Tracer, index: int, inner):
        self.tracer, self.index, self.inner = tracer, index, inner
        self.parent = tracer._stack[-1] if tracer._stack else None
        tracer._next_span += 1
        self.span = tracer._next_span
        self.query = tracer.query
        self.start = None
        self.duration = 0.0
        self.children = 0.0
        self.done = False

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self.tracer
        frame = [self.index, self.span, 0.0]
        tracer._stack.append(frame)
        start = perf_counter()
        if self.start is None:
            self.start = start
        try:
            value = next(self.inner, _END)
        finally:
            elapsed = perf_counter() - start
            tracer._stack.pop()
            self.duration += elapsed
            self.children += frame[2]
            if self.parent is not None:
                self.parent[2] += elapsed
        if value is _END:
            self._finish()
            raise StopIteration
        tracer.counts["subseq.enumerate_minimal_representatives.yielded"] += 1
        return value

    def _finish(self) -> None:
        if self.done:
            return
        self.done = True
        parent = self.parent[1] if self.parent is not None else 0
        self.tracer.spans.append((self.query, self.span, parent, self.index,
                                  self.start or 0.0, self.duration,
                                  self.duration - self.children))

    def __del__(self):
        self._finish()
