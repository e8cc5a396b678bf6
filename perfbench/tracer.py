"""Span tracing of the ``screenlimits`` modules from outside the package.

``Tracer.install`` wraps every public function of each traced module and
rebinds the wrapper under every name that refers to the original in any
``screenlimits`` module namespace (``lifetime.poisson_tail`` as well as
``tails.poisson_tail``). Spans are kept in memory; ``uninstall`` restores the
originals. Self time is a span's duration minus the durations of its
children, which nest in the same thread.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
from dataclasses import dataclass
from time import perf_counter_ns

MODULES = ("cli", "scenarios", "tableio", "tails", "system", "lifetime", "cohorts",
           "bayes", "effdim", "simulate", "datasets", "golden")

# Calls whose arguments (or result) the metrics need after the run.
KEEP_ARGS = {"tableio.write_text", "tableio.write_json", "simulate.simulate_per_person",
             "simulate.simulate_system", "simulate.simulate_correlated"}
# Private helper traced only for its result: the list of chunk sizes.
CHUNK_HELPER = ("simulate", "_chunk_sizes")


@dataclass(slots=True)
class Span:
    sid: int
    name: str
    start: int
    end: int
    parent: int | None
    op: int
    extra: object = None

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._bindings: list | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, keep: str | None):
        spans, ids, stack_of, tracer = self.spans, self._ids, self._stack, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                extra = (args, kwargs) if keep == "args" else len(result or ()) if keep == "len" else None
                spans.append(Span(sid, name, start, end, parent, tracer.op, extra))

        return wrapper

    def _plan(self) -> list:
        """(module, attribute, original, wrapper) for every traced binding."""
        targets = {}
        for short in MODULES:
            mod = sys.modules[f"screenlimits.{short}"]
            for attr, fn in inspect.getmembers(mod, inspect.isfunction):
                if fn.__module__ == mod.__name__ and not attr.startswith("_"):
                    name = f"{short}.{attr}"
                    targets[id(fn)] = (fn, name, "args" if name in KEEP_ARGS else None)
        mod = sys.modules[f"screenlimits.{CHUNK_HELPER[0]}"]
        helper = getattr(mod, CHUNK_HELPER[1], None)
        if helper is not None:
            targets[id(helper)] = (helper, ".".join(CHUNK_HELPER), "len")
        wrappers = {key: self._wrap(name, fn, keep) for key, (fn, name, keep) in targets.items()}
        plan = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "screenlimits" or mod_name.startswith("screenlimits.")):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and value is targets[id(value)][0]:
                    plan.append((mod, attr, value, wrappers[id(value)]))
        return plan

    def install(self) -> None:
        if self._bindings is None:
            self._bindings = self._plan()
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._bindings or ():
            setattr(mod, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.sid, "name": s.name, "start_ns": s.start,
                                     "end_ns": s.end, "parent": s.parent, "op": s.op}) + "\n")


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> duration minus the time its direct children cover (ns)."""
    child = {}
    for s in spans:
        if s.parent is not None:
            child[s.parent] = child.get(s.parent, 0) + (s.end - s.start)
    return {s.sid: (s.end - s.start) - child.get(s.sid, 0) for s in spans}
