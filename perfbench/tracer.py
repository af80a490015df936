"""Span tracing of owllab's public functions, from outside the package.

`Tracer.install` rebinds module attributes such as `owllab.matrix.multiply`
to timing wrappers. owllab calls across and within modules through module
globals (`matrix.multiply`, `tdfa.lcomp`, `is_idempotent -> multiply`), so
the wrappers see those calls too. Spans (name, start, end, parent) are kept
in flat arrays and summarised when the traced job ends: a span's self time
is its duration minus the durations of its children, which on one thread
are disjoint and lie inside it.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter

WRAPPED = {
    "matrix": ("multiply", "identity"),
    "owl": ("connectivity", "is_live", "nfa_live"),
    "tdfa": ("decide", "run_on_tape", "comp", "lcomp", "rcomp"),
    "exits": ("traversal_map", "exit_size", "descend_generic"),
    "sequence": ("build_sequence", "verify_sequence"),
    "adversary": ("exit_chain", "pump"),
    "cli": ("main",),
}

# Functions returning a `Computation`; the outermost of a nest is one run.
RUNS = ("tdfa.run_on_tape", "tdfa.comp", "tdfa.lcomp", "tdfa.rcomp")

ROOT = "job"


def self_times(start, end, parent) -> list[int]:
    """Per-span duration minus the durations of its direct children."""
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


def check_spans(start, end, parent) -> list[str]:
    """Structural faults: spans outside the root, children outside their
    parent, or self times that do not add up to the root's duration."""
    faults = []
    roots = [i for i, p in enumerate(parent) if p < 0]
    if roots != [0]:
        faults.append(f"expected one root span at index 0, found {roots[:5]}")
        return faults
    for i, p in enumerate(parent):
        if p >= 0 and not (start[p] <= start[i] <= end[i] <= end[p]):
            faults.append(f"span {i} lies outside its parent {p}")
            break
    if sum(self_times(start, end, parent)) != end[0] - start[0]:
        faults.append("self times do not add up to the root span")
    return faults


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.name = array("l")
        self.stack = [-1]
        self.counters: Counter = Counter()
        self._ids: dict[str, int] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def install(self) -> None:
        """Wrap every function in WRAPPED; call once, before the root span."""
        import importlib

        mods = {m: importlib.import_module(f"owllab.{m}") for m in WRAPPED}
        run_ids = {self._id(n) for n in RUNS}
        counters = self.counters
        names, parent = self.name, self.parent

        def on_run(idx, args, comp):
            if names[parent[idx]] not in run_ids:
                counters["tdfa.runs"] += 1
                counters["tdfa.steps"] += comp.steps
                counters["tdfa.loops"] += comp.outcome == "loop"

        def on_connectivity(idx, args, result):
            counters["owl.connectivity.symbols"] += len(args[0])

        def on_verify(idx, args, report):
            counters["sequence.checks_run"] += report.checks_run

        def on_pump(idx, args, result):
            counters["adversary.counterexamples"] += isinstance(
                result, mods["adversary"].Counterexample
            )

        observers = dict.fromkeys(RUNS, on_run)
        observers["owl.connectivity"] = on_connectivity
        observers["sequence.verify_sequence"] = on_verify
        observers["adversary.pump"] = on_pump
        for mod, funcs in WRAPPED.items():
            for fn in funcs:
                full = f"{mod}.{fn}"
                setattr(mods[mod], fn, self._wrap(getattr(mods[mod], fn), full, observers.get(full)))
        self._symbol_matrix = mods["owl"].symbol_matrix

    def _wrap(self, fn, name, observe):
        nid = self._id(name)
        start, end, parent, names, stack = self.start, self.end, self.parent, self.name, self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1])
            names.append(nid)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(idx, args, result)
            return result

        return wrapper

    def begin(self) -> None:
        """Open the root span; every wrapped call after this nests in it."""
        self._cache0 = self._symbol_matrix.cache_info()
        self.parent.append(-1)
        self.name.append(self._id(ROOT))
        self.end.append(0)
        self.stack.append(0)
        self.start.append(time.perf_counter_ns())

    def finish(self) -> None:
        self.end[0] = time.perf_counter_ns()
        self.stack.pop()
        self._cache1 = self._symbol_matrix.cache_info()

    def summary(self) -> dict:
        """Per-function calls and self seconds, layer counters, and any
        structural faults of the recorded spans."""
        own = self_times(self.start, self.end, self.parent)
        calls = Counter()
        self_ns = Counter()
        under = Counter()  # (parent name, child name) -> spans
        names, parent = self.name, self.parent
        for i, nid in enumerate(names):
            calls[nid] += 1
            self_ns[nid] += own[i]
            if parent[i] >= 0:
                under[names[parent[i]], nid] += 1
        label = self.names
        hits = self._cache1.hits - self._cache0.hits
        misses = self._cache1.misses - self._cache0.misses
        ids = self._ids
        descend = ids["exits.descend_generic"]
        return {
            "calls": {label[k]: v for k, v in calls.items() if label[k] != ROOT},
            "self_s": {label[k]: v / 1e9 for k, v in self_ns.items()},
            "counters": dict(
                self.counters,
                **{
                    "exits.extensions_scanned": under[descend, ids["owl.connectivity"]],
                    "exits.candidates_simulated": under[descend, ids["exits.exit_size"]],
                    "owl.symbol_matrix.hits": hits,
                    "owl.symbol_matrix.misses": misses,
                },
            ),
            "faults": check_spans(self.start, self.end, self.parent),
        }
