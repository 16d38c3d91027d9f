"""Span tracing of the stockwave layers, installed from outside the package.

The tracer wraps each layer's public entry points by patching module and
class attributes. Spans (name, start, end, parent, op) live in memory in
flat arrays, so the garbage collector has no per-span object to walk, and
are written out once, when the run ends. A layer's self time is its spans'
durations minus the time covered by their child spans; since the program
is single-threaded, children nest inside their parent and the covered
time is the sum of the child durations.
"""
from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from array import array
from collections import Counter, defaultdict


class Tracer:
    """In-memory span and counter store; ``op`` tags everything recorded."""

    def __init__(self):
        self.names = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.ops = array("q")
        self.counts = defaultdict(Counter)
        self.op = -1
        self._stack = []
        self._origin = time.perf_counter()

    def open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.ends.append(0.0)
        self._stack.append(sid)
        self.starts.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.ends[sid] = time.perf_counter()
        self._stack.pop()

    def current(self) -> str | None:
        return self.names[self._stack[-1]] if self._stack else None

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[self.op][name] += amount

    def spans_of(self, ops) -> list:
        """Indices of the spans recorded under the given op ids."""
        wanted = set(ops)
        return [i for i, op in enumerate(self.ops) if op in wanted]

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid)

        return traced

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for i, name in enumerate(self.names):
                doc = {
                    "name": name,
                    "start": self.starts[i] - self._origin,
                    "end": self.ends[i] - self._origin,
                    "parent": self.parents[i],
                    "op": self.ops[i],
                }
                handle.write(json.dumps(doc) + "\n")


def _traced_records(tracer: Tracer, iterator, params):
    """Re-yield the evolve iterator; each resumption is one span."""
    while True:
        sid = tracer.open("evolution.iter")
        try:
            record = next(iterator)
        except StopIteration:
            return
        finally:
            tracer.close(sid)
        tracer.count("evolution.records")
        step = round((record.time - params.t0) / params.dt)
        counts = tracer.counts[tracer.op]
        counts["evolution.steps"] = max(counts["evolution.steps"], step)
        yield record


class Instrumentation:
    """The set of patches that put spans around every layer boundary."""

    def __init__(self, tracer: Tracer):
        cli, eigen, evolution, fourier, lattice, operators, scenario, states = (
            _module(name) for name in
            ("cli", "eigen", "evolution", "fourier", "lattice", "operators", "scenario", "states")
        )
        self.tracer = tracer
        modules = [m for n, m in sys.modules.items() if n == "stockwave" or n.startswith("stockwave.")]
        self._patches = []

        # An entry point the package no longer has is skipped, and its
        # metrics read 0, so a refactor cannot crash the traced run.
        def functions(module, attr, make):
            fn = getattr(module, attr, None)
            if fn is None:
                return
            wrapper = make(fn)
            # every module that bound the function by name sees the wrapper
            for owner in modules:
                for name, value in list(vars(owner).items()):
                    if value is fn:
                        self._patches.append((owner, name, fn, wrapper))

        def method(cls, attr, make):
            if cls is not None and attr in cls.__dict__:
                self._patches.append((cls, attr, cls.__dict__[attr], make(cls.__dict__[attr])))

        def span(name):
            return lambda fn: tracer.wrap(name, fn)

        functions(cli, "main", span("cli.main"))
        functions(scenario, "parse_scenario", span("scenario.parse"))
        functions(states, "gaussian_packet", span("states.build"))
        functions(states, "delta_state", span("states.build"))
        functions(evolution, "evolve", self._evolve_wrapper)
        functions(operators, "uncertainty_product_report", span("operators.report"))
        functions(operators, "commutator_spectrum", span("operators.spectrum"))
        functions(eigen, "hermitian_eigensystem", span("eigen.solve"))
        plan = getattr(fourier, "FourierPlan", None)
        method(plan, "apply", span("fourier.apply"))
        method(plan, "__init__", span("fourier.plan"))
        method(getattr(lattice, "LatticeFunction", None), "__post_init__",
               lambda fn: self._counted("lattice.construct", fn))
        for cls in _subclasses(getattr(evolution, "Potential", object)):
            method(cls, "evaluate", self._potential_wrapper)

    def _evolve_wrapper(self, fn):
        tracer = self.tracer

        @functools.wraps(fn)
        def traced(phi0, params, *args, **kwargs):
            sid = tracer.open("evolution.evolve")
            try:
                iterator = fn(phi0, params, *args, **kwargs)
            finally:
                tracer.close(sid)
            return _traced_records(tracer, iterator, params)

        return traced

    def _potential_wrapper(self, fn):
        tracer = self.tracer

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.current() == "evolution.potential":
                return fn(*args, **kwargs)  # a modulated potential's base
            tracer.count("evolution.potential.evals")
            sid = tracer.open("evolution.potential")
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(sid)

        return traced

    def _counted(self, name, fn):
        tracer = self.tracer

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.count(name)
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)


def _module(name):
    try:
        return importlib.import_module(f"stockwave.{name}")
    except ImportError:
        return None


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def op_profile(tracer: Tracer, spans: list, counts: Counter) -> dict:
    """Per-layer numbers of one op from its span indices and counters."""
    names, parents = tracer.names, tracer.parents
    duration = {i: tracer.ends[i] - tracer.starts[i] for i in spans}
    child_time = defaultdict(float)
    for i in spans:
        if parents[i] >= 0:
            child_time[parents[i]] += duration[i]
    self_s = Counter()
    calls = Counter()
    in_iter = from_cli = 0
    for i in spans:
        name = names[i]
        self_s[name] += duration[i] - child_time[i]
        calls[name] += 1
        if name == "fourier.apply":
            caller = parents[i]
            while caller >= 0 and names[caller].startswith("fourier."):
                caller = parents[caller]
            in_iter += caller >= 0 and names[caller] == "evolution.iter"
            from_cli += caller >= 0 and names[caller] == "cli.main"

    def layer(prefix):
        return sum(v for k, v in self_s.items() if k.split(".")[0] == prefix)

    steps = counts["evolution.steps"]
    records = counts["evolution.records"]
    return {
        "fourier.apply.calls": calls["fourier.apply"],
        "fourier.apply.self_s": self_s["fourier.apply"],
        "fourier.apply.calls_per_step": in_iter / steps if steps else 0.0,
        "fourier.apply.calls_from_cli": from_cli / records if records else 0.0,
        "evolution.steps": steps,
        "evolution.records": records,
        "evolution.potential.evals": counts["evolution.potential.evals"],
        "evolution.self_s": layer("evolution"),
        "operators.report.calls": calls["operators.report"],
        "operators.report.self_s": self_s["operators.report"],
        "operators.spectrum.self_s": self_s["operators.spectrum"],
        "eigen.solve.calls": calls["eigen.solve"],
        "eigen.solve.self_s": self_s["eigen.solve"],
        "scenario.parse.self_s": self_s["scenario.parse"],
        "states.build.self_s": self_s["states.build"],
        "cli.self_s": layer("cli"),
        "lattice.construct.calls": counts["lattice.construct"],
        "trace.spans_per_op": len(spans),
    }


def layer_metrics(tracer: Tracer, ops: list) -> dict:
    """Median over the given ops of each per-op layer number."""
    spans_by_op = defaultdict(list)
    for i in tracer.spans_of(ops):
        spans_by_op[tracer.ops[i]].append(i)
    profiles = [op_profile(tracer, spans_by_op[op], tracer.counts[op]) for op in ops]
    merged = {key: statistics.median(p[key] for p in profiles) for key in profiles[0]}

    def per_call(total_key, calls_key):
        calls = merged[calls_key]
        return merged[total_key] / calls * 1e6 if calls else 0.0

    merged["fourier.apply.us_per_call"] = per_call("fourier.apply.self_s", "fourier.apply.calls")
    merged["operators.report.us_per_call"] = per_call(
        "operators.report.self_s", "operators.report.calls"
    )
    merged["evolution.us_per_step"] = per_call("evolution.self_s", "evolution.steps")
    return merged


def plan_metrics(tracer: Tracer, ops: list) -> dict:
    """Transform plan builds and their time, summed over the given ops."""
    builds = [i for i in tracer.spans_of(ops) if tracer.names[i] == "fourier.plan"]
    return {
        "fourier.plan.builds": len(builds),
        "fourier.plan.build_s": sum(tracer.ends[i] - tracer.starts[i] for i in builds),
    }
