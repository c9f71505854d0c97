"""Timing spans around mvkit's public functions, for the traced run only.

`Tracer.install()` replaces each listed function with a wrapper in every
`mvkit` module namespace that binds it by name (so `mvkit.cli`,
`mvkit.ideals`, `mvkit.completion`, ... all call the wrapper), and wraps the
two `SymbolicElement` methods on the class.  `uninstall()` puts the originals
back.  Each call records one span (name, start, end, parent span, operation
id) in memory; `metrics()` turns them into per-layer numbers, and
`write_spans()` dumps them as JSON lines once the run is over.

A span's self time is its duration minus the durations of its direct child
spans, so private helpers (the thread search, the lazy derived tables, ...)
count toward the public function that called them.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = {
    "cli": ("run", "parse_algebra_document"),
    "finite": ("from_tables", "product", "decompose", "boolean_center", "center_algebra",
               "are_isomorphic"),
    "ideals": ("all_ideals", "generated_ideal", "classify", "is_ideal", "quotient",
               "maximal_decomposition", "is_regular"),
    "completion": ("build_inverse_system", "profinite_completion",
                   "verify_center_correspondence", "verify_center_completion_commute"),
    "symbolic": ("truncate", "maximal_ideal_census", "decide_strongly_complete",
                 "completion_report", "ultrafilter_limit", "in_kernel",
                 "SymbolicElement.oplus", "SymbolicElement.neg"),
}
COMMANDS = ("verify", "decompose", "center", "ideals", "quotient", "complete",
            "decide-sc", "census", "limit")
COUNTERS = ("finite.table_bytes", "finite.carrier_elems", "ideals.ideal_count",
            "completion.transitions", "completion.threads", "cli.report_bytes")


def _algebra(result):
    """The algebra inside a result of from_tables/product (itself) or quotient/center_algebra."""
    return result[0] if isinstance(result, tuple) else result


def _count_algebra(tracer, result):
    alg = _algebra(result)
    tracer.counts["finite.table_bytes"] += alg.oplus_table.nbytes
    tracer.counts["finite.carrier_elems"] += alg.size


# per-function extra accounting, run after the call returns normally
HOOKS = {
    "finite.from_tables": _count_algebra,
    "finite.product": _count_algebra,
    "finite.center_algebra": _count_algebra,
    "ideals.quotient": _count_algebra,
    "ideals.all_ideals": lambda t, res: t.add("ideals.ideal_count", len(res)),
    "completion.build_inverse_system": lambda t, res: t.add("completion.transitions", len(res.transitions)),
    "completion.profinite_completion": lambda t, res: t.add("completion.threads", res.thread_count),
}


def metric_names():
    names = []
    for layer, funcs in LAYERS.items():
        for func in funcs:
            names += [f"{layer}.{func}.calls", f"{layer}.{func}.self_s"]
    names += [f"{layer}.self_s" for layer in LAYERS]
    for cmd in COMMANDS:
        names += [f"cli.{cmd}.s", f"cli.{cmd}.calls"]
    return names + list(COUNTERS)


def metric_unit(name):
    return "s" if name.endswith(("self_s", ".s")) else \
        "bytes" if name.endswith("bytes") else "count"


class Tracer:
    def __init__(self):
        self.spans = []          # (name, start, end, parent id, op id); id = position
        self.stack = []
        self.op_id = None
        self.counts = defaultdict(int)
        self.times = defaultdict(float)
        self._patches = []       # (namespace, attribute, original)

    def add(self, key, value):
        self.counts[key] += value

    def command(self, cmd, dt):
        self.counts[f"cli.{cmd}.calls"] += 1
        self.times[f"cli.{cmd}.s"] += dt

    def _wrap(self, key, fn):
        hook = HOOKS.get(key)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[sid] = (key, t0, t1, parent, self.op_id)
                if key == "cli.run":      # counted whether or not the command raised
                    self.command(args[0][0], t1 - t0)
            if hook is not None:
                hook(self, result)
            return result
        return wrapper

    def install(self):
        mods = {name: mod for name, mod in sys.modules.items()
                if (name == "mvkit" or name.startswith("mvkit.")) and mod is not None}
        for layer, funcs in LAYERS.items():
            home = mods[f"mvkit.{layer}"]
            for func in funcs:
                key = f"{layer}.{func}"
                if "." in func:
                    cls_name, meth = func.split(".")
                    cls = getattr(home, cls_name)
                    self._patch(cls, meth, self._wrap(key, cls.__dict__[meth]))
                    continue
                original = getattr(home, func)
                wrapper = self._wrap(key, original)
                for mod in mods.values():
                    if getattr(mod, func, None) is original:
                        self._patch(mod, func, wrapper)

    def _patch(self, namespace, attr, value):
        self._patches.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def uninstall(self):
        while self._patches:
            namespace, attr, original = self._patches.pop()
            setattr(namespace, attr, original)

    def metrics(self, passes):
        """Per-pass means of every per-layer metric over `passes` traced passes."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for sid, (name, t0, t1, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (t1 - t0) - child[sid]
        out = {}
        for layer, funcs in LAYERS.items():
            for func in funcs:
                key = f"{layer}.{func}"
                out[f"{key}.calls"] = calls[key] / passes
                out[f"{key}.self_s"] = self_s[key] / passes
            out[f"{layer}.self_s"] = sum(self_s[f"{layer}.{f}"] for f in funcs) / passes
        for cmd in COMMANDS:
            out[f"cli.{cmd}.s"] = self.times[f"cli.{cmd}.s"] / passes
            out[f"cli.{cmd}.calls"] = self.counts[f"cli.{cmd}.calls"] / passes
        for key in COUNTERS:
            out[key] = self.counts[key] / passes
        return out

    def write_spans(self, path, origin):
        """One JSON object per span; times in seconds since `origin`."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, t0, t1, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": round(t0 - origin, 7),
                                     "end": round(t1 - origin, 7), "parent": parent,
                                     "op": op}) + "\n")
