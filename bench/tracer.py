"""Spans around the public functions of paybid's modules, from outside src/.

`Tracer.install` replaces every public function of each layer module with a
wrapper that records a span (name, start, end, parent) and restores the
originals on `uninstall`. The wrapper is bound in every paybid module that
holds the function, so calls between modules and inside a module (chain rows
built per step, beta helpers called from closures) are seen too.

Spans live in one flat array of int64 (name id, start ns, end ns, parent id)
and are written out once, when the run ends. A layer's self time is the sum of
its spans' durations minus the durations of their direct children; spans of
one thread nest, so the children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

# The layer modules, in import order; start-up (`import paybid`) is a layer too.
LAYERS = ("core_model", "markov_engine", "asymmetry_models", "simulator",
          "trace_analytics", "cli")


def public_functions(module) -> list:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return [n for n in names
            if inspect.isfunction(getattr(module, n, None))
            and getattr(module, n).__module__ == module.__name__]


class Tracer:
    def __init__(self):
        self.names: list = []          # name id -> (layer, function)
        self._ids: dict = {}
        self.spans = array("q")        # flat (name id, start ns, end ns, parent)
        self.stack = [-1]
        self.recurrence_steps = 0      # steps of every evolve_recurrence result
        self._undo: list = []

    def name_id(self, layer: str, name: str) -> int:
        key = (layer, name)
        if key not in self._ids:
            self._ids[key] = len(self.names)
            self.names.append(key)
        return self._ids[key]

    def add_span(self, layer: str, name: str, start_ns: int, end_ns: int) -> int:
        """Record a finished span under the currently open one."""
        sid = len(self.spans) // 4
        self.spans.extend((self.name_id(layer, name), start_ns, end_ns, self.stack[-1]))
        return sid

    def span(self, layer: str, name: str):
        return _SpanContext(self, self.name_id(layer, name))

    def wrap(self, layer: str, name: str, fn):
        nid = self.name_id(layer, name)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns
        count_steps = (layer, name) == ("markov_engine", "evolve_recurrence")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans) >> 2
            spans.extend((nid, clock(), 0, stack[-1]))
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[4 * sid + 2] = clock()
            if count_steps:
                self.recurrence_steps += len(result.steps)
            return result

        return traced

    def install(self) -> None:
        importlib.import_module("paybid.cli")  # imports every layer module
        holders = [m for name, m in sys.modules.items()
                   if m is not None and (name == "paybid" or name.startswith("paybid."))]
        for layer in LAYERS:
            module = sys.modules[f"paybid.{layer}"]
            for name in public_functions(module):
                original = getattr(module, name)
                traced = self.wrap(layer, name, original)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, traced)
                            self._undo.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()

    def merge(self, payload: dict) -> None:
        """Adopt another process's spans under the currently open span."""
        ids = [self.name_id(layer, name) for layer, name in payload["names"]]
        base = len(self.spans) // 4
        parent = self.stack[-1]
        data = payload["spans"]
        for i in range(0, len(data), 4):
            p = data[i + 3]
            self.spans.extend((ids[data[i]], data[i + 1], data[i + 2],
                               parent if p < 0 else base + p))
        self.recurrence_steps += payload["recurrence_steps"]

    def call_count(self, layer: str, name: str) -> int:
        nid = self._ids.get((layer, name))
        s = self.spans
        return sum(1 for i in range(0, len(s), 4) if s[i] == nid)

    def self_seconds(self) -> dict:
        s = self.spans
        layer_of = [self.names[s[i]][0] for i in range(0, len(s), 4)]
        out: dict = {}
        for k, i in enumerate(range(0, len(s), 4)):
            dur = s[i + 2] - s[i + 1]
            out[layer_of[k]] = out.get(layer_of[k], 0) + dur
            parent = s[i + 3]
            if parent >= 0:
                out[layer_of[parent]] = out.get(layer_of[parent], 0) - dur
        return {layer: ns / 1e9 for layer, ns in out.items()}

    def payload(self) -> dict:
        return {"names": self.names, "spans": self.spans.tolist(),
                "recurrence_steps": self.recurrence_steps}

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.payload(), separators=(",", ":")), encoding="utf-8")


class _SpanContext:
    def __init__(self, tracer: Tracer, nid: int):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        t = self.tracer
        self.sid = len(t.spans) // 4
        t.spans.extend((self.nid, time.perf_counter_ns(), 0, t.stack[-1]))
        t.stack.append(self.sid)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.stack.pop()
        t.spans[4 * self.sid + 2] = time.perf_counter_ns()
        return False
