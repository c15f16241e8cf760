"""In-memory span tracer for kquad's public functions.

`Tracer.install` wraps every public function defined in the traced layers
(`kquad.kernels`, `sampling`, `numerics`, `quadrature`, `greedy`, `bench`,
`cli`) and puts the wrapper on every `kquad` module attribute that holds the
function, because the modules import each other's functions by name.
`uninstall` puts the originals back, so untraced rounds run the program as
shipped.  No program file is changed.

Each call records a span: id, name, start, end, parent span and thread.  A
span opened in a worker thread with no open span of its own takes the main
thread's innermost open span as its parent, so the sweep's thread pool is
charged to `bench.run_experiment`.  Self time is a span's duration minus the
part of it that its child spans cover.

Beside the spans a few counters are kept where the work happens:
`kernels.gram.entries` (kernel values produced), `kernels.gram.repeat_calls`
and `quadrature.target_moments.repeat_calls` (calls whose array arguments
equal those of an earlier call within the same `kquad` command) and
`greedy.greedy_select.steps` (greedy picks made).
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("kernels", "sampling", "numerics", "quadrature", "greedy", "bench", "cli")

SPAN_FIELDS = ("id", "name", "start", "end", "parent", "thread", "phase")

SPAN_STATS = ("calls", "s", "self_s")


def _digest(array):
    if array is None:
        return None
    a = np.ascontiguousarray(array, dtype=np.float64)
    return a.shape, hashlib.blake2b(a.tobytes(), digest_size=16).digest()


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.phase = "setup"
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._seen = set()
        self._main_stack = None
        self._patched = []

    # -- installation -----------------------------------------------------

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"kquad.{layer}")
            for name, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")
                ):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        for modname, module in list(sys.modules.items()):
            if modname != "kquad" and not modname.startswith("kquad."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, obj))
        self._main_stack = self._stack()

    def uninstall(self):
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        signature = inspect.signature(fn)
        probe = _PROBES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif stack is not self._main_stack and self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = None
            if name == "cli.main" and parent is None:
                with self._lock:
                    self._seen.clear()  # repeat counters are per kquad command
            span = next(self._ids)
            stack.append(span)
            start = time.perf_counter()
            try:
                if probe is None:
                    return fn(*args, **kwargs)
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                result = fn(*args, **kwargs)
                probe(self, bound.arguments, result)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(
                    (span, name, start, end, parent, threading.get_ident(), self.phase)
                )

        return wrapper

    # -- counters ---------------------------------------------------------

    def _count(self, metric, amount=1):
        with self._lock:
            self.counts[(self.phase, metric)] += amount

    def _count_repeat(self, name, key):
        with self._lock:
            if key in self._seen:
                self.counts[(self.phase, f"{name}.repeat_calls")] += 1
            else:
                self._seen.add(key)

    # -- results ----------------------------------------------------------

    def layer_totals(self):
        """{(phase, name): [calls, seconds, self seconds]} over all spans."""
        children = defaultdict(list)
        for span in self.spans:
            if span[4] is not None:
                children[span[4]].append((span[2], span[3]))
        totals = defaultdict(lambda: [0, 0.0, 0.0])
        for sid, name, start, end, _, _, phase in self.spans:
            covered, reach = 0.0, start
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, reach), min(c1, end)
                if c1 > c0:
                    covered += c1 - c0
                    reach = c1
            row = totals[(phase, name)]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - covered
        return totals

    def per_layer(self, names, rounds):
        """Each named metric for one set-up plus one traced round.

        Span metrics end in `.calls`, `.s` or `.self_s`; any other name is a
        counter.
        """
        totals = self.layer_totals()
        out = {}
        for metric in names:
            layer_fn, _, stat = metric.rpartition(".")
            if stat in SPAN_STATS:
                k = SPAN_STATS.index(stat)
                setup = totals.get(("setup", layer_fn), [0, 0.0, 0.0])[k]
                traced = totals.get(("round", layer_fn), [0, 0.0, 0.0])[k]
            else:
                setup = self.counts.get(("setup", metric), 0)
                traced = self.counts.get(("round", metric), 0)
            value = setup + traced / rounds
            if stat in ("s", "self_s"):
                out[metric] = {"value": value, "unit": "s"}
            else:
                out[metric] = {"value": round(value, 6), "unit": "count"}
        return out

    def dump(self, path, **header):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header, "fields": SPAN_FIELDS, "spans": self.spans}, fh)


def _probe_gram(tracer, arguments, result):
    tracer._count("kernels.gram.entries", int(np.asarray(result).size))
    key = (
        "gram",
        arguments["kernel"],
        _digest(arguments["X"]),
        _digest(arguments["Y"]),
    )
    tracer._count_repeat("kernels.gram", key)


def _probe_target_moments(tracer, arguments, result):
    key = ("moments", arguments["kernel"], _digest(arguments["nodes"]), id(arguments["target"]))
    tracer._count_repeat("quadrature.target_moments", key)


def _probe_greedy_select(tracer, arguments, result):
    tracer._count("greedy.greedy_select.steps", len(result.selected))


_PROBES = {
    "kernels.gram": _probe_gram,
    "quadrature.target_moments": _probe_target_moments,
    "greedy.greedy_select": _probe_greedy_select,
}
