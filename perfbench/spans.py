"""Spans around calls into parasched's layers, recorded from outside.

While a traced op runs, every public function of the layer modules is
rebound, in every layer module's namespace, to a wrapper that records a
span: (id, parent id, name, start ns, end ns, op index).  Calls made inside
the program (``run_methods`` -> ``decompose`` -> ``segment_workload``, or
``cli.main`` -> ``cmd_analyze`` -> ``load_taskset``) resolve those names at
call time, so the spans follow the program's own call sequence.  The
original functions are put back when the op ends.

Class constructors and methods (``DagTask(...)``, ``topological_order``)
are not wrapped; their time is the calling span's self time.  The two value
converters of ``model`` are not wrapped either: they run once per vertex
and would multiply the span count without naming a stage.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("gen", "model", "decomposition", "analysis", "semifed", "sim",
          "experiment", "cli")
UNWRAPPED = {"model.as_fraction", "model.format_rational"}
ROOT = "op"


class Tracer:
    """Spans and boundary counts of the traced ops of one run, in memory."""

    def __init__(self, modules, hooks=None):
        self.modules = modules          # layer name -> module object
        self.hooks = hooks or {}        # span name -> fn(args, kwargs, result)
        self.spans = []                 # (id, parent, name, t0, t1, op)
        self.counts = defaultdict(lambda: defaultdict(int))  # op -> key -> n
        self._stack = []
        self._next = 0
        self.op_index = None
        self._wrappers = {}
        for mod in modules.values():
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                owner = fn.__module__.rpartition(".")[2]
                name = f"{owner}.{fn.__name__}"
                if owner in modules and name not in UNWRAPPED \
                        and fn not in self._wrappers:
                    self._wrappers[fn] = self._wrap(name, fn)

    def count(self, key, n=1):
        self.counts[self.op_index][key] += n

    def _wrap(self, name, fn):
        hook = self.hooks.get(name)

        def traced(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                self._stack.pop()
                self.spans.append((sid, parent, name, t0, t1,
                                   self.op_index))
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def _patched(self):
        saved = []
        for mod in self.modules.values():
            for attr, obj in list(vars(mod).items()):
                wrapper = self._wrappers.get(obj) if inspect.isfunction(obj) \
                    else None
                if wrapper is not None:
                    saved.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        try:
            yield
        finally:
            for mod, attr, obj in saved:
                setattr(mod, attr, obj)

    def run_op(self, index, fn, *args):
        """Run fn(*args) as op `index` under a root span; returns (result,
        wall seconds of the root span)."""
        with self._patched():
            self.op_index = index
            sid = self._next
            self._next += 1
            self._stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args)
            finally:
                t1 = time.perf_counter_ns()
                self._stack.pop()
                self.spans.append((sid, None, ROOT, t0, t1, index))
                self.op_index = None
        return result, (t1 - t0) / 1e9

    def write(self, path):
        with open(path, "w") as fp:
            for span in sorted(self.spans):
                fp.write("%d,%s,%s,%d,%d,%d\n" % (
                    span[0], "" if span[1] is None else span[1], span[2],
                    span[3], span[4], span[5]))


def summarize_spans(spans):
    """Per-name inclusive durations, per-layer self time, op walls and
    span coverage of the ops, all in seconds."""
    child_time = defaultdict(int)
    for sid, parent, _name, t0, t1, _op in spans:
        if parent is not None:
            child_time[parent] += t1 - t0
    durations = defaultdict(list)
    self_time = defaultdict(int)
    op_wall = covered = 0
    for sid, parent, name, t0, t1, _op in spans:
        dur = t1 - t0
        durations[name].append(dur / 1e9)
        self_time[name.partition(".")[0]] += dur - child_time[sid]
        if name == ROOT:
            op_wall += dur
            covered += child_time[sid]
    return {
        "durations": durations,
        "self_time": {k: v / 1e9 for k, v in self_time.items()},
        "op_wall": op_wall / 1e9,
        "coverage": covered / op_wall if op_wall else 0.0,
    }


def omega_only_waste(spans):
    """Share of decompose time spent after segment_workload returned, i.e.
    after omega was known."""
    ends = {}
    for sid, parent, name, _t0, t1, _op in spans:
        if name == "decomposition.segment_workload" and parent is not None:
            ends[parent] = t1
    total = after = 0
    for sid, _parent, name, t0, t1, _op in spans:
        if name == "decomposition.decompose" and sid in ends:
            total += t1 - t0
            after += t1 - ends[sid]
    return after / total if total else 0.0
