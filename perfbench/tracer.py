"""Outside-in tracing of the loopforge layers.

The program itself has no instrumentation.  ``Tracer.install`` wraps the
public functions and methods of each layer module and rebinds every module
attribute that refers to an original function, because several modules
import functions by name (``radicals`` binds ``alternative_loop_algebra``,
``group_type_radical`` and others at import time; ``cli`` binds
``loop_from_cayley``).  Methods are wrapped on their defining class.

Each call of a wrapped callable is a span: name, start, end, parent span and
job id.  Spans stay in memory and are written out when the run ends.  A
span's self time is its duration minus the time its direct child spans
cover.  ``total_s`` counts only the outermost span of a name, so recursive
calls are not counted twice.

Per-element operations (``COUNT_ONLY``: field arithmetic, ``Loop.mul`` in
``subloop_generated``'s double loop) get a call counter instead of a span; a
span around them would cost more than their body.
``linalg.ideal_closure`` additionally gets its seed iterable and its action
callables wrapped, which splits its time into seed production, action
application and (as its self time) echelon insertion.
"""
from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict

LAYERS = ("constructions", "loops", "fields", "linalg", "algebras", "radicals", "cli")

# per-element field arithmetic and loop operations: counted, not timed
COUNT_ONLY = {
    "fields.PrimeField.canon", "fields.PrimeField.add", "fields.PrimeField.sub",
    "fields.PrimeField.neg", "fields.PrimeField.mul", "fields.PrimeField.inv",
    "fields.PrimeField.div", "fields.PrimeField.from_int", "fields.PrimeField.vector",
    "fields.PrimeField.zeros",
    "loops.Loop.mul", "loops.Loop.ldiv", "loops.Loop.rdiv", "loops.Loop.inv",
    "loops.ProductLoop.mul", "loops.ProductLoop.ldiv", "loops.ProductLoop.rdiv",
}

SEED_SPAN_BY_CALLER = {"algebras.alternator_ideal": "algebras.alternator_seeds"}
DEFAULT_SEED_SPAN = "linalg.ideal_closure.seeds"
ACTION_SPAN = "linalg.ideal_closure.actions"


class Tracer:
    def __init__(self):
        self.job = -1
        self._names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_job = array("i")
        self._stack: list[int] = []
        self._child: list[float] = []
        self._depth: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self._patches: list[tuple] = []

    # -- spans ---------------------------------------------------------------
    def open(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self._names)
            self._names.append(name)
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_job.append(self.job)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self._child.append(0.0)
        self._depth[name] += 1
        self.span_start.append(time.perf_counter())
        return idx

    def close(self, idx: int, name: str) -> None:
        end = time.perf_counter()
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        self._stack.pop()
        child = self._child.pop()
        if self._child:
            self._child[-1] += dur
        self.calls[name] += 1
        self.self_s[name] += dur - child
        self._depth[name] -= 1
        if self._depth[name] == 0:
            self.total_s[name] += dur

    def current(self) -> str | None:
        return self._names[self.span_name[self._stack[-1]]] if self._stack else None

    # -- wrappers ------------------------------------------------------------
    def _span_wrapper(self, name: str, fn):
        tracer = self
        if name == "linalg.ideal_closure":
            return self._ideal_closure_wrapper(fn)
        count_rows = name.endswith(".mul_rows")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count_rows:      # product rows asked for: len(a) * len(b)
                tracer.counters[name + ".rows"] += \
                    _rows(_arg(args, kwargs, 1, "a")) * _rows(_arg(args, kwargs, 2, "b"))
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx, name)
        return wrapper

    def _count_wrapper(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _ideal_closure_wrapper(self, fn):
        tracer = self
        name = "linalg.ideal_closure"
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            seed_span = SEED_SPAN_BY_CALLER.get(tracer.current(), DEFAULT_SEED_SPAN)
            bound.arguments["seeds"] = _TimedSeeds(tracer, seed_span,
                                                   bound.arguments["seeds"])
            for side in ("left_actions", "right_actions"):
                bound.arguments[side] = [_timed_action(tracer, act)
                                         for act in bound.arguments[side]]
            idx = tracer.open(name)
            try:
                out = fn(*bound.args, **bound.kwargs)
            finally:
                tracer.close(idx, name)
            tracer.counters[name + ".dim_out"] += out.dim
            return out
        return wrapper

    # -- installation -----------------------------------------------------------
    def install(self, package) -> None:
        """Wrap every layer of ``package`` (the imported loopforge package)."""
        import importlib
        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}")
                   for layer in LAYERS}
        replaced: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._wrap_class(f"{layer}.{attr}", obj)
        for mod in [package, *modules.values(), *_submodules(package)]:
            for attr, obj in list(vars(mod).items()):
                new = replaced.get(id(obj))
                if new is not None:
                    self._patch(mod, attr, new)

    def _wrap(self, name: str, fn):
        if name in COUNT_ONLY or inspect.isgeneratorfunction(fn):
            return self._count_wrapper(name, fn)
        return self._span_wrapper(name, fn)

    def _wrap_class(self, prefix: str, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr == "__init__" and not dataclasses.is_dataclass(cls):
                name = f"{prefix}.init"
            elif attr.startswith("_"):
                continue
            else:
                name = f"{prefix}.{attr}"
            if isinstance(obj, (classmethod, staticmethod)):
                self._patch(cls, attr, type(obj)(self._wrap(name, obj.__func__)))
            elif inspect.isfunction(obj):
                self._patch(cls, attr, self._wrap(name, obj))

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    # -- output ----------------------------------------------------------------
    def aggregates(self) -> dict:
        """Per-name calls, total_s and self_s, plus the extra counters."""
        out = {}
        for name, calls in self.calls.items():
            out[f"{name}.calls"] = calls
            if name in self.self_s:
                out[f"{name}.total_s"] = self.total_s[name]
                out[f"{name}.self_s"] = self.self_s[name]
        out.update(self.counters)
        return out

    def spans_doc(self) -> dict:
        return {"names": self._names, "name": list(self.span_name),
                "start": list(self.span_start), "end": list(self.span_end),
                "parent": list(self.span_parent), "job": list(self.span_job)}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans_doc(), "aggregates": self.aggregates()}, fh)


class _TimedSeeds:
    """Seed iterable whose every ``next`` is a span; counts seed rows."""

    def __init__(self, tracer, name, seeds):
        self.tracer, self.name, self.it = tracer, name, iter(seeds)

    def __iter__(self):
        return self

    def __next__(self):
        idx = self.tracer.open(self.name)
        try:
            block = next(self.it)
        finally:
            self.tracer.close(idx, self.name)
        shape = getattr(block, "shape", ())
        self.tracer.counters["linalg.ideal_closure.seed_rows"] += \
            shape[0] if len(shape) == 2 else 1
        return block


def _timed_action(tracer, act):
    def timed(m):
        idx = tracer.open(ACTION_SPAN)
        try:
            return act(m)
        finally:
            tracer.close(idx, ACTION_SPAN)
    return timed


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        return len(x)
    return 1 if len(shape) < 2 else shape[0]


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _submodules(package):
    prefix = package.__name__ + "."
    return [m for n, m in list(sys.modules.items()) if n.startswith(prefix) and m is not None]
