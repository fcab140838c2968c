"""Layer tracer for the traced benchmark run.

The tracer wraps the public entry points of every ``repro`` layer from
outside the program: module-level functions and class methods whose names
do not start with an underscore, plus a few explicit scheduler entry
points.  Each wrapper opens a span for its layer; the tracer keeps one
stack of open spans and charges the host time between two span
transitions to the layer on top of the stack, so a layer's *self time*
excludes the spans of the layers it called.  Time outside every span
(the harness, ``repro.cli`` glue, lazy imports) lands in
``unattributed``.  By construction the self times of all layers plus
``unattributed`` telescope to the traced wall time.

Simulated processes are generators that the scheduler resumes once per
event, so generator-returning entry points are wrapped in a delegating
generator that reopens the span on every resume.  Process bodies handed
to ``Environment.process`` are attributed to the layer of the module
that defines them (workload thread bodies to ``workloads``, HSA copy
engines to ``hsa``), and kernel functions passed to ``OmpThread.target``
to ``workloads``.  Whatever the scheduler does between resumes is the
``sim`` layer's self time.

Not wrapped, because other code inspects them or they are value types
on every hot path: workload classes (the static extractor reads
``make_body`` source and globals), ``repro.check.corpus``,
``repro.memory.layout``, ``repro.core.config``, ``repro.sim.core``
internals and ``repro.sim.rng``.  Their time is charged to the caller's
layer.

Nothing here is imported by an untraced run.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import os
import pkgutil
import time
import types
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: module-name prefix -> layer; the longest matching prefix wins
LAYER_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.resources", "sim.resources"),
    ("repro.sim.macro", "sim.macro"),
    ("repro.sim", "sim"),
    ("repro.core", "core"),
    ("repro.omp", "omp"),
    ("repro.hsa", "hsa"),
    ("repro.driver", "driver"),
    ("repro.memory", "memory"),
    ("repro.trace", "trace"),
    ("repro.workloads", "workloads"),
    ("repro.check.corpus", "workloads"),
    ("repro.experiments", "experiments"),
    ("repro.multisocket", "multisocket"),
    ("repro.check.static.extract", "check.extract"),
    ("repro.check.static.cost", "check.cost"),
    ("repro.check.static.race", "check.race"),
    ("repro.check.static.place", "check.place"),
    ("repro.check.static.fix", "check.fix"),
    ("repro.check.static", "check.interp"),
    ("repro.check", "check.dynamic"),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for _, layer in LAYER_PREFIXES))

#: modules whose entry points are left unwrapped (see the module docstring)
_NO_WRAP = (
    "repro.workloads",
    "repro.check.corpus",
    "repro.memory.layout",
    "repro.core.config",
    "repro.sim.core",
    "repro.sim.rng",
    "repro.experiments.bench",
    "repro.cli",
    "repro.__main__",
)

#: default layer of a process body or kernel defined outside ``repro``
#: (the MapFix sandbox re-imports patched workload sources from disk)
_FOREIGN_LAYER = "workloads"


def layer_of_module(name: str) -> Optional[str]:
    best = None
    for prefix, layer in LAYER_PREFIXES:
        if (name == prefix or name.startswith(prefix + ".")) and (
            best is None or len(prefix) > len(best[0])
        ):
            best = (prefix, layer)
    return best[1] if best else None


def _skipped(name: str) -> bool:
    return any(name == p or name.startswith(p + ".") for p in _NO_WRAP)


class Tracer:
    """Span stack, per-layer self time, per-entry call counts and observed
    counters.  A pass's self times and call counts are the difference of
    the snapshots around it; its counters are those of the closing one."""

    def __init__(self, src_root: str):
        self._pkg_root = os.path.join(os.path.abspath(src_root), "repro") + os.sep
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, List[int]] = {}
        #: counters filled by observers from public result objects
        self.counters: Dict[str, float] = defaultdict(float)
        self.maxima: Dict[str, float] = defaultdict(float)
        self._patched: List[Tuple[object, str, object]] = []
        self._file_layer: Dict[str, str] = {}
        #: open spans; the time since ``_last[0]`` belongs to the top one
        self._stack = ["unattributed"]
        self._last = [time.perf_counter()]

    # The span bookkeeping is inlined in the wrappers below: they run
    # millions of times per pass, and every extra call is overhead that
    # lands in some layer's self time.
    def push(self, layer: str) -> None:
        now = time.perf_counter()
        self.self_s[self._stack[-1]] += now - self._last[0]
        self._last[0] = now
        self._stack.append(layer)

    def pop(self) -> None:
        now = time.perf_counter()
        self.self_s[self._stack.pop()] += now - self._last[0]
        self._last[0] = now

    def mark(self) -> None:
        """Charge the open interval to the span on top of the stack."""
        now = time.perf_counter()
        self.self_s[self._stack[-1]] += now - self._last[0]
        self._last[0] = now

    # ------------------------------------------------------------------
    # attribution helpers
    # ------------------------------------------------------------------
    def layer_of_file(self, filename: str) -> str:
        got = self._file_layer.get(filename)
        if got is None:
            got = _FOREIGN_LAYER
            path = os.path.abspath(filename)
            if path.startswith(self._pkg_root):
                rel = path[len(self._pkg_root):-len(".py")].replace(os.sep, ".")
                module = "repro." + rel.removesuffix(".__init__")
                got = layer_of_module(module) or _FOREIGN_LAYER
            self._file_layer[filename] = got
        return got

    def traced_gen(self, gen, layer: str):
        """Delegate to ``gen``, reopening ``layer``'s span on every resume.

        The yielded value is handed on without keeping a reference in
        this frame, so the scheduler's event recycling (which checks that
        nobody else holds a processed event) behaves as untraced.
        """
        acc, stack, last, clock = self.self_s, self._stack, self._last, time.perf_counter
        send, throw = gen.send, gen.throw
        box: list = []
        value = None
        exc = None
        while True:
            now = clock()
            acc[stack[-1]] += now - last[0]
            last[0] = now
            stack.append(layer)
            try:
                if exc is None:
                    box.append(send(value))
                else:
                    err, exc = exc, None
                    box.append(throw(err))
            except StopIteration as stop:
                return stop.value
            finally:
                now = clock()
                acc[stack.pop()] += now - last[0]
                last[0] = now
            value = None
            try:
                value = yield box.pop()
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as err:  # forwarded into the traced generator
                exc = err

    def _gen(self, gen, layer: str):
        wrapped = self.traced_gen(gen, layer)
        name = getattr(gen, "__name__", None)
        if name:
            wrapped.__name__ = name
        return wrapped

    def _counter(self, key: str) -> List[int]:
        cell = self.calls.get(key)
        if cell is None:
            cell = self.calls[key] = [0]
        return cell

    def wrap_function(self, fn, layer: str, key: str,
                      observe: Optional[Callable] = None,
                      transform: Optional[Callable] = None):
        """Span + call count around ``fn``; generator results are traced
        per resume.  ``observe(result, args, kwargs)`` runs after the call;
        ``transform(args, kwargs)`` may rewrite the arguments first."""
        acc, stack, last, clock = self.self_s, self._stack, self._last, time.perf_counter
        gen_t, generator = self._gen, types.GeneratorType
        cell = self._counter(key)

        if fn.__code__.co_flags & inspect.CO_GENERATOR:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                cell[0] += 1
                if transform is not None:
                    args, kwargs = transform(args, kwargs)
                return gen_t(fn(*args, **kwargs), layer)
        elif observe is None and transform is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                cell[0] += 1
                now = clock()
                acc[stack[-1]] += now - last[0]
                last[0] = now
                stack.append(layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    now = clock()
                    acc[stack.pop()] += now - last[0]
                    last[0] = now
                if type(result) is generator:
                    return gen_t(result, layer)
                return result
        else:
            push, pop = self.push, self.pop

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                cell[0] += 1
                if transform is not None:
                    args, kwargs = transform(args, kwargs)
                push(layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    pop()
                if type(result) is generator:
                    result = gen_t(result, layer)
                if observe is not None:
                    observe(result, args, kwargs)
                return result
        return wrapper

    def wrap_hook(self, fn):
        """A callback the program stores and calls later (a cost adjuster),
        attributed to the layer of the module that defines it."""
        if getattr(fn, "__wrapped__", None) is not None or not hasattr(fn, "__code__"):
            return fn
        layer = self.layer_of_file(fn.__code__.co_filename)
        return self.wrap_function(fn, layer, f"hook:{fn.__qualname__}")

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def install(self, observers: Optional[Dict[str, Callable]] = None,
                transforms: Optional[Dict[str, Callable]] = None) -> None:
        """Import every ``repro`` module and wrap its public entry points.
        Keys of ``observers`` and ``transforms`` are ``module:Qualname``."""
        import repro

        observers = dict(observers or {})
        transforms = dict(transforms or {})
        modules = []
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if info.name == "repro.__main__":
                continue
            modules.append(importlib.import_module(info.name))
        #: id of each wrapped function -> (function, wrapper); holding the
        #: function keeps its id from being reused
        replaced: Dict[int, Tuple[object, object]] = {}
        for module in modules:
            name = module.__name__
            layer = layer_of_module(name)
            if layer is None or _skipped(name):
                continue
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != name:
                    continue
                if isinstance(obj, types.FunctionType):
                    key = f"{name}:{obj.__qualname__}"
                    wrapper = self.wrap_function(
                        obj, layer, key, observers.pop(key, None),
                        transforms.pop(key, None))
                    replaced[id(obj)] = (obj, wrapper)
                    self._set(module, attr, wrapper)
                elif isinstance(obj, type) and not isinstance(obj, enum.EnumMeta):
                    self._wrap_class(obj, name, layer, observers, transforms)
        self._wrap_scheduler(observers, transforms)
        # re-exports and ``from x import f`` copies of wrapped functions
        for module in modules:
            for attr, obj in list(vars(module).items()):
                hit = replaced.get(id(obj))
                if hit is not None:
                    self._set(module, attr, hit[1])
        if observers or transforms:
            raise KeyError(f"unknown trace hooks: {sorted({**observers, **transforms})}")

    def _wrap_class(self, cls, modname: str, layer: str, observers, transforms):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            key = f"{modname}:{cls.__qualname__}.{attr}"
            if isinstance(raw, types.FunctionType):
                new = self.wrap_function(raw, layer, key, observers.pop(key, None),
                                         transforms.pop(key, None))
            elif isinstance(raw, (staticmethod, classmethod)):
                new = type(raw)(self.wrap_function(
                    raw.__func__, layer, key, observers.pop(key, None),
                    transforms.pop(key, None)))
            else:
                continue
            self._set(cls, attr, new)

    def _wrap_scheduler(self, observers, transforms):
        """``repro.sim.core`` is wrapped only at its outer entry points:
        ``run`` and process creation, whose body is traced under the
        layer of the module that defines it."""
        from repro.sim import core

        layer_of_file = self.layer_of_file
        gen_t = self._gen

        def attribute_body(args, kwargs):
            env, gen, *rest = args
            code = getattr(gen, "gi_code", None)
            if code is not None:
                gen = gen_t(gen, layer_of_file(code.co_filename))
            return (env, gen, *rest), kwargs

        for cls in (core.Environment, core.ReferenceEnvironment):
            for attr in ("run", "process"):
                raw = vars(cls).get(attr)
                if raw is None:
                    continue
                key = f"repro.sim.core:{cls.__qualname__}.{attr}"
                transform = attribute_body if attr == "process" else None
                self._set(cls, attr, self.wrap_function(
                    raw, "sim", key, observers.pop(key, None),
                    transforms.pop(key, transform)))

    def _set(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Running self times and call counts, plus the observed counters
        since the previous snapshot (which this one resets: summing
        floating-point counters afresh keeps them bit-repeatable)."""
        self.mark()
        snap = {
            "self_s": dict(self.self_s),
            "calls": {k: c[0] for k, c in self.calls.items()},
            "counters": dict(self.counters),
            "maxima": dict(self.maxima),
        }
        self.counters.clear()
        self.maxima.clear()
        return snap
