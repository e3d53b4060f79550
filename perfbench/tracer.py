"""Per-function spans recorded from outside the package.

A Tracer replaces each public module-level function of the traced modules
(and ``GroupTable.__init__``) with a timing wrapper, in every loaded module
namespace that binds it: ``from .algebra import ga_mul`` makes a second
binding in ``unitgroup`` and ``decompositions``, and calls through that copy
would otherwise be missed. ``remove`` puts every original back.

Each thread keeps its own records, so counts stay exact when a scan runs in a
thread pool; records are merged when read. A span's self time is its
duration minus the durations of the wrapped spans it called on the same
thread. Spans started in pool threads are roots of their own thread, so a
caller's self time includes the time it spent waiting for its pool.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Record:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    max_s: float = 0.0


@dataclass
class _ThreadState:
    frames: list = field(default_factory=list)
    records: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)


def public_functions(module):
    """(name, function) for the functions a module defines and does not mark private."""
    return [
        (name, obj)
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
    ]


class Tracer:
    def __init__(self, package: str, module_names, observers=None, split=None):
        """Trace the public functions of ``package.<name>`` for each name.

        ``observers`` maps a span name to ``f(counters, bound_args, result)``,
        called after each successful call to add counts. ``split`` maps a span
        name to ``f(args) -> suffix``: the call is recorded under
        ``name@suffix`` so one function can be timed per input class.
        """
        self.package = package
        self.module_names = tuple(module_names)
        self.observers = dict(observers or {})
        self.split = dict(split or {})
        self._tls = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def _state(self) -> _ThreadState:
        try:
            return self._tls.state
        except AttributeError:
            state = _ThreadState()
            with self._lock:
                self._states.append(state)
            self._tls.state = state
            return state

    def _wrap(self, name: str, fn):
        tls = self._tls
        new_state = self._state
        clock = time.perf_counter
        observe = self.observers.get(name)
        signature = inspect.signature(fn) if observe is not None else None
        split = self.split.get(name)
        split_names: dict = {}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                state = tls.state
            except AttributeError:
                state = new_state()
            frames = state.frames
            frames.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = frames.pop()
                if frames:
                    frames[-1] += dt
                key = name
                if split is not None:
                    suffix = split(args)
                    key = split_names.get(suffix)
                    if key is None:
                        key = split_names[suffix] = f"{name}@{suffix}"
                rec = state.records.get(key)
                if rec is None:
                    rec = state.records[key] = Record()
                rec.calls += 1
                rec.total_s += dt
                rec.self_s += dt - child
                if dt > rec.max_s:
                    rec.max_s = dt
            if observe is not None:
                observe(state.counters, signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        prefix = self.package + "."
        namespaces = [
            m
            for key, m in sys.modules.items()
            if m is not None and (key == self.package or key.startswith(prefix))
        ]
        wrappers: dict[int, object] = {}
        for short in self.module_names:
            module = sys.modules[prefix + short]
            for fname, fn in public_functions(module):
                wrappers[id(fn)] = (fn, self._wrap(f"{short}.{fname}", fn))
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((ns, attr, value))
                    setattr(ns, attr, hit[1])
        if "groups" in self.module_names:
            table_cls = sys.modules[prefix + "groups"].GroupTable
            init = table_cls.__dict__["__init__"]
            self._patches.append((table_cls, "__init__", init))
            table_cls.__init__ = self._wrap("groups.GroupTable.init", init)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    def records(self) -> dict[str, Record]:
        """Merged records of every thread, keyed by span name."""
        out: dict[str, Record] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for key, rec in state.records.items():
                agg = out.setdefault(key, Record())
                agg.calls += rec.calls
                agg.total_s += rec.total_s
                agg.self_s += rec.self_s
                agg.max_s = max(agg.max_s, rec.max_s)
        return out

    def counters(self) -> dict[str, int]:
        out: dict[str, int] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for key, value in state.counters.items():
                out[key] = out.get(key, 0) + value
        return out
