"""Spans around the package's public layer boundaries, recorded from outside.

The benchmark replaces module attributes that the package itself calls (for
example ``nodespec.autodiff.spmm``) with wrappers that open a span, call the
original and close the span. Spans stay in memory as plain dicts with a run
id, a name, start and end times (``perf_counter`` seconds), the id of the
enclosing span and a few counters; they are written out after the run.

A target whose attribute no longer exists is recorded as absent and skipped,
so the benchmark keeps running when the package is refactored.
"""

import functools
import importlib
import inspect
import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.absent = []
        self._stack = []
        self._restore = []
        self._paused = 0

    @contextmanager
    def span(self, name: str, **attrs):
        record = {"run": self.run_id, "id": len(self.spans), "name": name,
                  "parent": self._stack[-1]["id"] if self._stack else None,
                  "start": time.perf_counter(), "end": None, "attrs": attrs}
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def paused(self):
        """Calls made inside this block record no spans."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def wrap(self, module_name: str, attr: str, name: str, describe=None):
        """Replace ``module.attr`` by a spanning wrapper.

        ``describe(arguments, result)`` runs after the call with the bound
        arguments by parameter name. It returns a new span name (None keeps
        ``name``) and a dict of attributes to record on the span.
        """
        try:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            signature = inspect.signature(original)
        except (ImportError, AttributeError, TypeError, ValueError):
            self.absent.append(f"{module_name}.{attr}")
            return

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if self._paused:
                return original(*args, **kwargs)
            with self.span(name) as record:
                result = original(*args, **kwargs)
                if describe is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    try:
                        new_name, attrs = describe(bound.arguments, result)
                    except (KeyError, AttributeError, TypeError) as exc:
                        # A changed signature or result type must not fail
                        # the call being traced.
                        new_name, attrs = None, {"describe_error": repr(exc)}
                    record["name"] = new_name or name
                    record["attrs"].update(attrs)
            return result

        setattr(module, attr, wrapper)
        self._restore.append((module, attr, original))

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def write(self, path: str, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run": self.run_id, "absent": self.absent,
                       "spans": self.spans, **extra}, fh)


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def children_of(spans: list) -> dict:
    kids = {}
    for s in spans:
        if s["parent"] is not None:
            kids.setdefault(s["parent"], []).append(s)
    return kids


def self_time(span: dict, kids: dict) -> float:
    """Span duration minus the part of it covered by its direct children."""
    covered = 0.0
    edge = span["start"]
    for child in sorted(kids.get(span["id"], []), key=lambda s: s["start"]):
        lo = max(child["start"], edge)
        hi = min(child["end"], span["end"])
        if hi > lo:
            covered += hi - lo
            edge = hi
    return duration(span) - covered


def has_ancestor(span: dict, by_id: dict, names: set) -> bool:
    parent = span["parent"]
    while parent is not None:
        node = by_id[parent]
        if node["name"] in names:
            return True
        parent = node["parent"]
    return False


def outermost(spans: list, name: str, by_id: dict) -> list:
    """Spans called ``name`` that are not nested inside another such span."""
    return [s for s in spans
            if s["name"] == name and not has_ancestor(s, by_id, {name})]
