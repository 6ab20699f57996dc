"""In-memory span tracer that wraps engine functions from outside the package.

The engine has no timers of its own. The tracer replaces a function object
in every module namespace that holds it, which is where the engine's callers
look it up, with a wrapper that records one span per call: name, start, end,
parent span and optional attributes computed from the arguments and result.
Spans stay in a list until the caller writes them out; `uninstall` puts the
original functions back.
"""
from __future__ import annotations

import functools
import itertools
import threading
import time


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "thread", "attrs", "error")

    def __init__(self, span_id, name, parent, thread):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = 0.0
        self.end = 0.0
        self.attrs = None
        self.error = False

    @property
    def duration(self):
        return self.end - self.start

    def as_dict(self):
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "thread": self.thread,
            "attrs": self.attrs,
            "error": self.error,
        }


class Tracer:
    """Collects spans from wrapped functions; one instance per traced run."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, attrs=None):
        """Return fn wrapped so that each call records a span called name."""
        spans = self.spans
        ids = self._ids
        stack_of = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            span = Span(next(ids), name, stack[-1] if stack else None, threading.get_ident())
            spans.append(span)
            stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return traced

    def install(self, targets, namespaces):
        """Wrap each (span name, module, attribute, attrs) target.

        The wrapper replaces the original object under every name that
        holds it in any of the given modules, so calls made through
        `from .fields import pullback_metric` are traced as well.
        """
        for span_name, module, attr, attrs in targets:
            original = getattr(module, attr)
            wrapper = self.wrap(span_name, original, attrs)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)
                        self._patched.append((ns, key, original))

    def uninstall(self):
        while self._patched:
            ns, key, original = self._patched.pop()
            setattr(ns, key, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()


def self_time(span, children):
    """Span duration minus the time its direct children cover."""
    return span.duration - sum(c.duration for c in children.get(span.id, ()))


def children_index(spans):
    out = {}
    for s in spans:
        if s.parent is not None:
            out.setdefault(s.parent, []).append(s)
    return out


def per_call_cost(n=20000):
    """Measured seconds one wrapper adds to a call of a trivial function."""
    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer.wrap("noop", noop)
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(n):
        wrapped()
    traced = time.perf_counter() - t0
    return max(traced - bare, 0.0) / n
