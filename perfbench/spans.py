"""In-memory span recording around wrapped functions.

A span has a name, start and end (``perf_counter_ns``), the id of the span
open below it on the same thread (its parent), and a site id. Spans whose
name is a site root open a new site when no ancestor has one; every other
span inherits its parent's site. Spans on threads with nothing open (the
in-process fixture servers) are roots without a site.

``Tracer.wrap`` replaces an attribute with a recording wrapper and
``Tracer.unwrap_all`` restores every original, so the same process can run
traced and untraced.
"""
from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import itertools
import json
import threading
import time
from typing import Callable, Optional

_now = time.perf_counter_ns


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "site", "label",
                 "info")

    def __init__(self, id, name, start, parent, site, label):
        self.id = id
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.site = site
        self.label = label
        self.info = None

    @property
    def duration_ns(self) -> int:
        return self.end - self.start

    def to_json(self) -> dict:
        return {"id": self.id, "name": self.name, "start_ns": self.start,
                "end_ns": self.end, "parent": self.parent, "site": self.site,
                "label": self.label}


class Tracer:
    def __init__(self, site_roots=()):
        self.spans: list[Span] = []
        self._site_roots = frozenset(site_roots)
        self._ids = itertools.count()
        self._sites = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, label: Optional[str] = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        site = parent.site if parent is not None else None
        if site is None and name in self._site_roots:
            site = next(self._sites)
        span = Span(next(self._ids), name, _now(),
                    parent.id if parent is not None else None, site, label)
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = _now()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, label: Optional[str] = None):
        """A span the benchmark opens itself, around a ``with`` block."""
        span = self.open(name, label)
        try:
            yield span
        finally:
            self.close(span)

    # -- wrapping ------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str,
             label: Optional[Callable] = None,
             on_return: Optional[Callable] = None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``label(args, kwargs)`` names a sub-case of the span (for example a
        report kind); ``on_return(span, result)`` keeps facts about the
        result on ``span.info``. Generator functions get one span per
        resumption, because their work happens while they are iterated.
        """
        raw = inspect.getattr_static(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if kind else raw
        if inspect.isgeneratorfunction(func):
            wrapper = self._generator_wrapper(func, name)
        else:
            wrapper = self._call_wrapper(func, name, label, on_return)
        setattr(owner, attr, kind(wrapper) if kind else wrapper)
        self._patches.append((owner, attr, raw))

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def _call_wrapper(self, func, name, label, on_return):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = tracer.open(name, label(args, kwargs) if label else None)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.close(span)
            if on_return is not None:
                on_return(span, result)
            return result
        return wrapper

    def _generator_wrapper(self, func, name):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                it = func(*args, **kwargs)
                item = next(it)
            except StopIteration:
                return
            finally:
                tracer.close(span)
            while True:
                yield item
                span = tracer.open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.close(span)
        return wrapper

    # -- output --------------------------------------------------------------

    def dump(self, path) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json()) + "\n")
