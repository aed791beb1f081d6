"""In-memory span recorder for the traced benchmark run.

Spans are opened by the benchmark around calls into the library's public
functions; nothing inside the package is instrumented. Each span records a
name, start, end (``time.perf_counter`` seconds) and the id of the span that
was open when it started, and every span of one repetition carries the same
run id. Only the traced run records spans or patches module attributes.
"""

from __future__ import annotations

import builtins
import functools
import threading
import time
from contextlib import contextmanager

_MISSING = object()


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.counts = {}
        self.values = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name):
        stack = self._stack()
        rec = {"run": self.run_id, "name": name,
               "parent": stack[-1]["id"] if stack else None,
               "start": time.perf_counter(), "end": None}
        with self._lock:
            rec["id"] = len(self.spans)
            self.spans.append(rec)
        stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def wrap(self, name, fn, record=None):
        """`fn` inside a span; `record(result)` runs after the span closes."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if record is not None:
                record(out)
            return out
        return wrapper

    def add(self, name, amount=1):
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def keep_max(self, name, value):
        with self._lock:
            self.values[name] = max(self.values.get(name, value), value)

    def timed_open(self, name):
        """An `open` whose with-block is one span (for inline CSV writes)."""
        @contextmanager
        def opener(*args, **kwargs):
            with self.span(name), builtins.open(*args, **kwargs) as f:
                yield f
        return opener

    # -- summaries -------------------------------------------------------

    def total(self, name):
        """Summed duration of every span called `name`."""
        return sum(self.duration(s) for s in self.spans
                   if s["name"] == name)

    def duration(self, span):
        return span["end"] - span["start"]

    def coverage(self, root):
        """Share of the root span covered by its direct children."""
        kids = sum(self.duration(s) for s in self.spans
                   if s["parent"] == root["id"])
        return kids / self.duration(root)

    def self_times(self):
        """Per-layer self time: each span minus its direct children,
        summed by the layer prefix of the span name."""
        child = {}
        for s in self.spans:
            if s["parent"] is not None:
                p = s["parent"]
                child[p] = child.get(p, 0.0) + self.duration(s)
        out = {}
        for s in self.spans:
            layer = s["name"].split(".", 1)[0]
            own = self.duration(s) - child.get(s["id"], 0.0)
            out[layer] = out.get(layer, 0.0) + own
        return out


@contextmanager
def patched(replacements):
    """Temporarily set module attributes: `replacements` holds
    (module, attribute, value) triples. Attributes absent before (such as a
    module-level `open` shadowing the builtin) are deleted afterwards."""
    saved = [(mod, attr, getattr(mod, attr, _MISSING))
             for mod, attr, _ in replacements]
    try:
        for mod, attr, value in replacements:
            setattr(mod, attr, value)
        yield
    finally:
        for mod, attr, old in reversed(saved):
            if old is _MISSING:
                delattr(mod, attr)
            else:
                setattr(mod, attr, old)
