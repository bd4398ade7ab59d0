"""Spans and counters recorded around the benchmark's calls into tml.

A span covers one call into one layer.  Spans nest; a layer is charged
its self time, the span's duration minus the part covered by the spans
it encloses.  Untraced runs use ``NullTracer``, whose ``span`` is a bare
call, so end-to-end numbers carry no tracing cost.
"""

from __future__ import annotations

import signal
import time
from collections import defaultdict


class OpTimeout(Exception):
    """Raised inside an operation when its time limit expires."""


def _on_alarm(signum, frame):
    raise OpTimeout()


class TimeLimit:
    """Per-operation wall-clock limit, enforced in-process with
    ``signal.setitimer`` on the main thread."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        signal.signal(signal.SIGALRM, _on_alarm)

    def __enter__(self):
        signal.setitimer(signal.ITIMER_REAL, self.seconds)

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        return False


class NullTracer:
    on = False

    def span(self, layer, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def add(self, name, amount=1):
        pass


class Tracer:
    on = True

    def __init__(self):
        self.busy = defaultdict(float)   # layer -> self time in seconds
        self.counts = defaultdict(int)
        self._child = []                 # per open span: time its children took

    def span(self, layer, fn, *args, **kwargs):
        self._child.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            d = time.perf_counter() - t0
            self.busy[layer] += d - self._child.pop()
            if self._child:
                self._child[-1] += d

    def add(self, name, amount=1):
        self.counts[name] += amount


class Patch:
    """Temporarily replace module attributes; used to see ``parse``
    calls made from inside the JSON loaders of tml."""

    def __init__(self, replacements):
        self.replacements = replacements   # [(module, name, new)]
        self.saved = []

    def __enter__(self):
        for module, name, new in self.replacements:
            self.saved.append((module, name, getattr(module, name)))
            setattr(module, name, new)

    def __exit__(self, *exc):
        for module, name, old in reversed(self.saved):
            setattr(module, name, old)
        self.saved.clear()
        return False
