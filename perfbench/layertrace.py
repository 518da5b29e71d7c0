"""Outside-in tracing: time calls into a program by wrapping its functions.

A ``Tracer`` is given module attributes and class methods to wrap. Inside
``Tracer.installed()`` each of them is replaced by a wrapper that records a
span around every call; on exit the originals are put back, also after an
exception, so timed runs never see a wrapper. A span's self time is its
duration minus the time spent in wrapped calls made from inside it, so the
self times of all spans under a root add up to the root's duration.

Count hooks run after a call returns and may read ``Tracer.inside`` to
attribute work to the layer that caused it. Spans are kept per name in
memory; the tracer expects calls from one thread.

``import_seconds`` reads the output of ``python -X importtime`` and charges
each module's own import time to the package that pulled it in.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager


class SpanStats:
    __slots__ = ("calls", "total", "self")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = defaultdict(SpanStats)
        self.counts = defaultdict(int)
        self._stack = []          # frames [span name, time in wrapped children]
        self._targets = []

    def wrap(self, owner, attr, name, count=None):
        """Trace ``owner.attr`` (a module or class attribute) as span ``name``.

        ``name`` is a string or a callable that takes the call's arguments
        and returns one. ``count(tracer, result, *args, **kwargs)`` runs
        after each call that returns.
        """
        self._targets.append((owner, attr, name, count))

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, count in self._targets:
                original = vars(owner)[attr]
                setattr(owner, attr, self._wrapper(original, name, count))
                saved.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    def inside(self, prefix):
        """True while a span whose name starts with ``prefix`` is open."""
        return any(frame[0].startswith(prefix) for frame in self._stack)

    def _wrapper(self, fn, name, count):
        stack, clock, spans = self._stack, self.clock, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name if isinstance(name, str) else name(*args, **kwargs)
            frame = [span, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stats = spans[span]
                stats.calls += 1
                stats.total += dt
                stats.self += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if count is not None:
                count(self, result, *args, **kwargs)
            return result

        return wrapper


# -- python -X importtime ----------------------------------------------------

def parse_importtime(text):
    """Import tree from ``-X importtime`` output: [(name, self_us, children)].

    The interpreter prints a module after the modules it imported, one
    nesting level (two spaces) deeper, so children precede their parent.
    """
    pending = []                  # (depth, node) not yet claimed by a parent
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue                                  # the header line
        field = parts[2]
        depth = (len(field) - len(field.lstrip(" ")) - 1) // 2
        children = []
        while pending and pending[-1][0] > depth:
            children.append(pending.pop()[1])
        children.reverse()
        pending.append((depth, (field.strip(), int(parts[0]), children)))
    return [node for _, node in pending]


def import_seconds(text, packages):
    """Seconds of import self time per package, plus ``other``.

    A module counts toward the innermost enclosing import (itself
    included) whose top-level package is in ``packages``; numpy pulled in
    by scipy counts as numpy, the standard library pulled in by relsens as
    relsens, and anything outside every listed package as ``other``.
    """
    packages = tuple(packages)
    totals = dict.fromkeys(packages + ("other",), 0.0)

    def visit(node, owner):
        name, self_us, children = node
        root = name.split(".")[0]
        if root in packages:
            owner = root
        totals[owner] += self_us * 1e-6
        for child in children:
            visit(child, owner)

    for node in parse_importtime(text):
        visit(node, "other")
    return totals
