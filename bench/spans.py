"""Spans around calls into the program, wrapped from outside.

A :class:`Tracer` wraps a function where its caller looks it up (a module
global or a class attribute) and keeps, per span name, the number of
calls, the total time and the self time.  Self time is a span's duration
minus the durations of the spans it directly encloses.  Only these
aggregates are kept: one record per call would cost more memory than the
workloads themselves.
"""

import time


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def replace(self, owner, attr, make_wrapper):
        original = owner.__dict__[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}  # name -> [calls, total seconds, self seconds]
        self._stack = []  # open spans: [name, start, time covered by children]
        self.patches = Patches()

    def enter(self, name):
        self._stack.append([name, self.clock(), 0.0])

    def exit(self):
        name, start, children = self._stack.pop()
        duration = self.clock() - start
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - children
        if self._stack:
            self._stack[-1][2] += duration

    def wrap(self, name, fn):
        """``fn`` inside a span; ``name`` may be a function of the call's arguments."""
        name_of = name if callable(name) else lambda *args, **kwargs: name

        def spanned(*args, **kwargs):
            self.enter(name_of(*args, **kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return spanned

    def patch(self, owner, attr, name):
        """Replace ``owner.attr`` by its spanned version until ``patches.restore()``."""
        self.patches.replace(owner, attr, lambda fn: self.wrap(name, fn))

    def snapshot(self):
        return {name: list(stat) for name, stat in self.stats.items()}

    def since(self, snapshot):
        """Per-name [calls, total, self] accumulated after ``snapshot``."""
        out = {}
        for name, stat in self.stats.items():
            before = snapshot.get(name, [0, 0.0, 0.0])
            out[name] = [a - b for a, b in zip(stat, before)]
        return out
