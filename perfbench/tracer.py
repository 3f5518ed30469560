"""Self-time spans around a program's public functions, applied from outside.

The benchmark never edits the program.  For a traced run it rebinds
names in the modules that import them (``repro.serve.shard.lookup_batch``),
method attributes on classes (``ServeEngine._process``), or whole classes
(``repro.serve.engine.BinaryTrie``) with timing wrappers, and puts every
original back when the run ends.

Each span charges its *self* time — wall time minus the time of the spans
nested inside it — to one label, so the self times of all labels plus the
root span's remainder add up to the traced pass exactly.  The root label is
the part of the pass no wrapped call claimed.
"""

from __future__ import annotations

import time
from collections import defaultdict

ROOT = "trace.pass_s"
#: Where the tracer charges its own tallying of kernel outputs.
TALLY = "trace.tally_s"


class Tracer:
    """Stack of open spans; per-label self and inclusive time."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.durations = defaultdict(list)
        self._stack = []
        self._patches = []

    enabled = True

    # -- spans ------------------------------------------------------------
    def enter(self, label):
        self._stack.append([label, self.clock(), 0.0])

    def leave(self, keep=False):
        label, start, nested = self._stack.pop()
        elapsed = self.clock() - start
        self.self_s[label] += elapsed - nested
        self.incl_s[label] += elapsed
        if keep:
            self.durations[label].append(elapsed)
        if self._stack:
            self._stack[-1][2] += elapsed

    def span(self, label):
        return _Span(self, label)

    # -- wrapping ---------------------------------------------------------
    def wrap(self, fn, label, after=None, keep=False):
        """``fn`` timed under ``label``; ``after(result)`` runs outside the
        timed region (under ``TALLY``), and ``keep``
        records every call's duration."""
        tracer = self

        def traced(*args, **kwargs):
            tracer.enter(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.leave(keep)
            if after is not None:
                tracer.enter(TALLY)
                try:
                    after(result)
                finally:
                    tracer.leave()
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def patch(self, owner, name, label, after=None, keep=False):
        """Rebind ``owner.name`` (a module or class attribute) to a timed
        wrapper; :meth:`restore` puts the original back."""
        original = vars(owner)[name]
        self._patches.append((owner, name, original))
        setattr(owner, name, self.wrap(original, label, after, keep))

    def patch_class(self, module, name, label, methods=("__init__",)):
        """Rebind ``module.name`` to a subclass whose ``methods`` are timed.

        Only call sites that look the class up through ``module`` see the
        subclass, so the same class can be charged to different layers
        depending on which module builds it.  ``label`` may be a dict of
        method name to label, which then also names the methods.
        """
        cls = getattr(module, name)
        labels = label if isinstance(label, dict) else dict.fromkeys(methods, label)
        namespace = {m: self.wrap(getattr(cls, m), l) for m, l in labels.items()}
        namespace["__module__"] = cls.__module__
        timed = type(cls.__name__, (cls,), namespace)
        self._patches.append((module, name, cls))
        setattr(module, name, timed)

    def restore(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)


class _Span:
    __slots__ = ("tracer", "label")

    def __init__(self, tracer, label):
        self.tracer = tracer
        self.label = label

    def __enter__(self):
        self.tracer.enter(self.label)
        return self

    def __exit__(self, *exc):
        self.tracer.leave()
        return False


class NullTracer:
    """The untraced run: spans cost one attribute lookup and a no-op."""

    enabled = False

    def span(self, label):
        return _NULL_SPAN

    def restore(self):
        pass


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()
