"""Layer spans recorded from outside the program, folded into self time.

A :class:`Recorder` times calls at layer boundaries.  It can open a span
around a block of benchmark code (:meth:`Recorder.span`) or patch a
public function or method of the program so that each call opens one
(:meth:`Recorder.wrap`).  Patches are undone by :meth:`Recorder.restore`,
so code run after tracing executes the original functions.

Spans are folded as they close, so memory stays flat at millions of
calls.  For each layer the fold keeps

* ``calls`` -- outermost entries into the layer (a layer re-entered
  while it is already open, such as ``launch_auto`` calling ``launch``,
  counts once);
* ``total_s`` -- wall time of those outermost entries, children included;
* ``self_s`` -- wall time of every span of the layer minus the time its
  direct child spans cover.

Self times of all layers add up to the time covered by top-level spans
(:attr:`Recorder.top_level_s`); the rest of a measured interval ran
outside every layer.  Calls from threads other than the one that made
the recorder pass through untimed: the kernel simulator runs barrier
kernels on one OS thread per simulated thread, and spans there would
interleave with the main thread's stack.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from dataclasses import dataclass


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Recorder:
    """Per-layer call counts, inclusive time and self time."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.layers: dict[str, LayerStats] = {}
        self.durations: dict[str, list[float]] = {}
        self.keep_durations: set[str] = set()
        self.counts: dict[str, int] = {}
        self.top_level_s = 0.0
        # open spans, innermost last: [layer, start, child_s]
        self._stack: list[list] = []
        self._open: dict[str, int] = {}
        self._thread = threading.get_ident()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def enter(self, layer: str) -> None:
        self._stack.append([layer, self.clock(), 0.0])
        self._open[layer] = self._open.get(layer, 0) + 1

    def exit(self) -> None:
        end = self.clock()
        layer, start, child_s = self._stack.pop()
        duration = end - start
        stats = self.layers.get(layer)
        if stats is None:
            stats = self.layers[layer] = LayerStats()
        stats.self_s += duration - child_s
        depth = self._open[layer] - 1
        self._open[layer] = depth
        if depth == 0:
            stats.calls += 1
            stats.total_s += duration
            if layer in self.keep_durations:
                self.durations.setdefault(layer, []).append(duration)
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.top_level_s += duration

    @contextlib.contextmanager
    def span(self, layer: str):
        self.enter(layer)
        try:
            yield
        finally:
            self.exit()

    # -- patching the program's public functions ---------------------------

    def wrap(self, owner, attr: str, layer: str, on_result=None) -> None:
        """Replace ``owner.attr`` (a function of a module, or a method,
        classmethod or staticmethod defined on a class) with a version
        that runs inside a ``layer`` span.  ``on_result(result)`` runs
        inside the span after each call, for counters."""
        raw = vars(owner)[attr]
        kind = type(raw) if isinstance(raw, (classmethod,
                                             staticmethod)) else None
        fn = raw.__func__ if kind is not None else raw
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != recorder._thread:
                return fn(*args, **kwargs)
            recorder.enter(layer)
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(result)
                return result
            finally:
                recorder.exit()

        self._patches.append((owner, attr, raw))
        setattr(owner, attr, kind(traced) if kind is not None else traced)

    def restore(self) -> None:
        """Put back every patched attribute, last patch first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- reading the fold --------------------------------------------------

    def stats(self, *layers: str) -> LayerStats:
        """The layers' stats summed (absent layers count as zero)."""
        out = LayerStats()
        for layer in layers:
            s = self.layers.get(layer)
            if s is not None:
                out.calls += s.calls
                out.total_s += s.total_s
                out.self_s += s.self_s
        return out
