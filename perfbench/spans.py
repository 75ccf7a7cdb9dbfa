"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent): ``parent`` is the index of the
enclosing span in the same list, or -1 at the top. Spans are recorded by
wrapping functions at the attribute the caller looks up (``nearwave.sim.synth``
rather than ``nearwave.geometry.synth``, because ``sim`` imports the name), so
nothing in the package itself changes. Everything stays in memory until
``Recorder.dump`` writes it once at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict


class Recorder:
    """Collects spans and named counters for one process."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def wrap(self, module_name: str, attr: str, span: str, count=None) -> None:
        """Replace ``module.attr`` by a wrapper that records a span per call.

        ``count(recorder, args, kwargs, result)``, if given, runs after each
        call that returns, to add to the counters.
        """
        module = importlib.import_module(module_name)
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (span, start, end, parent)
            if count is not None:
                count(self, args, kwargs, result)
            return result

        setattr(module, attr, traced)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": dict(self.counters)}, fh)


def load(path):
    """Spans and counters written by ``Recorder.dump``."""
    with open(path) as fh:
        data = json.load(fh)
    return [tuple(s) for s in data["spans"]], data["counters"]


def self_times(spans) -> list[float]:
    """Per span: its duration minus the durations of its child spans.

    Spans come from one thread, so the children of a span never overlap and
    their durations are the time they cover.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def by_name(spans) -> dict[str, dict[str, float]]:
    """Call count and summed self time for each span name."""
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for (name, *_), own in zip(spans, self_times(spans)):
        out[name]["calls"] += 1
        out[name]["self_s"] += own
    return dict(out)
