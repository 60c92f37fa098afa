"""Span recorder installed around the package's functions from outside.

Every wrapped call pushes a frame; on return its duration is charged to
the caller frame, so a frame's self time is its duration minus the time
its wrapped children took.  Layer-boundary calls become spans (name,
start, end, parent span, item id) kept in memory.  Per-ply calls, which
run 10^5-10^6 times per run, are aggregated instead: a count and summed
durations under their parent span.

Wrappers replace a function at every name the package looks it up by
(``coingames.verify.naive_solve`` as well as ``coingames.solver.naive_solve``),
and methods at their class attribute.  ``uninstall`` puts every original
back.
"""

from __future__ import annotations

import functools
import json
import sys
import time

_clock = time.perf_counter


class _Frame:
    __slots__ = ("name", "start", "child", "span")

    def __init__(self, name, start, span):
        self.name = name
        self.start = start
        self.child = 0.0
        self.span = span


class Tracer:
    """Frame stack plus the recorded spans and aggregates of one run."""

    def __init__(self):
        self.stack: list[_Frame] = []
        self.spans: list[dict] = []
        # (parent span index, name) -> [calls, total_s, self_s]
        self.aggregates: dict[tuple[int, str], list] = {}
        # name -> {"calls", "total_s", "self_s", counter...}
        self.totals: dict[str, dict] = {}
        self.item = None
        self._patches: list[tuple[object, str, object]] = []

    def _parent_span(self) -> int:
        for frame in reversed(self.stack):
            if frame.span is not None:
                return frame.span
        return -1

    def enter(self, name: str, as_span: bool) -> _Frame:
        span = None
        if as_span:
            span = len(self.spans)
            self.spans.append({"name": name, "parent": self._parent_span(), "item": self.item})
        frame = _Frame(name, _clock(), span)
        self.stack.append(frame)
        return frame

    def exit(self, frame: _Frame, counters: dict | None = None) -> None:
        end = _clock()
        self.stack.pop()
        duration = end - frame.start
        self_s = duration - frame.child
        if self.stack:
            self.stack[-1].child += duration
        tot = self.totals.get(frame.name)
        if tot is None:
            tot = self.totals[frame.name] = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        tot["calls"] += 1
        tot["total_s"] += duration
        tot["self_s"] += self_s
        if counters:
            for key, value in counters.items():
                tot[key] = tot.get(key, 0) + value
        if frame.span is not None:
            rec = self.spans[frame.span]
            rec["start"] = frame.start
            rec["end"] = end
            rec["self_s"] = self_s
            if counters:
                rec.update(counters)
        else:
            key = (self._parent_span(), frame.name)
            agg = self.aggregates.get(key)
            if agg is None:
                self.aggregates[key] = [1, duration, self_s]
            else:
                agg[0] += 1
                agg[1] += duration
                agg[2] += self_s

    def wrap(self, fn, name, as_span=True, count=None, name_of=None):
        """Wrapper around ``fn``; ``count(args, result)`` returns extra
        counters, ``name_of(args)`` picks the span name per call."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer.enter(name_of(args) if name_of else name, as_span)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.exit(frame, count(args, result) if count and result is not None else None)

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    def patch_function(self, fn, name, **kw) -> None:
        """Replace ``fn`` under every name a ``coingames`` module binds it to."""
        wrapper = self.wrap(fn, name, **kw)
        for modname, module in list(sys.modules.items()):
            if module is None or not modname.startswith("coingames"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def patch_method(self, cls, attr, name, **kw) -> None:
        """Wrap the method ``cls.attr`` resolves to, set on ``cls`` itself."""
        original_in_dict = attr in vars(cls)
        fn = getattr(cls, attr)
        self._patches.append((cls, attr, vars(cls)[attr] if original_in_dict else None))
        setattr(cls, attr, self.wrap(fn, name, **kw))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            if original is None:
                delattr(target, attr)
            else:
                setattr(target, attr, original)
        self._patches.clear()

    def dump(self, path) -> None:
        doc = {
            "spans": self.spans,
            "aggregates": [
                {"parent": parent, "name": name, "calls": a[0], "total_s": a[1], "self_s": a[2]}
                for (parent, name), a in sorted(self.aggregates.items())
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
