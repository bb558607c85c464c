"""In-memory tracing of calls into qhkit, installed from outside the program.

`Tracer.patch` replaces a function or method on a module, class or instance
with a wrapper that records the call; `Tracer.restore` puts every original
back.  Each wrapped call pushes a frame, so a span's self time is its
duration minus the time of the wrapped calls made inside it.  Calls made by
the hundred thousand (region predicates, map evaluations) are aggregated into
per-name counts and times only; the others are also kept as spans
(name, layer, start, end, parent) and written out when the run ends.
"""
from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter
from typing import Callable, Optional

_MISSING = object()


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.call_s: dict[str, float] = defaultdict(float)
        self.outer_s: dict[str, float] = defaultdict(float)  # not nested in its layer
        self.layer_s: dict[str, float] = defaultdict(float)
        self.layer_self_s: dict[str, float] = defaultdict(float)
        self.layer_calls: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [layer, child_s, span index or -1]
        self._patches: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def call(self, name: str, layer: str, fn: Callable, args, kwargs, keep: bool,
             on_exit: Optional[Callable] = None):
        parent = self._stack[-1] if self._stack else None
        span_parent = next((f[2] for f in reversed(self._stack) if f[2] >= 0), -1)
        frame = [layer, 0.0, -1]
        if keep:
            frame[2] = len(self.spans)
            self.spans.append({"name": name, "layer": layer, "parent": span_parent})
        self._stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            dur = end - start
            self.calls[name] += 1
            self.call_s[name] += dur
            self.layer_calls[layer] += 1
            self.layer_self_s[layer] += dur - frame[1]
            # A layer's time counts only its outermost calls, so nested
            # calls within one layer are not added twice.
            if not any(f[0] == layer for f in self._stack):
                self.layer_s[layer] += dur
                self.outer_s[name] += dur
            if parent is not None:
                parent[1] += dur
            if keep:
                self.spans[frame[2]].update(start=start, end=end, self_s=dur - frame[1])
        if on_exit is not None and keep:
            on_exit(self.spans[frame[2]], args, kwargs, result)
        return result

    def patch(self, owner, attr: str, name: str, layer: str, keep: bool = True,
              on_exit: Optional[Callable] = None) -> None:
        saved = vars(owner).get(attr, _MISSING)
        fn = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer.call(name, layer, fn, args, kwargs, keep, on_exit)

        wrapper.__wrapped__ = fn
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, saved))

    def restore(self) -> None:
        for owner, attr, saved in reversed(self._patches):
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)
        self._patches.clear()

    # -- reading -------------------------------------------------------------

    def named(self, prefix: str) -> list[dict]:
        return [s for s in self.spans if s["name"].startswith(prefix)]

    def layer_table(self) -> dict:
        return {layer: {"time_s": self.layer_s[layer], "self_s": self.layer_self_s[layer],
                        "calls": self.layer_calls[layer]}
                for layer in sorted(self.layer_calls)}

    def dump(self, path: str, extra: dict) -> None:
        origin = min((s["start"] for s in self.spans), default=0.0)
        spans = [dict(s, start=s["start"] - origin, end=s["end"] - origin)
                 for s in self.spans]
        out = dict(extra, layers=self.layer_table(), calls=dict(self.calls),
                   call_s=dict(self.call_s), spans=spans)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1, default=str)
