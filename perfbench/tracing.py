"""In-memory spans around functions of the traced program.

A ``Tracer`` replaces a function by a wrapper in every namespace that holds
it (the defining module, modules that imported the name, or a class), so
callers that look the name up at call time enter the wrapper. Each call
records one span: name, start, end, parent span and operation id. Spans live
in typed arrays while the benchmark runs and are written out once at the end;
``uninstall`` puts every original object back.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from time import perf_counter_ns

import numpy as np


class Tracer:
    """Span recorder with per-name counters; single-threaded use."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.op_id = -1
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, fn, name: str, observe=None):
        """Wrapper that records a span per call of ``fn``.

        ``observe(counts, args, kwargs, result)`` runs after a successful
        call, outside the span, to update the counters.
        """
        name_id = len(self.names)
        self.names.append(name)
        stack, counts = self._stack, self.counts
        names, parents, ops, starts, ends = self.name, self.parent, self.op, self.start, self.end

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ops.append(self.op_id)
            ends.append(0)
            stack.append(idx)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[name + ".raised"] += 1
                raise
            finally:
                ends[idx] = perf_counter_ns()
                stack.pop()
            if observe is not None:
                observe(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, owner, attr: str, name: str, observe=None, aliases=()) -> None:
        """Rebind ``owner.attr`` and every alias namespace holding the same object."""
        original = vars(owner)[attr]
        wrapper = self.wrap(original, name, observe)
        holders = [(owner, attr)]
        for module in aliases:
            if module is owner:
                continue
            holders.extend((module, key) for key, value in vars(module).items()
                           if value is original)
        for holder, key in holders:
            self._patches.append((holder, key, original))
            setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        """Restore every rebound name, most recent first."""
        while self._patches:
            holder, key, original = self._patches.pop()
            setattr(holder, key, original)

    def write(self, path) -> None:
        """Save all spans as compressed arrays (times in ns since an arbitrary origin)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )


def self_times(parents, starts, ends) -> list[int]:
    """Each span's duration minus the time its direct children cover.

    Children are clipped to their parent's interval and overlapping children
    count once, so the result never exceeds the span's duration.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for idx, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(idx)
    out = []
    for idx in range(len(starts)):
        lo, hi = starts[idx], ends[idx]
        covered = 0
        reach = lo
        for child in sorted(children.get(idx, ()), key=starts.__getitem__):
            begin = max(starts[child], reach)
            finish = min(ends[child], hi)
            if finish > begin:
                covered += finish - begin
                reach = finish
        out.append(hi - lo - covered)
    return out
