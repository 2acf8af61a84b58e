"""Outside-in span tracer: wraps the program's public callables where their
callers look them up, records spans in memory, and restores the originals.

A span is ``(id, parent, op, name, start, end)``. Every benchmark op opens a
root span named ``op``; spans opened inside it are its descendants. Each
thread keeps its own span stack, so worker threads (``hsmoe eval --threads``)
nest their spans under the root of the op that started them.

Self time of a span is its duration minus the union of its children's
intervals. The union (not the sum) matters only for the root, whose children
may run in parallel on several threads.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import Counter, defaultdict
from time import perf_counter

ROOT = "op"


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(Counter)  # op id -> counter name -> total
        self.local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._patches = []
        self.op = None
        self._root = None

    # -- spans -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def open(self, name: str) -> None:
        stack = self._stack()
        parent = stack[-1][0] if stack else self._root
        stack.append((next(self._ids), parent, name, perf_counter()))

    def close(self) -> None:
        sid, parent, name, start = self._stack().pop()
        self.spans.append((sid, parent, self.op, name, start, perf_counter()))

    def begin_op(self, op: int) -> None:
        self.op = op
        self.open(ROOT)
        self._root = self._stack()[-1][0]

    def end_op(self) -> None:
        self.close()
        self._root = None

    def count(self, key: str, value) -> None:
        with self._lock:
            self.counts[self.op][key] += value

    # -- wrapping --------------------------------------------------------

    def spanned(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(args, kwargs, result)`` runs once the
        span has closed, so its own cost is not charged to the layer."""
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def patch(self, owner, attr: str, make_wrapper) -> None:
        """Replace ``owner.attr`` by ``make_wrapper(original)`` until ``restore``."""
        if attr not in vars(owner):
            raise AttributeError(f"{owner!r} does not define {attr!r} itself")
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output and analysis ---------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("# id parent op name start_s end_s\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"counts": {str(k): v for k, v in self.counts.items()}}) + "\n")

    def per_op(self) -> dict:
        """op id -> {"self": name -> s, "incl": name -> s, "calls": name -> n,
        "counts": counter}, over the ops that have a closed root span."""
        children = defaultdict(list)
        for span in self.spans:
            children[span[1]].append(span)
        ops = {}
        for sid, _parent, op, name, start, end in self.spans:
            covered = _union_length([(max(c[4], start), min(c[5], end)) for c in children[sid]])
            entry = ops.setdefault(op, {"self": Counter(), "incl": Counter(), "calls": Counter()})
            entry["self"][name] += (end - start) - covered
            entry["incl"][name] += end - start
            entry["calls"][name] += 1
        ops = {op: e for op, e in ops.items() if e["calls"][ROOT] == 1}
        for op, entry in ops.items():
            entry["counts"] = self.counts.get(op, Counter())
        return ops


def _union_length(intervals) -> float:
    total = 0.0
    end = None
    for lo, hi in sorted(i for i in intervals if i[1] > i[0]):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total
