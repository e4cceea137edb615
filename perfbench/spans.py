"""Outside-in span recorder for the traced benchmark run.

Public functions of the program are wrapped at every place they are bound
(a module global that other code looks up, a name imported into another
module, or a method on a class).  Each call through a wrapper records one
span: name, start, end and the index of the enclosing span.  Spans live in
compact arrays in memory and are written out once, at the end of the run.
Self time is derived from the spans afterwards, and ``restore`` puts every
original function back.

Nothing inside the program is edited; untraced runs call the program
directly, so tracing costs nothing when it is off.
"""

from __future__ import annotations

import json
from array import array
from pathlib import Path
from time import perf_counter_ns


class SpanRecorder:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("H")  # name id per span
        self.parent = array("i")  # index of the enclosing span, -1 at top level
        self.start = array("q")  # perf_counter_ns
        self.end = array("q")
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` by a recording wrapper; a binding the
        program does not have is skipped.

        ``on_result(args, result)`` may add to ``self.counters``.
        """
        original = getattr(owner, attr, None)
        if original is None:
            return
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        name_of, parent, start, end, stack = self.name_of, self.parent, self.start, self.end, self._stack

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(idx)
            start.append(perf_counter_ns())
            try:
                result = original(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- derivation -----------------------------------------------------------
    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds (the span's
        duration minus the part its child spans cover)."""
        start, end, parent, name_of = self.start, self.end, self.parent, self.name_of
        child = array("q", [0]) * len(start)
        for i, p in enumerate(parent):
            if p >= 0:
                child[p] += end[i] - start[i]
        acc = [[0, 0, 0] for _ in self.names]
        for i, nid in enumerate(name_of):
            dur = end[i] - start[i]
            a = acc[nid]
            a[0] += 1
            a[1] += dur
            a[2] += dur - child[i]
        return {
            name: {"calls": calls, "s": incl / 1e9, "self_s": own / 1e9}
            for name, (calls, incl, own) in zip(self.names, acc)
        }

    def outermost(self, names) -> tuple[int, float]:
        """Calls and inclusive seconds of the spans named in ``names`` that
        have no ancestor named in ``names``, so nested calls within one layer
        are counted once."""
        ids = {self._name_ids[n] for n in names if n in self._name_ids}
        parent, name_of = self.parent, self.name_of
        calls = 0
        ns = 0
        for i, nid in enumerate(name_of):
            if nid not in ids:
                continue
            p = parent[i]
            while p >= 0 and name_of[p] not in ids:
                p = parent[p]
            if p < 0:
                calls += 1
                ns += self.end[i] - self.start[i]
        return calls, ns / 1e9

    def write(self, directory: Path, stem: str) -> Path:
        """Write ``<stem>.json`` (names, counters, span count) and
        ``<stem>.bin``: the name-id (uint16), parent (int32), start and end
        (int64 ns) arrays, one after another, in native byte order."""
        directory.mkdir(parents=True, exist_ok=True)
        with open(directory / f"{stem}.bin", "wb") as fh:
            for arr in (self.name_of, self.parent, self.start, self.end):
                arr.tofile(fh)
        meta = {"names": self.names, "spans": len(self.start), "counters": self.counters}
        path = directory / f"{stem}.json"
        path.write_text(json.dumps(meta, sort_keys=True) + "\n")
        return path
