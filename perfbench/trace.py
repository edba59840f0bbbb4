"""In-memory spans around calls into the program's public functions.

A traced run wraps public methods of ``repro`` classes (the benchmark never
edits the program) so each call records one span: name, start, end, the
span that caused it, and the request id it serves. Spans stay in memory and
are written out once, when the run ends. Untraced runs install nothing.

``self time`` of a span is its duration minus the part covered by its
children; :func:`self_times` aggregates it per span name.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from pathlib import Path


class Tracer:
    """Collects spans; :meth:`wrap` instruments one public callable."""

    def __init__(self) -> None:
        self.spans: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, rid_of=None) -> None:
        """Replace ``owner.attr`` by a spanned wrapper until :meth:`close`.

        ``rid_of(args, kwargs)`` extracts the request id from the call's
        arguments; without it the span inherits its parent's id.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            rid = rid_of(args, kwargs) if rid_of is not None else None
            with _Span(tracer, name, rid):
                return original(*args, **kwargs)

        self._patches.append((owner, attr, owner.__dict__.get(attr, original)))
        setattr(owner, attr, wrapper)

    def close(self) -> None:
        """Restore every wrapped callable."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with self._lock:
            spans = list(self.spans)
        path.write_text("\n".join(json.dumps(s) for s in spans) + "\n")

    def durations(self, name: str, child: "str | None" = None) -> list:
        """Durations in seconds of every finished span called *name*; with
        *child*, only of those with a child span of that name."""
        with self._lock:
            spans = list(self.spans)
        parents = None
        if child is not None:
            parents = {s["parent"] for s in spans if s["name"] == child}
        return [
            s["end"] - s["start"]
            for s in spans
            if s["name"] == name and (parents is None or s["id"] in parents)
        ]


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: Tracer, name: str, rid) -> None:
        self.tracer = tracer
        self.record = {"name": name, "rid": rid}

    def __enter__(self):
        stack = self.tracer._stack()
        parent = stack[-1] if stack else None
        record = self.record
        record["id"] = next(self.tracer._ids)
        record["parent"] = parent["id"] if parent else None
        if record["rid"] is None and parent is not None:
            record["rid"] = parent["rid"]
        record["thread"] = threading.get_ident()
        stack.append(record)
        record["start"] = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.record["end"] = time.perf_counter()
        self.tracer._stack().pop()
        with self.tracer._lock:
            self.tracer.spans.append(self.record)


def read_spans(path) -> list:
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line]


def self_times(spans) -> dict:
    """``name -> {"count", "total_s", "self_s"}`` over *spans*.

    A span's self time is its duration minus the union of its children's
    intervals (children run inside the parent on the same thread, so the
    union is their summed duration unless they overlap).
    """
    children: dict = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    out: dict = {}
    for span in spans:
        duration = span["end"] - span["start"]
        covered = 0.0
        cursor = span["start"]
        for child in sorted(children.get(span["id"], ()), key=lambda c: c["start"]):
            lo = max(child["start"], cursor)
            hi = min(child["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        entry = out.setdefault(span["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
        entry["count"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - covered
    return out
