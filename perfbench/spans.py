"""In-memory spans around the program's public functions.

A :class:`SpanRecorder` wraps functions of the program's classes from the
outside (nothing under ``src/`` changes), keeps every span in memory and
writes them out as JSON lines when the run ends.  A span is ``(id, name,
start, end, parent, rid)``: ``parent`` is the span that was open in the
same thread or asyncio task when this one began, ``rid`` groups the spans
of one request.  Times are ``time.perf_counter()`` seconds, which on Linux
is the system-wide monotonic clock, so spans from a server process and
from the load generator share one time axis.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

Span = Dict[str, Any]

_current: contextvars.ContextVar = contextvars.ContextVar("perfbench_span",
                                                          default=None)


class SpanRecorder:
    """Collects spans; :meth:`wrap` installs a timing wrapper on a method."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._restore: List[Callable[[], None]] = []

    def open(self, name: str, rid: Any = None) -> Span:
        span = {"id": next(self._ids), "name": name,
                "start": time.perf_counter(), "end": None,
                "parent": _current.get(), "rid": rid}
        span["_token"] = _current.set(span["id"])
        return span

    def close(self, span: Span) -> None:
        span["end"] = time.perf_counter()
        _current.reset(span.pop("_token"))
        self.spans.append(span)

    def add(self, name: str, start: float, end: float, rid: Any = None,
            parent: Optional[int] = None) -> int:
        """Record a span measured elsewhere (e.g. a client request)."""
        span_id = next(self._ids)
        self.spans.append({"id": span_id, "name": name, "start": start,
                           "end": end, "parent": parent, "rid": rid})
        return span_id

    def wrap(self, owner: Any, attr: str, name: str,
             rid: Optional[Callable[..., Any]] = None,
             before: Optional[Callable[..., None]] = None,
             after: Optional[Callable[..., None]] = None) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``rid(*args)`` names the request a call serves; ``before(*args)``
        and ``after(result, *args)`` run outside the span, to record
        counts.
        Coroutine functions get an async wrapper.  :meth:`unwrap_all`
        puts the originals back.
        """
        original = inspect.getattr_static(owner, attr)
        func = getattr(owner, attr)
        if inspect.iscoroutinefunction(func):
            @functools.wraps(func)
            async def wrapper(*args, **kwargs):
                if before is not None:
                    before(*args)
                span = self.open(name, rid(*args) if rid else None)
                try:
                    result = await func(*args, **kwargs)
                finally:
                    self.close(span)
                if after is not None:
                    after(result, *args)
                return result
        else:
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                if before is not None:
                    before(*args)
                span = self.open(name, rid(*args) if rid else None)
                try:
                    result = func(*args, **kwargs)
                finally:
                    self.close(span)
                if after is not None:
                    after(result, *args)
                return result
        setattr(owner, attr, wrapper)
        self._restore.append(lambda: setattr(owner, attr, original))

    def unwrap_all(self) -> None:
        while self._restore:
            self._restore.pop()()

    def write_jsonl(self, path: str, extra: Iterable[Span] = ()) -> None:
        with open(path, "w") as out:
            for span in itertools.chain(self.spans, extra):
                out.write(json.dumps(span) + "\n")


def read_jsonl(path: str) -> List[Span]:
    with open(path) as src:
        return [json.loads(line) for line in src if line.strip()]


def _covered(intervals: List[tuple], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> its duration minus the part its children cover."""
    children: Dict[int, List[tuple]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    return {span["id"]: (span["end"] - span["start"])
            - _covered(children.get(span["id"], []), span["start"],
                       span["end"])
            for span in spans}


def self_time_by_name(spans: Sequence[Span]) -> Dict[str, float]:
    """Total self time per span name, in seconds."""
    own = self_times(spans)
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span["name"]] += own[span["id"]]
    return dict(totals)


def coverage(spans: Sequence[Span], root: str) -> float:
    """Share of the ``root`` spans' wall time that their children cover."""
    own = self_times(spans)
    roots = [s for s in spans if s["name"] == root]
    wall = sum(s["end"] - s["start"] for s in roots)
    if wall <= 0:
        return 0.0
    return 1.0 - sum(own[s["id"]] for s in roots) / wall
