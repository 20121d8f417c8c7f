"""In-memory spans recorded around calls into the program's layers.

A span is ``[id, name, start, end, parent, request]``: the span that
was open when it started is its parent, and a span without an explicit
request id inherits its parent's, so every span of one request shares
the id.  Spans stay in memory until the run ends; :func:`self_times`
then derives each layer's self time - its duration minus the part of
its interval covered by child spans.

Spans are recorded by benchmark code around public calls (and, for the
service, around the names the service calls, patched for the traced
run only); nothing inside the program changes.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from typing import Any, Callable, Iterator

ID, NAME, START, END, PARENT, REQUEST = range(6)


class Tracer:
    """Records nested spans on one thread (or one coroutine at a time)."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, request: Any = None) -> Iterator[list[Any]]:
        parent = self._open[-1] if self._open else None
        if request is None and parent is not None:
            request = self.spans[parent][REQUEST]
        record = [len(self.spans), name, time.perf_counter(), None, parent, request]
        self.spans.append(record)
        self._open.append(record[ID])
        try:
            yield record
        finally:
            record[END] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, function: Callable) -> Callable:
        """``function`` with every call recorded as a ``name`` span."""

        @functools.wraps(function)
        def traced(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)

        return traced


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[list[Any]]) -> dict[str, list[float]]:
    """Per span name, each span's self time in seconds."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    result: dict[str, list[float]] = defaultdict(list)
    for span in spans:
        start, end = span[START], span[END]
        covered = _covered(children.get(span[ID], []), start, end)
        result[span[NAME]].append(end - start - covered)
    return dict(result)


def maybe_span(tracer: Tracer | None, name: str, request: Any = None):
    """A span when tracing, else a context that records nothing."""
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.span(name, request)


@contextlib.contextmanager
def patched(namespace: Any, attribute: str, replacement: Any) -> Iterator[None]:
    """Temporarily replace ``namespace.attribute`` (traced runs only)."""
    original = getattr(namespace, attribute)
    setattr(namespace, attribute, replacement)
    try:
        yield
    finally:
        setattr(namespace, attribute, original)
