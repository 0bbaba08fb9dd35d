"""In-memory spans and self-time accounting for the traced benchmark run.

A span is the list ``[name, start_ns, end_ns, parent, n]``: ``parent`` is the
index of the enclosing span (-1 for a root) and ``n`` is an optional work
count recorded at call time (images in a batch, tape entries, ...).  Spans
are appended in start order, so a parent always precedes its children.

Wrappers are installed by replacing attributes at run time and are removed
again by `Tracer.uninstall`; the program under test is never edited.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import time

NAME, START, END, PARENT, N = range(5)


class Tracer:
    """Records nested spans around wrapped callables."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def current(self) -> int:
        """Index of the innermost open span, or -1."""
        return self._stack[-1] if self._stack else -1

    def open(self, name: str, n=None) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, self.current(), n])
        self._stack.append(idx)
        return idx

    def close(self, idx: int):
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][NAME]} closed out of order")
        self.spans[idx][END] = time.perf_counter_ns()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block."""
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def wrap(self, fn, name, count=None):
        """Return `fn` wrapped in a span.

        `name` is a string or ``name(args, kwargs) -> str``; `count`, if given,
        is ``count(args, kwargs) -> int`` stored as the span's work count.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            idx = self.open(label, None if count is None else count(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return wrapper

    def patch(self, owner, attr: str, replacement):
        """setattr(owner, attr, replacement), undone by `uninstall`."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans) -> list[int]:
    """Per span: duration minus the time covered by its direct children.

    Children of one span never overlap (a single-threaded call tree), so the
    covered time is the sum of their durations.
    """
    covered = [0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    return [s[END] - s[START] - c for s, c in zip(spans, covered)]


def nearest(spans, predicate) -> list[int]:
    """Per span: index of the closest span, itself included, on its ancestor
    chain whose name satisfies `predicate`; -1 when there is none."""
    out = []
    for i, span in enumerate(spans):
        if predicate(span[NAME]):
            out.append(i)
        else:
            out.append(out[span[PARENT]] if span[PARENT] >= 0 else -1)
    return out


def write_spans(spans, path):
    """Write spans as gzip CSV: name,start_ns,end_ns,parent,n."""
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write("name,start_ns,end_ns,parent,n\n")
        for name, start, end, parent, n in spans:
            fh.write(f"{name},{start},{end},{parent},{'' if n is None else n}\n")
