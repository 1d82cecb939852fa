"""Spans recorded from outside the program, and the per-layer split.

The benchmark never edits the code it measures.  A :class:`Tracer`
replaces attributes of live objects (bound methods on the provider,
engine, registry, ...) and of modules (functions a module imported by
name) with wrappers that record one span per call, and restores the
originals when tracing is switched off.  Cyclic-GC pauses arrive as
spans too, through :data:`gc.callbacks`.

Each span keeps its name, start, end, the span that was open when it
started (its parent) and the id of the benchmark operation that caused
it.  Spans stay in memory and are written out when the run ends.

:func:`exclusive_times` turns the spans of one operation into a
partition of its wall time: every instant of the operation belongs to
the most recently started span still open at that instant, and what no
layer span covers belongs to the operation's own root span, reported as
``other``.  So the layer self times always sum to the traced op time,
even when a GC pause starts inside the tracer's own bookkeeping or a
span runs on another thread (an LMR applying a batch on a socket I/O
thread while the publishing thread waits for its reply).
"""

from __future__ import annotations

import gc
import json
import threading
import time
from collections.abc import Callable
from typing import Any

#: Name of the root span the benchmark opens around each operation.
ROOT = "op"

_MISSING = object()


class Tracer:
    """In-memory span recorder with attribute wrapping."""

    def __init__(self) -> None:
        #: One list per span: [name, start, end, parent, op_id, extra].
        self.spans: list[list[Any]] = []
        self.gc_collections = [0, 0, 0]
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.get_ident()
        self._op: int | None = None
        self._wraps: list[tuple[object, str, Callable[..., Any]]] = []
        self._patches: list[tuple[object, str, object]] = []
        self._gc_open: list[int | None] = []
        self.active = False

    # ------------------------------------------------------------------
    # Span bookkeeping
    # ------------------------------------------------------------------
    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # A span on a helper thread hangs under whatever the main
            # thread is waiting in (the request that caused it).
            parent = self._main_stack[-1] if self._main_stack else None
        span = [name, 0.0, 0.0, parent, self._op, None]
        index = len(self.spans)
        self.spans.append(span)
        stack.append(index)
        span[1] = time.perf_counter()
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()
        elif index in stack:
            stack.remove(index)

    def begin_op(self, op_id: int) -> int:
        self._op = op_id
        return self.open(ROOT)

    def end_op(self, index: int) -> None:
        self.close(index)
        self._op = None

    # ------------------------------------------------------------------
    # Installing and removing the wrappers
    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        on_result: Callable[[list[Any], Any], None] | None = None,
    ) -> None:
        """Register ``owner.attr`` to be timed as span ``name``.

        ``on_result(span, result)`` may attach the call's result (or a
        summary of it) to the span.  Nothing changes until
        :meth:`install`.
        """

        def factory(original: Callable[..., Any]) -> Callable[..., Any]:
            def traced(*args: Any, **kwargs: Any) -> Any:
                index = self.open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self.close(index)
                if on_result is not None:
                    on_result(self.spans[index], result)
                return result

            return traced

        self._wraps.append((owner, attr, factory))

    def install(self) -> None:
        if self.active:
            return
        for owner, attr, factory in self._wraps:
            before = vars(owner).get(attr, _MISSING)
            setattr(owner, attr, factory(getattr(owner, attr)))
            self._patches.append((owner, attr, before))
        gc.callbacks.append(self._on_gc)
        self.active = True

    def uninstall(self) -> None:
        if not self.active:
            return
        gc.callbacks.remove(self._on_gc)
        for owner, attr, before in reversed(self._patches):
            if before is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, before)
        self._patches.clear()
        self.active = False

    def _on_gc(self, phase: str, info: dict[str, int]) -> None:
        # Collections between operations belong to the benchmark's own
        # bookkeeping, not to any operation: not recorded.
        if phase == "start":
            if self._op is None:
                self._gc_open.append(None)
                return
            self._gc_open.append(self.open("gc"))
            self.gc_collections[info["generation"]] += 1
        elif self._gc_open:
            index = self._gc_open.pop()
            if index is not None:
                self.close(index)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def write(self, path: str) -> None:
        """Write every span as one JSON line (times in ms from the first)."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, op_id, extra) in enumerate(
                self.spans
            ):
                handle.write(json.dumps({
                    "id": index,
                    "name": name,
                    "start_ms": round((start - origin) * 1000.0, 6),
                    "end_ms": round((end - origin) * 1000.0, 6),
                    "parent": parent,
                    "op": op_id,
                    "extra": extra,
                }) + "\n")


def exclusive_times(spans: list[list[Any]]) -> dict[str, float]:
    """Seconds of each span name's exclusive time over some spans.

    ``spans`` are the spans of whole operations (root spans included).
    Each instant inside a root span is charged to the most recently
    started span open at that instant; instants outside every root span
    are not charged.  So the values sum to the total duration of the
    root spans.
    """
    events: list[tuple[float, int, int]] = []
    for index, span in enumerate(spans):
        events.append((span[1], 1, index))
        events.append((span[2], 0, index))
    # Ends before starts at equal times: a zero-length gap stays unowned.
    events.sort(key=lambda event: (event[0], event[1]))
    totals: dict[str, float] = {}
    open_spans: list[int] = []
    open_roots = 0
    last = 0.0
    for when, is_start, index in events:
        if open_roots and when > last:
            owner = spans[open_spans[-1]][0]
            totals[owner] = totals.get(owner, 0.0) + (when - last)
        last = when
        is_root = spans[index][0] == ROOT
        if is_start:
            open_spans.append(index)
            open_roots += is_root
        else:
            open_spans.remove(index)
            open_roots -= is_root
    return totals
